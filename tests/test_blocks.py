import cmath
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import permuted_blocks, reference_nonresonance_witness

from bnftrace.blocks import (COMPLEX_HYPERBOLIC, ELLIPTIC, REAL_HYPERBOLIC,
                             SpectrumBlocks, classify, nonresonance_witness,
                             require_nonresonant)
from bnftrace.errors import MathError, ResonanceError, SchemaError
from bnftrace.fields import FloatField, RationalField

FF = FloatField()
FR = RationalField()


def test_count_identity():
    b = SpectrumBlocks.from_mu(FF, [
        (COMPLEX_HYPERBOLIC, 1 + 1j), (COMPLEX_HYPERBOLIC, 1 - 1j),
        (REAL_HYPERBOLIC, math.log(2)), (ELLIPTIC, 1j),
    ])
    assert b.n == 4
    # n_e + n_rh + 2 n_ch = n, with n_ch counting complex hyperbolic pairs
    n_ch = b.tags.count(COMPLEX_HYPERBOLIC) // 2
    assert b.tags.count(ELLIPTIC) + b.tags.count(REAL_HYPERBOLIC) \
        + 2 * n_ch == b.n


def test_elliptic_theta_range_enforced():
    with pytest.raises(SchemaError):
        SpectrumBlocks.from_mu(FF, [(ELLIPTIC, -0.5j)])
    with pytest.raises(SchemaError):
        SpectrumBlocks.from_mu(FF, [(ELLIPTIC, 3.5j)])  # theta > pi


def test_rh_positive_enforced():
    with pytest.raises(SchemaError):
        SpectrumBlocks.from_mu(FF, [(REAL_HYPERBOLIC, -0.2)])


def test_ch_pairing_enforced():
    with pytest.raises(SchemaError):
        SpectrumBlocks.from_mu(FF, [(COMPLEX_HYPERBOLIC, 1 + 1j)])
    with pytest.raises(SchemaError):
        SpectrumBlocks.from_mu(FF, [(COMPLEX_HYPERBOLIC, 1 + 1j),
                                    (COMPLEX_HYPERBOLIC, 1 + 1j)])


def test_mu_roundtrip_through_exp_half():
    b = SpectrumBlocks.from_mu(FF, [(REAL_HYPERBOLIC, math.log(3)),
                                    (ELLIPTIC, 0.7j)])
    mus = b.mu()
    assert abs(mus[0] - math.log(3)) < 1e-14
    assert abs(mus[1] - 0.7j) < 1e-14


def test_rational_blocks_exact():
    b = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    assert b.exp_half[0] == FR.from_int(2)


def test_canonical_order():
    b = SpectrumBlocks.from_mu(FF, [
        (ELLIPTIC, 1j), (REAL_HYPERBOLIC, math.log(2)),
        (COMPLEX_HYPERBOLIC, 1 + 1j), (COMPLEX_HYPERBOLIC, 1 - 1j),
    ])
    perm = b.canonical_order()
    c = permuted_blocks(b, perm)
    assert c.tags == (COMPLEX_HYPERBOLIC, COMPLEX_HYPERBOLIC,
                      REAL_HYPERBOLIC, ELLIPTIC)


def test_resonance_witness_exact_case():
    w = nonresonance_witness([2j * math.pi / 3], 3)
    assert w == ((3,), 1)


def test_nonresonant_pair_passes_order_10():
    assert nonresonance_witness([1j, math.sqrt(2) * 1j], 10) is None


def test_hyperbolic_always_nonresonant():
    assert nonresonance_witness([math.log(2)], 40) is None


def test_require_nonresonant_raises_with_witness():
    b = SpectrumBlocks.from_mu(FF, [(ELLIPTIC, 2j * math.pi / 3)])
    with pytest.raises(ResonanceError) as exc:
        require_nonresonant(b, 3)
    assert exc.value.witness == ((3,), 1)
    assert "k=[3]" in str(exc.value)


_LOGS = [math.log(2), math.log(3), math.log(6)]
# exponents with planted integer relations: rational reals, 2 pi i p/q,
# their sums, ln 2, ln 3 and ln 6 (ln 2 + ln 3 - ln 6 = 0), and generic ones
_ratio = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_exponent = st.one_of(
    _ratio.map(complex),
    _ratio.map(lambda r: 2j * math.pi * r),
    st.tuples(_ratio, _ratio).map(
        lambda rs: complex(rs[0]) + 2j * math.pi * rs[1]),
    st.sampled_from(_LOGS).map(complex),
    st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
)
_mixes = st.one_of(
    st.lists(_exponent, max_size=3),
    st.tuples(st.permutations(_LOGS), st.sampled_from([1, 2, -1])).map(
        lambda t: [t[1] * x for x in t[0]]),
)


@settings(max_examples=120, deadline=None)
@example([2 * x for x in _LOGS], 10)
@example([2j * math.pi / 3, 1j, 0.5 + 0j], 10)
@example([], 3)
@given(_mixes, st.integers(1, 10))
def test_witness_search_matches_the_plain_search(mu, max_order):
    assert (nonresonance_witness(mu, max_order)
            == reference_nonresonance_witness(mu, max_order))


# the tolerance of the input check of SpectrumBlocks
_TOL = 1e-9


def _near(center):
    """Floats within 5e-9 of ``center``."""
    return st.floats(-5, 5).map(lambda d: center + d * _TOL)


def _accepts(tag, q):
    """Whether the blocks should take a ``tag`` block with e^mu = q: q
    oriented (|q| > 1, or Im q >= 0 on the unit circle), classify(q) is
    ``tag``, and of a complex hyperbolic pair q is the member with
    Im q > 0."""
    if abs(abs(q) - 1) <= _TOL:
        if q.imag < 0:
            return False
    elif abs(q) < 1:
        return False
    try:
        found = classify(q, _TOL)
    except MathError:
        return False
    return found == tag and (tag != COMPLEX_HYPERBOLIC or q.imag > 0)


@settings(max_examples=400, deadline=None)
@given(r=st.one_of(_near(1.0), st.floats(0.2, 5.0)),
       arg=st.one_of(_near(0.0), _near(math.pi), _near(-math.pi),
                     st.floats(-math.pi, math.pi)),
       tag=st.sampled_from([ELLIPTIC, REAL_HYPERBOLIC, COMPLEX_HYPERBOLIC]))
# e^mu 1.5e-9 above 1: real hyperbolic to classify, which the check took
# for a real E = sqrt(q) at most 1e-9 above 1
@example(r=1 + 1.5e-9, arg=0.0, tag=REAL_HYPERBOLIC)
# |E| = 1 + 0.8e-9: complex hyperbolic to classify, which the check took
# for elliptic by |E| within 1e-9 of 1
@example(r=(1 + 0.8e-9) ** 2, arg=1.0, tag=ELLIPTIC)
def test_input_check_agrees_with_the_classifier(r, arg, tag):
    """For e^mu = q near the unit circle and the real axis, the blocks
    accept (tag, E = sqrt q) exactly when classify(q, 1e-9) gives the tag
    and q is oriented (and, of a complex hyperbolic pair, the principal
    member).  q is E^2, the value the blocks read from E."""
    E = cmath.sqrt(cmath.rect(r, arg))
    q = E * E
    tags, ehm = [tag], [E]
    if tag == COMPLEX_HYPERBOLIC:
        tags, ehm = [tag, tag], [E, E.conjugate()]
    try:
        SpectrumBlocks(FF, tags, ehm)
        accepted = True
    except SchemaError:
        accepted = False
    assert accepted == _accepts(tag, q)


def test_input_check_witnesses():
    """rh E = 1 + 0.6e-9 has e^mu 1.2e-9 off the unit circle and is real
    hyperbolic; elliptic |E| = 1 + 0.8e-9 has |e^mu| 1.6e-9 off it and is
    refused, as is a real E below 0, which is no principal square root."""
    SpectrumBlocks(FF, [REAL_HYPERBOLIC], [1 + 0.6e-9])
    with pytest.raises(SchemaError, match="got a complex_hyperbolic"):
        SpectrumBlocks(FF, [ELLIPTIC], [cmath.rect(1 + 0.8e-9, 0.5)])
    with pytest.raises(SchemaError, match="Re E > 0"):
        SpectrumBlocks(FF, [REAL_HYPERBOLIC], [-2 + 0j])
