import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (brute_force_trace_coeffs, mixed_float_fixture,
                     random_F_total_degree, random_hyperbolic_exp_half, rt1)

from bnftrace.blocks import (COMPLEX_HYPERBOLIC, ELLIPTIC, REAL_HYPERBOLIC,
                             SpectrumBlocks)
from bnftrace.errors import MathError, ResonanceError, SchemaError
from bnftrace.fields import FloatField, RationalField
from bnftrace.qbnf import (QuantumBNF, TraceData, TraceEngine, leading_term,
                           make_trace_data, trace_coefficient, trace_power)
from bnftrace.series import MultiSeries, Orders, zseries
from bnftrace import hypcalc as hc

FR = RationalField()
FF = FloatField()


def _zero_bnf(field, blocks, orders=(4, 3, 3)):
    jets = [zseries(field, orders[1]) for _ in range(blocks.n)]
    return QuantumBNF(blocks, jets, MultiSeries.zero(field, blocks.n, orders))


def test_trace_power_bare_product():
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    b = _zero_bnf(FR, blocks)
    tp = trace_power(b, 1, (3, 3))
    assert tp.phase == FR.zero
    assert tp.coeffs.get((), 0, 0) == FR.from_rational("2/3")
    assert all(l == 0 for (_a, _m, l) in tp.coeffs.terms)
    assert all(m == 0 for (_a, m, _l) in tp.coeffs.terms)


def test_trace_power_constant_h_term_is_pure_phase():
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    c = FR.from_rational("2/7")
    F = MultiSeries(FR, 1, Orders(4, 3, 3), {((0,), 0, 1): c})
    b = QuantumBNF(blocks, [zseries(FR, 3)], F)
    tp = trace_power(b, 3, (3, 3))
    base = trace_power(_zero_bnf(FR, blocks), 3, (3, 3))
    assert tp.phase == c
    assert tp.coeffs == base.coeffs


def test_trace_power_quadratic_operator_term():
    # F = beta iota^2: h^1 coefficient is (i beta / k) * d^2 value
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    beta = FR.from_rational("3/2")
    F = MultiSeries(FR, 1, Orders(4, 3, 3), {((2,), 0, 0): beta})
    b = QuantumBNF(blocks, [zseries(FR, 3)], F)
    tp = trace_power(b, 1, (3, 3))
    assert tp.coeffs.get((), 0, 1) == FR.i * beta * FR.from_rational("41/54")


def test_qbnf_rejects_low_order_h0_terms():
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    bad = MultiSeries(FR, 1, Orders(4, 3, 3), {((1,), 0, 0): FR.one})
    with pytest.raises(SchemaError):
        QuantumBNF(blocks, [zseries(FR, 3)], bad)
    bad2 = MultiSeries(FR, 1, Orders(4, 3, 3), {((0,), 1, 0): FR.one})
    with pytest.raises(SchemaError):
        QuantumBNF(blocks, [zseries(FR, 3)], bad2)


def test_trace_orders_must_fit_F_truncation():
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    F = MultiSeries.zero(FR, 1, Orders(3, 3, 3))
    b = QuantumBNF(blocks, [zseries(FR, 3)], F)
    with pytest.raises(SchemaError):
        trace_power(b, 1, (3, 3))  # needs iota order >= 4


def test_leading_term_values():
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    action = zseries(FR, 3, {1: FR.one})
    lt = leading_term(action, 0, blocks, 1, 3)
    assert lt.series.get((), 0, 0) == FR.from_rational("2/3")
    # Maslov phase
    lt2 = leading_term(action, 2, blocks, 1, 3)
    assert lt2.series.get((), 0, 0) == FR.from_rational("-2/3")
    # k = 2: 1/(2 sinh(2 ln 2)) = 4/15, matching the determinant bridge
    # |det(dkappa^2 - 1)|^{1/2} = 15/4 (consistency test below)
    lt3 = leading_term(action, 0, blocks, 2, 3)
    assert lt3.series.get((), 0, 0) == FR.from_rational("4/15")
    assert "I(z)/h" in lt3.oscillatory


def test_leading_term_degenerate_orbit():
    blocks = SpectrumBlocks.from_mu(FF, [(ELLIPTIC, 2j * math.pi / 3)])
    action = zseries(FF, 2, {1: FF.one})
    with pytest.raises(MathError):
        leading_term(action, 0, blocks, 3, 2)  # 3 theta = 2 pi: sinh pole


def test_leading_term_magnitude_matches_trace_h0():
    # |leading| = |a_0k| for F = 0, nu = 0: exact on rational hyperbolic
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    action = zseries(FR, 3, {1: FR.one})
    b = _zero_bnf(FR, blocks)
    for k in range(1, 7):
        lt = leading_term(action, 0, blocks, k, 0)
        tp = trace_power(b, k, (0, 0))
        lv = lt.series.get((), 0, 0)
        tv = tp.coeffs.get((), 0, 0)
        assert lv.norm_sq() == tv.norm_sq()
    # float: mixed block types
    blocks2 = SpectrumBlocks.from_mu(FF, [
        (COMPLEX_HYPERBOLIC, 0.8 + 0.9j), (COMPLEX_HYPERBOLIC, 0.8 - 0.9j),
        (REAL_HYPERBOLIC, 0.6), (ELLIPTIC, 1.1j)])
    action2 = zseries(FF, 2, {1: FF.one})
    b2 = _zero_bnf(FF, blocks2, orders=(3, 2, 2))
    for k in range(1, 7):
        lt = leading_term(action2, 0, blocks2, k, 0)
        tp = trace_power(b2, k, (0, 0))
        assert abs(abs(lt.series.get((), 0, 0)) -
                   abs(tp.coeffs.get((), 0, 0))) < 1e-12


def test_scaling_law_f_zero_exact():
    # trace at (mu, k) equals trace at (k mu, 1): exact with F = 0
    blocks_k = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    for k in (2, 3):
        blocks_1 = SpectrumBlocks(FR, [REAL_HYPERBOLIC],
                                  [FR.from_int(2) ** k])
        tp_k = trace_power(_zero_bnf(FR, blocks_k), k, (0, 3))
        tp_1 = trace_power(_zero_bnf(FR, blocks_1), 1, (0, 3))
        assert tp_k.coeffs == tp_1.coeffs


def test_scaling_law_monomial_F():
    # with F rescaled to kF the k-th power trace matches the first power
    # of the k-fold exponents
    rng = random.Random(3)
    k = 3
    mu = rng.uniform(0.5, 1.0)
    beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    blocks_k = SpectrumBlocks.from_mu(FF, [(REAL_HYPERBOLIC, mu)])
    blocks_1 = SpectrumBlocks.from_mu(FF, [(REAL_HYPERBOLIC, k * mu)])
    F_k = MultiSeries(FF, 1, Orders(4, 0, 3), {((2,), 0, 0): beta})
    F_1 = MultiSeries(FF, 1, Orders(4, 0, 3), {((2,), 0, 0): k * beta})
    b_k = QuantumBNF(blocks_k, [zseries(FF, 0)], F_k)
    b_1 = QuantumBNF(blocks_1, [zseries(FF, 0)], F_1)
    tp_k = trace_power(b_k, k, (0, 3))
    tp_1 = trace_power(b_1, 1, (0, 3))
    assert abs(tp_k.phase - tp_1.phase) < 1e-14
    assert tp_k.coeffs.close_to(tp_1.coeffs, 1e-12)


def test_h0_coefficient_never_vanishes():
    rng = random.Random(9)
    for n in (1, 2):
        ehm = random_hyperbolic_exp_half(FF, n, rng)
        blocks = SpectrumBlocks(FF, [REAL_HYPERBOLIC] * n, ehm)
        F = random_F_total_degree(FF, n, rng)
        b = QuantumBNF(blocks, [zseries(FF, 0)] * n, F)
        for k in range(1, 7):
            tp = trace_power(b, k, (0, 2))
            assert abs(tp.coeffs.get((), 0, 0)) > 1e-6


def test_oracle_agreement_low_h_orders():
    """a_{j,k}(0) for j <= 2 against the independent lattice-sum expansion
    of tr e^{-ikG/h} (hyperbolic blocks)."""
    rng = random.Random(17)
    for n in (1, 2):
        ehm = random_hyperbolic_exp_half(FF, n, rng)
        blocks = SpectrumBlocks(FF, [REAL_HYPERBOLIC] * n, ehm)
        F = random_F_total_degree(FF, n, rng, orders=(3, 0, 2))
        b = QuantumBNF(blocks, [zseries(FF, 0)] * n, F)
        for k in (1, 2, 3):
            tp = trace_power(b, k, (0, 2))
            oracle = brute_force_trace_coeffs(b, k, 2)
            phase = cmath.exp(-1j * k * FF.to_complex(tp.phase))
            for j in range(3):
                mine = phase * FF.to_complex(tp.coeffs.get((), 0, j))
                assert abs(mine - oracle[j]) <= 1e-8 * max(1.0, abs(oracle[j]))


def test_make_trace_data_f_zero_closed_form():
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    b = _zero_bnf(FR, blocks)
    action = zseries(FR, 3, {1: FR.one})
    td = make_trace_data(b, action, {}, 6, (3, 3))
    for k in range(1, 7):
        expr = hc.csch_product(FR, 1, k)
        expected = hc.eval_csch(expr, exp_half=[FR.from_int(2)])
        assert td.coefficients[k].get((), 0, 0) == expected


def test_make_trace_data_k_max_domain():
    F, b, action = rt1()
    with pytest.raises(SchemaError):
        make_trace_data(b, action, {}, 0, (3, 3))


def test_make_trace_data_rejects_resonant_blocks():
    blocks = SpectrumBlocks.from_mu(FF, [(ELLIPTIC, 2j * math.pi / 3)])
    b = _zero_bnf(FF, blocks, orders=(3, 2, 2))
    action = zseries(FF, 2, {1: FF.one})
    with pytest.raises(ResonanceError) as exc:
        make_trace_data(b, action, {}, 4, (2, 2))
    assert exc.value.witness == ((3,), 1)


def test_trace_data_validation():
    F, b, action = rt1()
    td = make_trace_data(b, action, {1: 1, 2: 2}, 4, (3, 3))
    assert td.maslov[1] == 1 and td.maslov[3] == 0
    bad_action = zseries(F, 3, {1: F.i})
    with pytest.raises(SchemaError):
        TraceData(F, 4, bad_action, {}, F.zero, td.coefficients)
    with pytest.raises(SchemaError):
        TraceData(F, 5, action, {}, F.zero, td.coefficients)  # missing k=5


def test_mixed_fixture_forward_runs():
    F, b = mixed_float_fixture(5)
    td = make_trace_data(b, zseries(F, 2, {1: F.one}), {}, 6, (2, 2))
    assert td.k_max == 6
    assert abs(F.to_complex(td.phase).imag) < 10  # phase is a scalar


class _ScratchEngine:
    """Stands in for TraceEngine with no caches at all: every z-series is
    built from scratch by apply_derivatives + eval_series_in_z."""

    def __init__(self, bnf, n_z):
        self.bnf = bnf
        self.n_z = n_z

    def serves(self, *_state):
        return True

    def zseries(self, k, alpha):
        b = self.bnf
        expr = hc.apply_derivatives(hc.csch_product(b.field, b.n, k), alpha)
        return hc.eval_series_in_z(expr, b.blocks.exp_half, b.mu_jets,
                                   self.n_z)


def _rational_fixtures():
    """rt1 with a z^2 term in its mu-jet, and an exact n=2 fixture (rh E=2,
    elliptic E=(3+4i)/5) with jets and F coupling both actions."""
    _F, b1, _a = rt1()
    jet = zseries(FR, 3, {1: FR.one, 2: FR.from_rational("-2/5")})
    b1 = QuantumBNF(b1.blocks, [jet], b1.F)
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC, ELLIPTIC],
                            [FR.from_int(2), FR.from_rational("3/5", "4/5")])
    jets = [zseries(FR, 3, {1: FR.from_rational("1/3")}),
            zseries(FR, 3, {1: FR.from_rational(0, "-1/2"),
                            2: FR.from_rational(0, "1/7")})]
    F2 = MultiSeries(FR, 2, Orders(4, 3, 3), {
        ((2, 0), 0, 0): FR.from_rational("1/7"),
        ((1, 1), 0, 0): FR.from_rational("-2/3"),
        ((0, 2), 1, 0): FR.from_rational("1/5"),
        ((1, 0), 0, 1): FR.from_rational("3/4"),
        ((0, 1), 2, 1): FR.from_rational("-1/9"),
        ((0, 0), 0, 1): FR.from_rational("2/9"),
        ((2, 1), 0, 1): FR.from_rational("5/6"),
        ((1, 0), 1, 3): FR.from_rational("-1/2"),
    })
    return [b1, QuantumBNF(blocks, jets, F2)]


def _alphas_up_to(n, degree):
    return [a for a in itertools.product(range(degree + 1), repeat=n)
            if sum(a) <= degree]


def test_engine_trace_power_matches_scratch_reference():
    for b in _rational_fixtures():
        engine = TraceEngine(b.blocks, b.mu_jets, 3)
        for k in range(1, 9):
            ref = trace_power(b, k, (3, 3), engine=_ScratchEngine(b, 3))
            got = trace_power(b, k, (3, 3), engine=engine)
            again = trace_power(b, k, (3, 3), engine=engine)  # from cache
            assert got.phase == ref.phase
            assert list(got.coeffs.terms.items()) == \
                list(ref.coeffs.terms.items())
            assert list(again.coeffs.terms.items()) == \
                list(ref.coeffs.terms.items())


def test_engine_matches_scratch_for_every_alpha():
    for b in _rational_fixtures():
        engine = TraceEngine(b.blocks, b.mu_jets, 3)
        scratch = _ScratchEngine(b, 3)
        for k in (1, 2, 5):
            for alpha in _alphas_up_to(b.n, 4):
                assert engine.zseries(k, alpha) == scratch.zseries(k, alpha)
                expr = hc.apply_derivatives(hc.csch_product(FR, b.n, k), alpha)
                assert engine.value_at_mu0(k, alpha) == hc.eval_csch(
                    expr, exp_half=b.blocks.exp_half)


def test_coth_polys_equal_apply_derivatives():
    """d^a (1/2)csch(k mu/2) = (k/2)^a q_a(t) (1/2)csch(k mu/2): the
    recurrence for q_a against the one-variable CschExpression calculus,
    and the block value against eval_csch."""
    for field in (FR, FF):
        E = field.from_rational("5/3")
        for k in (1, 2, 3):
            kh = field.from_int(k) * field.inv(field.from_int(2))
            for a in range(9):
                ref = hc.apply_derivatives(hc.csch_product(field, 1, k), (a,))
                scale = kh**a if a else field.one
                got = {(d,): field.from_int(c) * scale
                       for d, c in enumerate(hc.coth_poly(a)) if c}
                assert got.keys() == ref.poly.keys()
                assert all(field.close(got[e], ref.poly[e], 1e-14)
                           for e in got)
                value = hc.csch_block(field, k, a, exp_half=E)
                assert field.close(value, hc.eval_csch(ref, exp_half=[E]),
                                   1e-13)
    assert hc.coth_poly(2) == (-1, 0, 2)


@st.composite
def _block_mix(draw):
    """Exact blocks for n <= 3: rational rh E > 1, Pythagorean elliptic E,
    complex hyperbolic conjugate pairs in Q(i); tags and (re, im) pairs."""
    small = st.integers(1, 6)
    tags, exps = [], []
    while True:
        room = 3 - len(tags)
        kinds = ["rh", "el"] + (["ch"] if room >= 2 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "rh":
            q = draw(small)
            tags.append(REAL_HYPERBOLIC)
            exps.append((Fraction(q + draw(small), q), Fraction(0)))
        elif kind == "el":
            m = draw(st.integers(2, 6))
            n = draw(st.integers(1, m - 1))
            a, b, c = m * m - n * n, 2 * m * n, m * m + n * n
            if draw(st.booleans()):
                a, b = b, a
            tags.append(ELLIPTIC)
            exps.append((Fraction(a, c), Fraction(b, c)))
        else:
            re, im = draw(small), draw(small)
            r = draw(small.filter(lambda r: r * r < re * re + im * im))
            E = (Fraction(re, r), Fraction(im, r))
            tags += [COMPLEX_HYPERBOLIC] * 2
            exps += [E, (E[0], -E[1])]
        if len(tags) == 3 or draw(st.booleans()):
            return tags, exps


@st.composite
def _factorization_case(draw):
    tags, exps = draw(_block_mix())
    n_z = draw(st.integers(0, 3))
    coeff = st.fractions(-3, 3, max_denominator=5)
    jets = [{m: (draw(coeff), draw(coeff)) for m in range(1, n_z + 1)
             if draw(st.booleans())} for _ in tags]
    k = draw(st.integers(1, 5))
    alpha = tuple(draw(st.integers(0, 4)) for _ in tags)
    while sum(alpha) > 4:
        j = alpha.index(max(alpha))
        alpha = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
    return tags, exps, jets, n_z, k, alpha


def _rel_close(field, got, ref, scale):
    return field.abs(got - ref) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(_factorization_case())
def test_engine_factorization_matches_n_variable_calculus(case):
    """The per-block engine equals the n-variable reference: exactly on
    the rational field, within 1e-12 relative on doubles."""
    tags, exps, jets, n_z, k, alpha = case
    for field in (FR, FF):
        blocks = SpectrumBlocks(field, tags,
                                [field.from_rational(re, im)
                                 for re, im in exps])
        mu_jets = [zseries(field, n_z, {m: field.from_rational(*c)
                                        for m, c in jet.items()})
                   for jet in jets]
        engine = TraceEngine(blocks, mu_jets, n_z)
        expr = hc.apply_derivatives(hc.csch_product(field, len(tags), k),
                                    alpha)
        ref_series = hc.eval_series_in_z(expr, blocks.exp_half, mu_jets, n_z)
        ref_value = hc.eval_csch(expr, exp_half=blocks.exp_half)
        got_series = engine.zseries(k, alpha)
        got_value = engine.value_at_mu0(k, alpha)
        if field.exact:
            assert got_series == ref_series
            assert got_value == ref_value
            continue
        assert _rel_close(field, got_value, ref_value, field.abs(ref_value))
        scale = max(field.abs(c) for c in ref_series.terms.values())
        keys = set(got_series.terms) | set(ref_series.terms)
        assert all(_rel_close(field, got_series.terms.get(key, 0),
                              ref_series.terms.get(key, 0), scale)
                   for key in keys)


def test_trace_power_rejects_engine_of_another_state():
    """An engine serves its own mu-jet state at any z-order up to its own,
    giving the full series truncated there; it refuses another state and a
    higher z-order."""
    _F, b, _a = rt1()
    engine = TraceEngine(b.blocks, [zseries(FR, 3)], 3)
    with pytest.raises(SchemaError, match="trace engine"):
        trace_power(b, 1, (3, 3), engine=engine)
    own = TraceEngine(b.blocks, b.mu_jets, 3)
    full = trace_power(b, 1, (3, 3), engine=own).coeffs
    low = trace_power(b, 1, (2, 3), engine=own).coeffs
    assert low.orders == Orders(0, 2, 3)
    assert low == full.truncate(Orders(0, 2, 3))
    with pytest.raises(SchemaError):
        trace_power(b, 1, (4, 3), engine=own)
    with pytest.raises(SchemaError, match="trace engine"):
        trace_power(b, 1, (3, 3), engine=TraceEngine(b.blocks, b.mu_jets, 2))


@st.composite
def _truncation_case(draw):
    """An exact normal form over an n <= 2 block mix with z-dependent jets
    and a random F at orders (n_h + 1, n_z, n_h), and a power k."""
    tags, exps = draw(_block_mix().filter(lambda mix: len(mix[0]) <= 2))
    n = len(tags)
    n_z, n_h = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    coeff = st.fractions(-3, 3, max_denominator=5)
    jets = [{m: (draw(coeff), draw(coeff)) for m in range(1, n_z + 1)
             if draw(st.booleans())} for _ in tags]
    keys = [(alpha, m, l)
            for alpha in itertools.product(range(n_h + 2), repeat=n)
            for m in range(n_z + 1) for l in range(n_h + 1)
            if 1 <= l + sum(alpha) <= n_h + 1 and (l or sum(alpha) >= 2)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=6, unique=True)
                  if keys else st.just([]))
    F_terms = {key: (draw(coeff), draw(coeff)) for key in chosen}
    return tags, exps, jets, F_terms, n_z, n_h, draw(st.integers(1, 3))


@settings(max_examples=30, deadline=None)
@given(_truncation_case())
def test_trace_power_at_lower_orders_is_the_truncation(case):
    """For every (m, j) up to (n_z, n_h), trace_power at (m, j) through
    the full-order engine equals the full series truncated to (m, j)."""
    tags, exps, jets, F_terms, n_z, n_h, k = case
    blocks = SpectrumBlocks(FR, tags, [FR.from_rational(re, im)
                                       for re, im in exps])
    mu_jets = [zseries(FR, n_z, {m: FR.from_rational(*c)
                                 for m, c in jet.items()})
               for jet in jets]
    F = MultiSeries(FR, len(tags), Orders(n_h + 1, n_z, n_h),
                    {key: FR.from_rational(*c) for key, c in F_terms.items()})
    bnf = QuantumBNF(blocks, mu_jets, F)
    engine = TraceEngine(blocks, mu_jets, n_z)
    full = trace_power(bnf, k, (n_z, n_h), engine=engine)
    for m in range(n_z + 1):
        for j in range(n_h + 1):
            low = trace_power(bnf, k, (m, j), engine=engine)
            assert low.phase == full.phase
            assert low.coeffs == full.coeffs.truncate(Orders(0, m, j))


@st.composite
def _stage_case(draw):
    """Rational data of a normal form over an n <= 3 block mix: z-jets, a
    random F at orders (n_h + 1, n_z, n_h) with z-dependent f0 terms
    drawn on their own, and a power k."""
    tags, exps = draw(_block_mix())
    n = len(tags)
    n_z, n_h = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    coeff = st.fractions(-3, 3, max_denominator=5)
    jets = [{m: (draw(coeff), draw(coeff)) for m in range(1, n_z + 1)
             if draw(st.booleans())} for _ in tags]
    zero = (0,) * n
    keys = [(alpha, m, l)
            for alpha in itertools.product(range(n_h + 2), repeat=n)
            for m in range(n_z + 1) for l in range(n_h + 1)
            if 1 <= l + sum(alpha) <= n_h + 1 and (l or sum(alpha) >= 2)]
    f0_keys = [(zero, m, 1) for m in range(n_z + 1) if n_h >= 1]
    chosen = set()
    for pool, size in ((keys, 5), (f0_keys, 2)):
        if pool:
            chosen.update(draw(st.lists(st.sampled_from(pool),
                                        max_size=size)))
    F_terms = {key: (draw(coeff), draw(coeff)) for key in sorted(chosen)}
    return tags, exps, jets, F_terms, n_z, n_h, draw(st.integers(1, 4))


@settings(max_examples=25, deadline=None)
@given(_stage_case())
def test_trace_coefficient_is_the_trace_power_coefficient(case):
    """trace_coefficient(bnf, k, m, j) is the z^m h^j coefficient of
    trace_power at (m, j) for every (m, j) up to the orders: exactly on
    the rational field, within 1e-12 relative on doubles."""
    tags, exps, jets, F_terms, n_z, n_h, k = case
    for field in (FR, FF):
        q = field.from_rational
        blocks = SpectrumBlocks(field, tags, [q(*e) for e in exps])
        mu_jets = [zseries(field, n_z, {m: q(*c) for m, c in jet.items()})
                   for jet in jets]
        F = MultiSeries(field, len(tags), Orders(n_h + 1, n_z, n_h),
                        {key: q(*c) for key, c in F_terms.items()})
        bnf = QuantumBNF(blocks, mu_jets, F)
        engine = TraceEngine(blocks, mu_jets, n_z)
        for m in range(n_z + 1):
            for j in range(n_h + 1):
                series = trace_power(bnf, k, (m, j), engine=engine).coeffs
                want = series.get((), m, j)
                got = trace_coefficient(bnf, k, m, j, engine=engine)
                if field.exact:
                    assert got == want
                    continue
                scale = max(field.abs(c) for c in series.terms.values())
                assert field.abs(got - want) <= 1e-12 * scale


def test_trace_coefficient_checks_like_trace_power():
    _F, b, _a = rt1()
    with pytest.raises(SchemaError, match="trace engine"):
        trace_coefficient(b, 1, 2, 2,
                          engine=TraceEngine(b.blocks, [zseries(FR, 3)], 3))
    with pytest.raises(SchemaError):
        trace_coefficient(b, 1, 4, 2)
    with pytest.raises(SchemaError):
        trace_coefficient(b, 0, 1, 1)
    assert trace_coefficient(b, 3, 2, 2) == \
        trace_power(b, 3, (3, 3)).coeffs.get((), 2, 2)


def _per_k_trace_power(bnf, k, orders, engine):
    """trace_power with its F side rebuilt for this k: the operator
    exponential and the z-dependent phase come from exp_series of the
    k-scaled series, as before the F side was shared between powers."""
    f = bnf.field
    n_z, n_h = orders
    fs = bnf.f_series(n_h, n_z)
    f0 = MultiSeries(f, 0, Orders(0, n_z, n_h),
                     {((), m, 0): c for (_a, m, l), c in fs.terms.items()
                      if l == 0})
    phase = f0.constant_term()
    f0plus = f0 - MultiSeries.scalar(f, 0, f0.orders, phase)
    minus_ik = -(f.i * f.from_int(k))
    X = MultiSeries(f, bnf.n, fs.orders,
                    {key: c for key, c in fs.terms.items() if key[2] >= 1})
    op = X.scale(minus_ik).exp_series()
    pz = f0plus.scale(minus_ik).exp_series()
    ik_inv = f.i * f.inv(f.from_int(k))
    out = {}
    for (alpha, m, l), c in op.terms.items():
        factor = c * ik_inv ** sum(alpha) if sum(alpha) else c
        for ((), m2, _), ec in engine.zseries(k, alpha).terms.items():
            if m + m2 <= n_z:
                key = ((), m + m2, l)
                out[key] = out[key] + factor * ec if key in out \
                    else factor * ec
    return phase, MultiSeries(f, 0, Orders(0, n_z, n_h), out) * pz


def _with_z_dependent_f0(b, c1, c2):
    """``b`` with f0(z) = f0(0) + c1 z + c2 z^2 (h^1 terms, alpha = 0)."""
    terms = dict(b.F.terms)
    zero = (0,) * b.n
    terms[(zero, 1, 1)] = c1
    terms[(zero, 2, 1)] = c2
    F = MultiSeries(b.field, b.n, b.F.orders, terms)
    return QuantumBNF(b.blocks, b.mu_jets, F)


def test_trace_power_matches_per_k_exp_series_exact():
    for b in _rational_fixtures():
        b = _with_z_dependent_f0(b, FR.from_rational("-3/4"),
                                 FR.from_rational("2/5"))
        engine = TraceEngine(b.blocks, b.mu_jets, 3)
        for k in range(1, 9):
            phase, coeffs = _per_k_trace_power(b, k, (3, 3), engine)
            got = trace_power(b, k, (3, 3), engine=engine)
            assert got.phase == phase
            assert got.coeffs.terms == coeffs.terms


def test_trace_power_matches_per_k_exp_series_float():
    _F, b = mixed_float_fixture(31, with_jets=True)
    b = _with_z_dependent_f0(b, 0.3 - 0.1j, -0.2 + 0j)
    engine = TraceEngine(b.blocks, b.mu_jets, 2)
    for k in range(1, 9):
        phase, coeffs = _per_k_trace_power(b, k, (2, 2), engine)
        got = trace_power(b, k, (2, 2), engine=engine)
        assert FF.close(got.phase, phase, 1e-13)
        assert got.coeffs.close_to(coeffs, 1e-13)


def test_make_trace_data_builds_the_f_side_once(monkeypatch):
    builds = []
    build = QuantumBNF._build_trace_side

    def counting(self, n_z, n_h):
        builds.append((n_z, n_h))
        return build(self, n_z, n_h)

    def no_exp(self):
        raise AssertionError("trace_power must not call exp_series")

    monkeypatch.setattr(QuantumBNF, "_build_trace_side", counting)
    monkeypatch.setattr(MultiSeries, "exp_series", no_exp)
    for b in _rational_fixtures():
        builds.clear()
        td = make_trace_data(b, zseries(FR, 3, {1: FR.one}), {}, 8, (3, 3))
        assert builds == [(3, 3)]
        assert sorted(td.coefficients) == list(range(1, 9))
        trace_power(b, 2, (2, 3))
        assert builds == [(3, 3), (2, 3)]
