import cmath
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import mixed_float_fixture, rt1, well_separated_mus

from bnftrace.blocks import (COMPLEX_HYPERBOLIC, ELLIPTIC, REAL_HYPERBOLIC,
                             SpectrumBlocks, nonresonance_witness)
from bnftrace.errors import (ConvergenceError, FieldError, MathError,
                             RankDeficiencyError)
from bnftrace.fields import FloatField, RationalField
from bnftrace import hypcalc as hc
from bnftrace import jsonio, linalg
from bnftrace import recover as recover_module
from bnftrace.qbnf import QuantumBNF, TraceData, TraceEngine, make_trace_data
from bnftrace.linalg import poly_roots
from bnftrace.recover import (ExponentialSum, _cube_from_roots, _refit,
                              recover_frequencies, recover_polynomial,
                              recover_qbnf)
from bnftrace.series import MultiSeries, Orders, zseries

FR = RationalField()
FF = FloatField()


def _a0_from_sinh(field, mus, phi, K):
    """a_{0k}(0) = e^{-ik phi} prod_j 1/(2 sinh(k mu_j/2)) as floats."""
    out = {}
    for k in range(1, K + 1):
        v = cmath.exp(-1j * k * phi)
        for m in mus:
            v /= 2 * cmath.sinh(k * m / 2)
        out[k] = v
    return out


def test_recover_frequencies_exact_geometric():
    # s_k = 2^k - 2^{-k}: roots {2, 1/2}, mu = 2 ln 2, phi = 0, all exact
    a0 = {k: FR.inv(FR.from_int(2) ** k - FR.inv(FR.from_int(2)) ** k)
          for k in range(1, 9)}
    fr = recover_frequencies(FR, a0, 1)
    assert fr.blocks.tags == (REAL_HYPERBOLIC,)
    assert fr.blocks.exp_half[0] == FR.from_int(2)
    assert fr.phi == FR.zero
    assert fr.exp_sum.residual() == 0


def test_recover_frequencies_pure_phase_shift():
    phi = math.pi / 5
    a0 = _a0_from_sinh(FF, [2 * math.log(2)], phi, 8)
    fr = recover_frequencies(FF, a0, 1)
    assert abs(FF.to_complex(fr.blocks.exp_half[0]) - 2) < 1e-10
    assert abs(fr.phi_value - phi) < 1e-10


def test_recover_frequencies_phase_on_rational_raises():
    # an honest nonzero phase cannot be represented exactly
    a0 = {}
    for k in range(1, 9):
        s = FR.i ** (k % 4) * (FR.from_int(2) ** k - FR.inv(FR.from_int(2)) ** k)
        a0[k] = FR.inv(s)
    with pytest.raises(FieldError):
        recover_frequencies(FR, a0, 1)


def test_recover_frequencies_zero_samples():
    a0 = {k: FF.zero for k in range(1, 9)}
    with pytest.raises(RankDeficiencyError):
        recover_frequencies(FF, a0, 1)


def test_recover_frequencies_needs_enough_samples():
    a0 = _a0_from_sinh(FF, [1.0], 0.0, 5)
    with pytest.raises(RankDeficiencyError) as exc:
        recover_frequencies(FF, a0, 1)
    assert "1..6" in str(exc.value)


def test_recover_frequencies_mixed_classes():
    mus = [math.log(3), 1j]
    a0 = _a0_from_sinh(FF, mus, 0.35, 12)
    fr = recover_frequencies(FF, a0, 2)
    assert fr.blocks.tags == (REAL_HYPERBOLIC, ELLIPTIC)
    got = fr.blocks.mu()
    assert abs(got[0] - math.log(3)) < 1e-9
    assert abs(got[1] - 1j) < 1e-9
    assert abs(fr.phi_value - 0.35) < 1e-9


def test_recover_frequencies_ch_pair():
    mus = [0.9 + 1.1j, 0.9 - 1.1j]
    a0 = _a0_from_sinh(FF, mus, -0.2, 12)
    fr = recover_frequencies(FF, a0, 2)
    assert fr.blocks.tags == (COMPLEX_HYPERBOLIC, COMPLEX_HYPERBOLIC)
    got = fr.blocks.mu()
    assert abs(got[0] - (0.9 + 1.1j)) < 1e-9
    assert abs(got[1] - (0.9 - 1.1j)) < 1e-9
    assert abs(cmath.exp(1j * fr.phi_value) - cmath.exp(-0.2j)) < 1e-9


def test_recover_frequencies_permutation_invariant():
    mus = [math.log(2), math.log(5)]
    a0a = _a0_from_sinh(FF, mus, 0.1, 12)
    a0b = _a0_from_sinh(FF, list(reversed(mus)), 0.1, 12)
    fa = recover_frequencies(FF, a0a, 2)
    fb = recover_frequencies(FF, a0b, 2)
    ea = [FF.to_complex(x) for x in fa.blocks.exp_half]
    eb = [FF.to_complex(x) for x in fb.blocks.exp_half]
    assert all(abs(x - y) < 1e-10 for x, y in zip(ea, eb))


def test_exponential_sum_model_validation():
    a0 = _a0_from_sinh(FF, [1.0], 0.0, 8)
    a0[5] *= 1.5  # corrupt one sample
    with pytest.raises(RankDeficiencyError):
        recover_frequencies(FF, a0, 1)


def test_exponential_sum_residual_fails_on_nan():
    model = ExponentialSum(FF, {1: 1, 2: 2}, float("nan"), [2])
    assert model.residual() == math.inf


_RH, _EL, _CH = REAL_HYPERBOLIC, ELLIPTIC, COMPLEX_HYPERBOLIC
_MIXES = {
    "rh": [_RH], "el": [_EL], "rh+el": [_RH, _EL], "rh+rh": [_RH, _RH],
    "el+el": [_EL, _EL], "ch": [_CH], "rh+rh+el": [_RH, _RH, _EL],
    "ch+rh": [_CH, _RH], "ch+el": [_CH, _EL], "rh+el+el": [_RH, _EL, _EL],
    "el+el+el": [_EL, _EL, _EL], "rh+rh+rh": [_RH, _RH, _RH],
}
# on the other three mixes the weakest roots can drown in double-precision
# noise, and a refusal is an acceptable outcome
_ALWAYS_RECOVERED = {"rh", "el", "rh+el", "rh+rh", "el+el", "ch", "rh+rh+el",
                     "rh+el+el", "el+el+el"}


@pytest.mark.parametrize("mix", sorted(_MIXES))
def test_stage0_recovers_or_refuses_on_block_mixes(mix):
    """Five seeded well-separated inputs per mix, K = 2^{n+1} + 2: each one
    recovers e^mu (best order) and e^{i phi} within 1e-8 or raises a
    MathError, and the mixes in _ALWAYS_RECOVERED never refuse."""
    rng = random.Random("stage0/" + mix)
    for _ in range(5):
        mus = well_separated_mus(_MIXES[mix], rng)
        assert mus is not None
        phi = rng.uniform(-math.pi, math.pi)
        n = len(mus)
        a0 = _a0_from_sinh(FF, mus, phi, 2 ** (n + 1) + 2)
        try:
            fr = recover_frequencies(FF, a0, n)
        except MathError:
            assert mix not in _ALWAYS_RECOVERED, mus
            continue
        got = [cmath.exp(m) for m in fr.blocks.mu()]
        want = [cmath.exp(m) for m in mus]
        err = min(max(abs(g - w) / max(1.0, abs(w)) for g, w in zip(p, want))
                  for p in itertools.permutations(got))
        assert err <= 1e-8, mus
        assert abs(cmath.exp(1j * fr.phi_value) - cmath.exp(1j * phi)) <= 1e-8


@pytest.mark.parametrize("mus", [[0.05j], [3.1j], [0.05], [0.5, 0.1j]])
def test_stage0_near_the_normalization_boundaries(mus):
    """Generators near 1 (small real mu) or near +-1 on the unit circle are
    still classified: the normalization decisions use a band finer than
    the 0.1 of the ratio classes."""
    n = len(mus)
    a0 = _a0_from_sinh(FF, mus, 0.3, 2 ** (n + 1) + 2)
    fr = recover_frequencies(FF, a0, n)
    for got, want in zip(sorted(fr.blocks.mu(), key=abs), sorted(mus, key=abs)):
        assert abs(got - want) <= 1e-8
    assert abs(fr.phi_value - 0.3) <= 1e-8


def test_cube_fit_names_the_edge_classes_when_ambiguous():
    # two trusted roots for n = 2 give one edge, so one class: E_2^2 = 9
    roots = [6 + 0j, 2 / 3 + 0j]
    with pytest.raises(RankDeficiencyError) as exc:
        _cube_from_roots(FF, roots, [1 + 0j, -1 + 0j], 2)
    msg = str(exc.value)
    assert "2 generators" in msg and "2 trusted" in msg
    assert "9+0j x1" in msg


def test_cube_fit_drops_roots_with_untrusted_weights():
    # c = 1, E = 2: roots 2 (+) and 1/2 (-), plus a spurious root of weight 0.1
    c, tags, exp_half = _cube_from_roots(
        FF, [2 + 0j, 0.5 + 0j, 7 + 0j], [1 + 0j, -1 + 0j, 0.1 + 0j], 1)
    assert c == 1
    assert tags == [REAL_HYPERBOLIC]
    assert exp_half == [2]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_refit_is_rank_deficiency():
    for F in (FF, FloatField(128)):
        samples = [F.one * (2 ** k - 2.0 ** -k) for k in range(1, 7)]
        with pytest.raises(RankDeficiencyError):
            _refit(F, samples, F.one * complex("inf"), [REAL_HYPERBOLIC],
                   [F.from_int(2)])


def test_extended_stage0_is_refit_at_its_own_precision():
    """rh+rh+el at 128 bits: the refit runs in the field's own precision,
    so every E comes back far beyond double accuracy."""
    F = FloatField(128)
    mp = F._mp
    mus = [mp.mpf("0.7"), mp.mpf("1.3"), mp.mpc(0, 1)]
    a0 = {k: 1 / math.prod((2 * mp.sinh(k * m / 2) for m in mus),
                           start=F.one)
          for k in range(1, 33)}
    got = recover_frequencies(F, a0, 3).blocks.exp_half
    for m in mus:
        assert min(abs(E - mp.exp(m / 2)) for E in got) <= 1e-30


def test_mpmath_root_nonconvergence_is_convergence_error():
    # (z - 1)^3: a triple root stalls polyroots within its step cap
    mpf = FloatField(precision=240)
    tail = [mpf.from_int(-1), mpf.from_int(3), mpf.from_int(-3)]
    with pytest.raises(ConvergenceError) as exc:
        poly_roots(mpf, tail)
    assert "degree-3" in str(exc.value) and "maxsteps=200" in str(exc.value)


def test_wide_real_hyperbolic_triple_recovers_or_refuses():
    """Three real hyperbolic exponents whose weakest roots drown in double
    precision: stage 0 goes to its 240-bit retry, where mpmath's root
    finder could give up and the cube fit can still tie at rank n (with
    numpy 2.4 it does); any refusal must be a MathError, not mpmath's own
    exception."""
    mus = [0.7024822914919275, 2.1161459174609334, 1.0221501252364096]
    phi = 1.420136041895475
    a0 = {k: cmath.exp(-1j * k * phi)
          / math.prod(2 * cmath.sinh(k * m / 2) for m in mus)
          for k in range(1, 19)}
    try:
        fr = recover_frequencies(FF, a0, 3)
    except MathError:
        return
    got = sorted(cmath.exp(m).real for m in fr.blocks.mu())
    want = sorted(math.exp(m) for m in mus)
    assert all(abs(g - w) <= 1e-8 * w for g, w in zip(got, want))
    assert abs(cmath.exp(1j * fr.phi_value) - cmath.exp(1j * phi)) <= 1e-8


def _exact_round_trip(tagged, jet_coeffs, F_terms):
    """Forward then recover an exact normal form with the blocks
    ``tagged`` (tag, E), each with the z-coefficient of its mu-jet, and F
    at orders (2, 1, 1), over K = 2^(n+1) + 2 powers: the recovered form
    must equal the input, blocks, jets and F."""
    n = len(tagged)
    blocks = SpectrumBlocks(FR, [t for t, _ in tagged], [E for _, E in tagged])
    perm = blocks.canonical_order()
    blocks = blocks.reordered(perm)
    jets = [zseries(FR, 1, {1: jet_coeffs[p]}) for p in perm]
    bnf = QuantumBNF(blocks, jets, MultiSeries(FR, n, Orders(2, 1, 1),
                                               F_terms))
    td = make_trace_data(bnf, zseries(FR, 1, {1: FR.one}), {},
                         2 ** (n + 1) + 2, (1, 1))
    rep = recover_qbnf(td, n)
    assert not rep.failed and rep.max_residual == 0
    got = rep.recovered
    assert got.blocks.tags == blocks.tags
    assert list(got.blocks.exp_half) == list(blocks.exp_half)
    assert got.mu_jets == bnf.mu_jets
    assert got.F == bnf.F


def _q(re, im=0):
    return FR.from_rational(Fraction(re), Fraction(im))


_EXACT_MIXES = {
    "rh+rh": [(_RH, _q("3/2")), (_RH, _q(2))],
    "rh+el": [(_RH, _q(3)), (_EL, _q("3/5", "4/5"))],
    "ch": [(_CH, _q(2, 1)), (_CH, _q(2, -1))],
    "el+el": [(_EL, _q("3/5", "4/5")), (_EL, _q("12/13", "5/13"))],
    "rh+rh+rh": [(_RH, _q("3/2")), (_RH, _q(2)), (_RH, _q(5))],
    "el+el+el": [(_EL, _q("3/5", "4/5")), (_EL, _q("12/13", "5/13")),
                 (_EL, _q("15/17", "8/17"))],
    "ch+rh": [(_CH, _q(2, 1)), (_CH, _q(2, -1)), (_RH, _q(3))],
    "rh+rh+el": [(_RH, _q("3/2")), (_RH, _q(2)), (_EL, _q("5/13", "12/13"))],
}


@pytest.mark.parametrize("mix", sorted(_EXACT_MIXES))
def test_exact_round_trip_of_block_mixes(mix):
    """Exact stage 0 beyond n = 1: the fit runs in floating point and is
    rationalized, and only a fit that meets every sample exactly is kept,
    so each mix comes back bit-exactly."""
    tagged = _EXACT_MIXES[mix]
    n = len(tagged)
    jets = [_q("1/3") if t == _RH else _q(0, "-1/4") if t == _EL
            else _q("1/5", "1/7") for t, _E in tagged]
    if mix in ("ch", "ch+rh"):
        jets[1] = FR.conj(jets[0])
    first = (1,) + (0,) * (n - 1)
    F = {(tuple(2 * a for a in first), 0, 0): _q("1/4"),
         ((0,) * n, 0, 1): _q("1/5"), (first, 1, 1): _q("-2/7")}
    _exact_round_trip(tagged, jets, F)


_rational = st.fractions(min_value=-3, max_value=3, max_denominator=9)


@st.composite
def _exact_normal_forms(draw):
    """Rational blocks of a mix of n <= 3 (rh: E in Q, E > 1; elliptic: a
    Pythagorean E; ch: a conjugate pair in Q(i)), nonresonant and with
    their 2^n half-sums of exponents 0.3 apart, as in the stage-0 sweep,
    with rational jets and a rational F of every recoverable term at
    orders (2, 1, 1)."""
    tagged, jets = [], []
    for kind in _MIXES[draw(st.sampled_from(sorted(_MIXES)))]:
        if kind == _RH:
            tagged.append((_RH, FR.from_rational(draw(st.fractions(
                min_value=Fraction(6, 5), max_value=4, max_denominator=7)))))
            jets.append(FR.from_rational(draw(_rational)))
        elif kind == _EL:
            m = draw(st.integers(2, 7))
            k = draw(st.integers(1, m - 1))
            tagged.append((_EL, _q(Fraction(m * m - k * k, m * m + k * k),
                                   Fraction(2 * m * k, m * m + k * k))))
            jets.append(FR.from_rational(0, draw(_rational)))
        else:
            E = _q(draw(st.fractions(1, 3, max_denominator=4)),
                   draw(st.fractions(Fraction(1, 2), 3, max_denominator=4)))
            assume(abs(complex(E)) > 1.2 and cmath.phase(complex(E)) < 1.3)
            tagged += [(_CH, E), (_CH, FR.conj(E))]
            jet = FR.from_rational(draw(_rational), draw(_rational))
            jets += [jet, FR.conj(jet)]
    n = len(tagged)
    half_mus = [cmath.log(complex(E)) for _t, E in tagged]
    logs = [sum(e * h for e, h in zip(eps, half_mus))
            for eps in itertools.product((1, -1), repeat=n)]
    assume(all(abs(a - b) >= 0.3 for a, b in itertools.combinations(logs, 2)))
    # such as a ch pair of E = 1 + i, whose mu - conj(mu) is pi i
    assume(nonresonance_witness([2 * h for h in half_mus], 10) is None)
    F = {}
    for alpha in itertools.product(range(3), repeat=n):
        for m in range(2):
            for l in range(2):
                if (sum(alpha) == 2 if l == 0 else sum(alpha) <= 1):
                    F[(alpha, m, l)] = FR.from_rational(draw(_rational))
    return tagged, jets, F


@settings(max_examples=12, deadline=None)
@given(_exact_normal_forms())
def test_exact_round_trip_property(case):
    """Random exact normal forms over the n <= 3 block mixes round-trip
    bit-exactly."""
    _exact_round_trip(*case)


def test_exact_fit_that_does_not_verify_refuses():
    """rh+rh with E_2 = 2 + 10^-40, a denominator above the bound of either
    fit: no rationalized fit meets the samples, and the refusal names the
    last fit and its misfit rather than returning it."""
    Es = [_q("3/2"), _q(Fraction(2 * 10 ** 40 + 1, 10 ** 40))]
    a0 = {k: FR.inv(math.prod((E ** k - FR.inv(E) ** k for E in Es),
                              start=FR.one))
          for k in range(1, 11)}
    with pytest.raises(RankDeficiencyError) as exc:
        recover_frequencies(FR, a0, 2)
    msg = str(exc.value)
    assert "240-bit fit c = " in msg and "misses the samples by" in msg


def _engine_at(E):
    """A trace engine at z-order 0 for one real hyperbolic block."""
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [E])
    return TraceEngine(blocks, [zseries(FR, 0)], 0)


def test_recover_polynomial_linear():
    vals = {}
    for k in (1, 2, 3):
        d = hc.eval_csch(
            hc.apply_derivatives(hc.csch_product(FR, 1, k), (1,)),
            exp_half=[FR.from_int(2)])
        vals[k] = (FR.i * FR.inv(FR.from_int(k))) * d
    assert vals[1] == FR.i.conjugate() * FR.from_rational("5/9")  # -5i/9
    sol, cond = recover_polynomial(_engine_at(FR.from_int(2)), vals,
                                   [(0,), (1,)])
    assert sol[(1,)] == FR.one
    assert sol[(0,)] == FR.zero


def test_double_solve_reads_cond_off_lstsq(monkeypatch):
    """The double path takes one SVD, inside lstsq; the snapshot of the
    raw matrix for the condition number serves only the exact path."""
    def no_snapshot(field, rows):
        raise AssertionError("separate SVD on the double path")

    monkeypatch.setattr(linalg, "_cond_of", no_snapshot)
    x, cond, res = linalg.solve_lstsq(FF, [[1, 0], [0, 2], [1, 1]], [1, 4, 3])
    assert max(abs(a - b) for a, b in zip(x, [1, 2])) < 1e-14
    assert 1 <= cond < 10 and res < 1e-14


def test_exact_condition_number_beyond_the_double_range():
    """An exact matrix with entries near 2^2000 has no double snapshot; it
    is scaled by one power of two first, which leaves the condition number
    unchanged, and the exact solve goes through."""
    rows = [[FR.from_rational("1/3"), FR.from_int(2)],
            [FR.from_rational(5, "-1/7"), FR.from_int(1)],
            [FR.from_int(1), FR.from_rational("9/11")]]
    big = FR.from_int(2 ** 2000)
    cond = linalg._cond_of(FR, rows)
    assert 1 < cond < 100
    big_rows = [[x * big for x in row] for row in rows]
    assert linalg._cond_of(FR, big_rows) == cond
    rhs = [r[0] + FR.from_int(2) * r[1] for r in big_rows]
    x, got, _ = linalg.solve_lstsq(FR, big_rows, rhs)
    assert x == [FR.one, FR.from_int(2)]
    assert got == cond
    # one huge row: the others shrink, to zero in doubles if need be
    assert linalg._cond_of(FR, [big_rows[0], rows[1], rows[2]]) > 1e100


F128 = FloatField(precision=128)
_unit = st.complex_numbers(max_magnitude=1, allow_nan=False,
                           allow_infinity=False)


@st.composite
def _well_conditioned_systems(draw):
    """A consistent m x n complex system, n <= 6, m <= n + 4: a strictly
    diagonally dominant top block with further rows below, its rows
    scaled over twelve decades and its columns over two."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(n, n + 4))
    rows = []
    for i in range(m):
        row = [draw(_unit) / n for _ in range(n)]
        if i < n:
            row[i] += 2
        r = 10.0 ** draw(st.integers(-6, 6))
        rows.append([v * r for v in row])
    for j in range(n):
        c = 10.0 ** draw(st.integers(-1, 1))
        for row in rows:
            row[j] *= c
    x = [draw(_unit) for _ in range(n)]
    return rows, [sum(a * v for a, v in zip(row, x)) for row in rows]


@settings(max_examples=60, deadline=None)
@given(_well_conditioned_systems())
# a row whose scale is subnormal: dividing by it overflowed to nan
@example(system=([[2 + 0j], [2.225073858507e-311 + 0j]], [0j, 0j]))
def test_double_and_extended_solves_agree(system):
    rows, rhs = system
    x64, c64, _ = linalg.solve_lstsq(FF, rows, rhs)
    x128, c128, _ = linalg.solve_lstsq(
        F128, [[F128.one * v for v in row] for row in rows],
        [F128.one * v for v in rhs])
    size = max(abs(v) for v in x128)
    assert max(abs(a - b) for a, b in zip(x64, x128)) <= 1e-10 * size
    assert abs(c64 - c128) <= 1e-9 * c128


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_double_solve_with_a_nan_entry_is_rank_deficiency():
    with pytest.raises(RankDeficiencyError, match="recovery stage"):
        linalg.solve_lstsq(FF, [[1, float("nan")], [0, 1], [1, 1]],
                           [1, 2, 3])


@pytest.mark.parametrize("rows, rhs", [
    ([[1, 2], [2, 4], [3, 6]], [1, 2, 3]),  # rank 1, consistent
    ([[1, 2], [2, 4]], [1, 2]),             # square and singular
    ([[1, 0], [2, 0], [3, 0]], [1, 2, 3]),  # a zero column
    ([[1, 0], [0, 1], [1, 1]], [1, 1, 5]),  # inconsistent
])
def test_extended_solve_refuses_with_rank_deficiency(rows, rhs):
    with pytest.raises(RankDeficiencyError):
        linalg.solve_lstsq(F128, [[F128.from_int(v) for v in r] for r in rows],
                           [F128.from_int(v) for v in rhs])


@st.composite
def _systems_with_solutions(draw):
    """Rows of a well-conditioned system and three solution vectors."""
    rows, _rhs = draw(_well_conditioned_systems())
    xs = [[draw(_unit) for _ in rows[0]] for _ in range(3)]
    return rows, xs


_TO_FIELD = {
    "rational": (FR, lambda v: FR.from_rational(v.real, v.imag)),
    "double": (FF, lambda v: FF.one * v),
    "128-bit": (F128, lambda v: F128.one * v),
}


@pytest.mark.parametrize("name", sorted(_TO_FIELD))
@settings(max_examples=20, deadline=None)
@given(system=_systems_with_solutions())
# a zero pivot candidate: the elimination swaps rows
@example(system=([[0j, 1 + 0j], [1 + 0j, 0j], [1 + 0j, 1 + 0j]],
                 [[1 + 0j, 2 + 0j], [0.5j, -1 + 0j], [0j, 0j]]))
# a zero row below the top block
@example(system=([[2 + 0j], [0j]], [[1 + 0j], [0.5j], [0j]]))
def test_one_factorization_solves_each_rhs_like_a_fresh_solve(name, system):
    """Right-hand sides solved in turn with one factorization give, bit for
    bit, what a fresh solve_lstsq gives; an inconsistent one after them is
    still refused, and the refusal leaves the factorization as it was."""
    field, conv = _TO_FIELD[name]
    raw_rows, xs = system
    rows = [[conv(v) for v in row] for row in raw_rows]
    factored = linalg.factor_lstsq(field, rows)
    rhs_list = []
    for x in xs:
        x = [conv(v) for v in x]
        rhs = []
        for row in rows:
            total = field.zero
            for a, v in zip(row, x):
                total = total + a * v
            rhs.append(total)
        rhs_list.append(rhs)
        got = factored.solve(rhs)
        assert got == linalg.solve_lstsq(field, rows, rhs)
        # the top block fixes x: exactly on the rational field
        tol = 0 if field.exact else 1e-9
        assert all(field.abs(a - v) <= tol for a, v in zip(got[0], x))
    n = len(rows[0])
    if len(rows) > n:
        # the top n x n block fixes x, so a change in a row below it is
        # inconsistent; scaled to the row, it is one unit after
        # equilibration
        bad = list(rhs_list[-1])
        # (by 1 when that row is zero, where its scale is 1)
        bad[n] = bad[n] + conv(max(abs(v) for v in raw_rows[n]) or 1)
        for solve in (factored.solve,
                      lambda b: linalg.solve_lstsq(field, rows, b)):
            with pytest.raises(RankDeficiencyError,
                               match="inconsistent linear system"):
                solve(bad)
    assert factored.solve(rhs_list[0]) == linalg.solve_lstsq(field, rows,
                                                             rhs_list[0])


@pytest.mark.parametrize("precision", [128, 240])
def test_extended_recovery_reports_the_double_condition_numbers(precision):
    F, bnf = mixed_float_fixture(7)
    td = make_trace_data(bnf, zseries(F, 2, {1: F.one}), {}, 12, (2, 2))
    want = recover_qbnf(td, 2).conditioning
    ext = jsonio.qbnf_from_json(jsonio.qbnf_to_json(bnf), precision)
    G = ext.field
    td = make_trace_data(ext, zseries(G, 2, {1: G.one}), {}, 12, (2, 2))
    rep = recover_qbnf(td, 2)
    assert not rep.failed
    assert rep.conditioning.keys() == want.keys()
    for stage, cond in want.items():
        assert abs(rep.conditioning[stage] - cond) <= 1e-6 * cond, stage


def test_recover_polynomial_zero():
    vals = {k: FR.zero for k in (1, 2, 3)}
    sol, _ = recover_polynomial(_engine_at(FR.from_int(2)), vals,
                                [(0,), (1,)])
    assert all(v == FR.zero for v in sol.values())


def test_recover_polynomial_quadratic_exact():
    coeffs = {(0,): FR.from_rational("2/3"), (1,): FR.from_rational("-1/5"),
              (2,): FR.from_rational("7/4")}
    vals = {}
    for k in (1, 2, 3, 4):
        total = FR.zero
        for alpha, c in coeffs.items():
            d = hc.eval_csch(
                hc.apply_derivatives(hc.csch_product(FR, 1, k), alpha),
                exp_half=[FR.from_int(2)])
            total = total + c * (FR.i * FR.inv(FR.from_int(k))) ** sum(alpha) * d
        vals[k] = total
    sol, _ = recover_polynomial(_engine_at(FR.from_int(2)), vals,
                                [(0,), (1,), (2,)])
    assert sol == coeffs


def test_recover_polynomial_needs_enough_powers():
    vals = {1: FR.one, 2: FR.one}
    with pytest.raises(RankDeficiencyError):
        recover_polynomial(_engine_at(FR.from_int(2)), vals,
                           [(0,), (1,), (2,)])


def test_recover_qbnf_trivial_fixture():
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    b = QuantumBNF(blocks, [zseries(FR, 3)],
                   MultiSeries.zero(FR, 1, Orders(4, 3, 3)))
    td = make_trace_data(b, zseries(FR, 3, {1: FR.one}), {}, 8, (3, 3))
    rep = recover_qbnf(td, 1)
    assert not rep.failed
    assert rep.recovered.F.is_zero()
    assert all(j.is_zero() for j in rep.recovered.mu_jets)
    assert rep.recovered.blocks.exp_half[0] == FR.from_int(2)


def test_rt1_round_trip_exact():
    F, bnf, action = rt1()
    t0 = time.time()
    td = make_trace_data(bnf, action, {}, 8, (3, 3))
    rep = recover_qbnf(td, 1)
    elapsed = time.time() - t0
    assert not rep.failed
    assert rep.max_residual == 0
    assert rep.recovered.F == bnf.F
    assert rep.recovered.mu_jets[0] == bnf.mu_jets[0]
    assert list(rep.recovered.blocks.exp_half) == list(bnf.blocks.exp_half)
    assert elapsed < 5.0


def test_float_mixed_round_trip():
    F, bnf = mixed_float_fixture(7)
    td = make_trace_data(bnf, zseries(F, 2, {1: F.one}), {}, 12, (2, 2))
    rep = recover_qbnf(td, 2)
    assert not rep.failed
    keys = set(bnf.F.terms) | set(rep.recovered.F.terms)
    for key in keys:
        a = bnf.F.terms.get(key, F.zero)
        b = rep.recovered.F.terms.get(key, F.zero)
        assert F.abs(a - b) <= 1e-8 * max(1.0, F.abs(a))
    assert max(rep.conditioning.values()) <= 1e6


def test_float_round_trip_with_mu_jets():
    F, bnf = mixed_float_fixture(31, with_jets=True)
    td = make_trace_data(bnf, zseries(F, 2, {1: F.one}), {}, 12, (2, 2))
    rep = recover_qbnf(td, 2)
    assert not rep.failed
    for jet_in, jet_out in zip(bnf.mu_jets, rep.recovered.mu_jets):
        assert jet_out.close_to(jet_in, 1e-8)


def test_recover_with_phase_in_data():
    """TraceData whose coefficients carry the phase numerically (phase
    field zero) must still recover f00, now through the Prony phase."""
    F, bnf = mixed_float_fixture(3)
    td = make_trace_data(bnf, zseries(F, 2, {1: F.one}), {}, 12, (2, 2))
    phase = td.phase
    rebased = {
        k: td.coefficients[k].scale(cmath.exp(-1j * k * F.to_complex(phase)))
        for k in td.coefficients
    }
    td2 = TraceData(F, td.k_max, td.action, td.maslov, F.zero, rebased)
    rep = recover_qbnf(td2, 2)
    assert not rep.failed
    f00_in = bnf.F.get((0, 0), 0, 1)
    f00_out = rep.recovered.F.get((0, 0), 0, 1)
    assert F.abs(f00_in - f00_out) < 1e-8


def test_recovery_triangularity_on_rt1():
    """Perturbing an input F coefficient leaves every earlier-stage
    recovered coefficient bit-identical (exact backend)."""
    F, bnf, action = rt1()
    td = make_trace_data(bnf, action, {}, 8, (3, 3))
    base = recover_qbnf(td, 1)

    eps = F.from_rational("1/1000")
    terms = dict(bnf.F.terms)
    key = ((1,), 0, 1)  # stage (h^1, z^0)
    terms[key] = terms[key] + eps
    bnf2 = QuantumBNF(bnf.blocks, bnf.mu_jets,
                      MultiSeries(F, 1, bnf.F.orders, terms))
    td2 = make_trace_data(bnf2, action, {}, 8, (3, 3))
    pert = recover_qbnf(td2, 1)

    # earlier stages: the h^0 layer (f_0 z-jets and mu jets) are identical
    assert pert.recovered.mu_jets[0] == base.recovered.mu_jets[0]
    for m in range(4):
        assert pert.recovered.F.get((0,), m, 1) == base.recovered.F.get((0,), m, 1)
    # the perturbed coefficient moves by exactly eps
    assert pert.recovered.F.get(key[0], key[1], key[2]) == \
        base.recovered.F.get(key[0], key[1], key[2]) + eps


def test_recovery_evaluates_each_block_once_per_engine(monkeypatch):
    """The stage matrices read the engines' block series, so sinh and cosh
    are formed from E^k once per (engine, k, block) and never again."""
    F, bnf, action = rt1()
    K = 8
    td = make_trace_data(bnf, action, {}, K, (3, 3))
    engines, calls = [], []

    class RecordingEngine(TraceEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    sinh_cosh = hc._sinh_cosh_from_exp_half

    def counting(field, E, k, pole_tol):
        calls.append((E, k))
        return sinh_cosh(field, E, k, pole_tol)

    monkeypatch.setattr(recover_module, "TraceEngine", RecordingEngine)
    monkeypatch.setattr(hc, "_sinh_cosh_from_exp_half", counting)
    rep = recover_qbnf(td, 1)
    assert not rep.failed
    # one engine per mu-jet state: none, then the recovered jet z
    assert len(engines) == 2
    assert len(calls) == len(engines) * K * bnf.n


def test_recovery_normalization_idempotent():
    F, bnf = mixed_float_fixture(11)
    td = make_trace_data(bnf, zseries(F, 2, {1: F.one}), {}, 12, (2, 2))
    rep = recover_qbnf(td, 2)
    td2 = make_trace_data(rep.recovered, zseries(F, 2, {1: F.one}), {}, 12,
                          (2, 2))
    rep2 = recover_qbnf(td2, 2)
    assert rep2.recovered.blocks.tags == rep.recovered.blocks.tags
    for a, b in zip(rep2.recovered.blocks.exp_half,
                    rep.recovered.blocks.exp_half):
        assert F.abs(a - b) < 1e-9
    assert rep2.recovered.F.close_to(rep.recovered.F, 1e-7)


def test_recover_qbnf_insufficient_kmax():
    F, bnf, action = rt1()
    td = make_trace_data(bnf, action, {}, 4, (3, 3))
    with pytest.raises(RankDeficiencyError) as exc:
        recover_qbnf(td, 1)
    assert "1..6" in str(exc.value)


def test_each_recovery_stage_runs_at_its_own_orders(monkeypatch):
    """Stage (h^j, z^m) computes only its own coefficient, one
    trace_coefficient call at (m, j) per k; the K full trace_power calls
    at the trace orders are the self-check's alone."""
    F, bnf, action = rt1()
    K = 8
    td = make_trace_data(bnf, action, {}, K, (3, 3))
    power, coefficient = recover_module.trace_power, \
        recover_module.trace_coefficient
    calls = []

    def recording_power(b, k, orders, *args, **kwargs):
        calls.append(("power", tuple(orders)))
        return power(b, k, orders, *args, **kwargs)

    def recording_coefficient(b, k, m, j, *args, **kwargs):
        calls.append(("coefficient", (m, j)))
        return coefficient(b, k, m, j, *args, **kwargs)

    monkeypatch.setattr(recover_module, "trace_power", recording_power)
    monkeypatch.setattr(recover_module, "trace_coefficient",
                        recording_coefficient)
    rep = recover_qbnf(td, 1)
    assert not rep.failed
    stages = [key for key in rep.conditioning if key != "prony"]
    assert len(stages) == 15
    expected = []
    for key in stages:
        j, m = (int(part[1:]) for part in key.split(":"))
        expected += [("coefficient", (m, j))] * K
    assert calls == expected + [("power", (3, 3))] * K


def test_recovery_evaluates_each_z_series_once(monkeypatch):
    """Within one recovery the coth/csch z-series of every (mu-jets, k,
    block) is built at most once: one engine per mu-jet state, reused by
    later stages and the self-check."""
    F, bnf, action = rt1()
    td = make_trace_data(bnf, action, {}, 8, (3, 3))
    original = hc.coth_csch_series
    calls = []

    def counting(field, E0, delta, k, n_z, *args, **kwargs):
        jet = None if delta is None else tuple(sorted(delta.terms.items()))
        calls.append((jet, k, E0))
        return original(field, E0, delta, k, n_z, *args, **kwargs)

    monkeypatch.setattr(hc, "coth_csch_series", counting)
    rep = recover_qbnf(td, 1)
    assert not rep.failed
    assert calls
    assert len(calls) == len(set(calls))


def test_recovery_factors_each_alpha_set_once(monkeypatch):
    """A stage matrix depends on mu(0), the k-set and the alpha set only, so
    it is built and factored once per distinct alpha set: K entries per
    alpha, read from the engine.  Every stage still reports its own
    condition number."""
    F, bnf, action = rt1()
    K = 8
    td = make_trace_data(bnf, action, {}, K, (3, 3))
    value, factor, polynomial = (TraceEngine.value_at_mu0,
                                 recover_module.factor_lstsq,
                                 recover_module.recover_polynomial)
    values, factored, alpha_sets = [], [], []

    def counting_value(self, k, alpha):
        values.append((k, alpha))
        return value(self, k, alpha)

    def counting_factor(field, rows):
        factored.append(len(rows[0]))
        return factor(field, rows)

    def recording_polynomial(engine, vals, alpha_set, *args, **kwargs):
        alpha_sets.append(tuple(alpha_set))
        return polynomial(engine, vals, alpha_set, *args, **kwargs)

    monkeypatch.setattr(TraceEngine, "value_at_mu0", counting_value)
    monkeypatch.setattr(recover_module, "factor_lstsq", counting_factor)
    monkeypatch.setattr(recover_module, "recover_polynomial",
                        recording_polynomial)
    rep = recover_qbnf(td, 1)
    assert not rep.failed
    distinct = set(alpha_sets)
    assert len(alpha_sets) == 15 and len(distinct) == 4
    assert len(values) == K * sum(len(s) for s in distinct)
    assert sorted(factored) == sorted(len(s) for s in distinct)
    stages = {f"h0:z{m}" for m in (1, 2, 3)} | {
        f"h{j}:z{m}" for j in (1, 2, 3) for m in range(4)}
    assert set(rep.conditioning) == {"prony"} | stages


def _bumped(td, k, m, j, eps):
    """A copy of ``td`` with ``eps`` added to the z^m h^j coefficient of
    power k."""
    coeffs = dict(td.coefficients)
    c = coeffs[k]
    terms = dict(c.terms)
    terms[((), m, j)] = terms.get(((), m, j), td.field.zero) + eps
    coeffs[k] = MultiSeries(td.field, 0, c.orders, terms)
    return TraceData(td.field, td.k_max, td.action, td.maslov, td.phase,
                     coeffs)


def test_exact_late_stage_with_a_bumped_coefficient_is_inconsistent():
    """Stage h1:z2 solves with the factorization that stages h1:z0 and
    h1:z1 made and used; one coefficient off by 1/1000 still makes its
    system inconsistent, which the exact backend refuses."""
    F, bnf, action = rt1()
    td = make_trace_data(bnf, action, {}, 8, (3, 3))
    bad = _bumped(td, 5, 2, 1, F.from_rational("1/1000"))
    with pytest.raises(RankDeficiencyError,
                       match="inconsistent linear system on the exact"):
        recover_qbnf(bad, 1)


def test_float_late_stage_with_a_bumped_coefficient_fails_the_residual():
    F, bnf = mixed_float_fixture(7)
    td = make_trace_data(bnf, zseries(F, 2, {1: F.one}), {}, 12, (2, 2))
    assert not recover_qbnf(td, 2).failed
    bad = _bumped(td, 5, 2, 1, F.one * 1e-3)
    with pytest.raises(RankDeficiencyError,
                       match="inconsistent linear system: residual"):
        recover_qbnf(bad, 2)


def _h_order_zero_traces(F_terms):
    """rh E=3, jet z and F = F_terms, traced at orders (z<=1, h<=0)."""
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(3)])
    F = MultiSeries(FR, 1, Orders(1, 1, 1),
                    {k: FR.from_rational(c) for k, c in F_terms.items()})
    bnf = QuantumBNF(blocks, [zseries(FR, 1, {1: FR.one})], F)
    return F, make_trace_data(bnf, zseries(FR, 1, {1: FR.one}), {}, 6, (1, 0))


@pytest.mark.parametrize("F_terms", [
    {((0,), 0, 1): "1/5"},
    {((0,), 0, 1): "1/5", ((0,), 1, 1): "1/3"},
])
def test_recovery_keeps_h1_terms_at_h_order_zero(F_terms):
    """Traces at h-order 0 fix f00 and f01, which are h^1 terms of F: the
    recovered F holds them, term for term."""
    F, td = _h_order_zero_traces(F_terms)
    rep = recover_qbnf(td, 1)
    assert not rep.failed
    assert list(rep.recovered.F.terms.items()) == list(F.terms.items())
    assert rep.recovered.F.orders.h == 1


def test_self_check_compares_the_constant_phase():
    """A recovery bounded at h^0 drops f00 = 1/5; every coefficient still
    matches, and only the constant phase tells."""
    _F, td = _h_order_zero_traces({((0,), 0, 1): "1/5"})
    rep = recover_qbnf(td, 1, orders=(1, 1, 0))
    assert rep.recovered.F.is_zero()
    assert rep.failed
    assert all(v == 0 for v in rep.residuals.values())
    assert any("constant phase" in note for note in rep.normalization_notes)
