import cmath
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (mixed_float_fixture, permuted_blocks, rt1,
                     well_separated_mus)

from bnftrace.blocks import (COMPLEX_HYPERBOLIC, ELLIPTIC, REAL_HYPERBOLIC,
                             SpectrumBlocks, nonresonance_witness)
from bnftrace.errors import (FieldError, MathError, RankDeficiencyError,
                             SchemaError)
from bnftrace.fields import FloatField, RationalField
from bnftrace import hypcalc as hc
from bnftrace import jsonio, linalg
from bnftrace import recover as recover_module
from bnftrace.qbnf import (QuantumBNF, TraceData, TraceEngine,
                          make_trace_data, trace_layers)
from bnftrace.recover import (_cube_from_roots, _misfits, _refit, plan,
                              recover_frequencies, recover_polynomial,
                              recover_qbnf)
from bnftrace.series import MultiSeries, Orders, zseries

FR = RationalField()
FF = FloatField()
F128 = FloatField(precision=128)


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
    fr = recover_frequencies(FR, a0)
    assert fr.blocks.tags == (REAL_HYPERBOLIC,)
    assert fr.blocks.exp_half[0] == FR.from_int(2)
    assert fr.phi == FR.zero


def test_recover_frequencies_pure_phase_shift():
    phi = math.pi / 5
    a0 = _a0_from_sinh(FF, [2 * math.log(2)], phi, 8)
    fr = recover_frequencies(FF, a0)
    assert abs(FF.to_complex(fr.blocks.exp_half[0]) - 2) < 1e-10
    assert abs(fr.phi_value - phi) < 1e-10


def test_recover_frequencies_phase_on_rational_raises():
    # an honest nonzero phase cannot be represented exactly
    a0 = {}
    for k in range(1, 9):
        s = FR.i ** (k % 4) * (FR.from_int(2) ** k - FR.inv(FR.from_int(2)) ** k)
        a0[k] = FR.inv(s)
    with pytest.raises(FieldError):
        recover_frequencies(FR, a0)


def test_recover_frequencies_zero_samples():
    a0 = {k: FF.zero for k in range(1, 9)}
    with pytest.raises(RankDeficiencyError):
        recover_frequencies(FF, a0)


def test_recover_frequencies_needs_enough_samples():
    a0 = _a0_from_sinh(FF, [1.0], 0.0, 5)
    with pytest.raises(RankDeficiencyError) as exc:
        recover_frequencies(FF, a0)
    assert "1..6" in str(exc.value)


def test_recover_frequencies_mixed_classes():
    mus = [math.log(3), 1j]
    a0 = _a0_from_sinh(FF, mus, 0.35, 12)
    fr = recover_frequencies(FF, a0)
    assert fr.blocks.tags == (REAL_HYPERBOLIC, ELLIPTIC)
    got = fr.blocks.mu()
    assert abs(got[0] - math.log(3)) < 1e-9
    assert abs(got[1] - 1j) < 1e-9
    assert abs(fr.phi_value - 0.35) < 1e-9


def test_recover_frequencies_ch_pair():
    mus = [0.9 + 1.1j, 0.9 - 1.1j]
    a0 = _a0_from_sinh(FF, mus, -0.2, 12)
    fr = recover_frequencies(FF, a0)
    assert fr.blocks.tags == (COMPLEX_HYPERBOLIC, COMPLEX_HYPERBOLIC)
    got = fr.blocks.mu()
    assert abs(got[0] - (0.9 + 1.1j)) < 1e-9
    assert abs(got[1] - (0.9 - 1.1j)) < 1e-9
    assert abs(cmath.exp(1j * fr.phi_value) - cmath.exp(-0.2j)) < 1e-9


def test_recover_frequencies_permutation_invariant():
    mus = [math.log(2), math.log(5)]
    a0a = _a0_from_sinh(FF, mus, 0.1, 12)
    a0b = _a0_from_sinh(FF, list(reversed(mus)), 0.1, 12)
    fa = recover_frequencies(FF, a0a)
    fb = recover_frequencies(FF, a0b)
    ea = [FF.to_complex(x) for x in fa.blocks.exp_half]
    eb = [FF.to_complex(x) for x in fb.blocks.exp_half]
    assert all(abs(x - y) < 1e-10 for x, y in zip(ea, eb))


def test_exponential_sum_model_validation():
    a0 = _a0_from_sinh(FF, [1.0], 0.0, 8)
    a0[5] *= 1.5  # corrupt one sample
    with pytest.raises(RankDeficiencyError):
        recover_frequencies(FF, a0)


def test_exponential_sum_residual_fails_on_nan(monkeypatch):
    """A fit whose model is NaN has NaN misfits, and stage 0 refuses it on
    every rung rather than passing over the NaN."""
    assert all(cmath.isnan(v)
               for v in _misfits(FF, [1, 2], float("nan"), [2]))
    monkeypatch.setattr(recover_module, "_refit",
                        lambda fl, samples, c, tags, exp_half:
                        (fl.one * float("nan"), exp_half))
    a0 = _a0_from_sinh(FF, [1.0], 0.0, 8)
    with pytest.raises(RankDeficiencyError) as exc:
        recover_frequencies(FF, a0)
    assert "misses the samples by nan" in str(exc.value)


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
    """Five seeded well-separated inputs per mix, K = 2^{n+1} + 2 and
    K = 34: each one finds the mix's n and recovers e^mu (best order) and
    e^{i phi} within 1e-8, or raises a MathError, and the mixes in
    _ALWAYS_RECOVERED never refuse."""
    rng = random.Random("stage0/" + mix)
    for _ in range(5):
        mus = well_separated_mus(_MIXES[mix], rng)
        assert mus is not None
        phi = rng.uniform(-math.pi, math.pi)
        n = len(mus)
        for K in (2 ** (n + 1) + 2, 34):
            a0 = _a0_from_sinh(FF, mus, phi, K)
            try:
                fr = recover_frequencies(FF, a0)
            except MathError:
                assert mix not in _ALWAYS_RECOVERED, mus
                continue
            assert fr.blocks.n == n, (mus, K)
            got = [cmath.exp(m) for m in fr.blocks.mu()]
            want = [cmath.exp(m) for m in mus]
            err = min(max(abs(g - w) / max(1.0, abs(w))
                          for g, w in zip(p, want))
                      for p in itertools.permutations(got))
            assert err <= 1e-8, mus
            assert abs(cmath.exp(1j * fr.phi_value)
                       - cmath.exp(1j * phi)) <= 1e-8


@pytest.mark.parametrize("mus", [[0.05j], [3.1j], [0.05], [0.5, 0.1j]])
def test_stage0_near_the_normalization_boundaries(mus):
    """Generators near 1 (small real mu) or near +-1 on the unit circle are
    still classified: the normalization decisions use a band finer than
    the 0.1 of the ratio classes."""
    n = len(mus)
    a0 = _a0_from_sinh(FF, mus, 0.3, 2 ** (n + 1) + 2)
    fr = recover_frequencies(FF, a0)
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
    got = recover_frequencies(F, a0).blocks.exp_half
    for m in mus:
        assert min(abs(E - mp.exp(m / 2)) for E in got) <= 1e-30


def test_wide_real_hyperbolic_triple_recovers_or_refuses():
    """Three real hyperbolic exponents whose weakest roots drown in double
    precision: stage 0 goes to its 240-bit retry, where the root finder
    could give up and the cube fit can still tie at rank n; any refusal
    must be a MathError, not an exception of mpmath's own."""
    mus = [0.7024822914919275, 2.1161459174609334, 1.0221501252364096]
    phi = 1.420136041895475
    a0 = {k: cmath.exp(-1j * k * phi)
          / math.prod(2 * cmath.sinh(k * m / 2) for m in mus)
          for k in range(1, 19)}
    try:
        fr = recover_frequencies(FF, a0)
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
    blocks = permuted_blocks(blocks, perm)
    jets = [zseries(FR, 1, {1: jet_coeffs[p]}) for p in perm]
    bnf = QuantumBNF(blocks, jets, MultiSeries(FR, n, Orders(2, 1, 1),
                                               F_terms))
    td = make_trace_data(bnf, zseries(FR, 1, {1: FR.one}), {},
                         2 ** (n + 1) + 2, (1, 1))
    rep = recover_qbnf(td)
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


@settings(max_examples=10, deadline=None)
@given(_exact_normal_forms())
def test_deflated_stage_values_equal_fresh_forwards(case):
    """The stages of h-order j >= 1 share one layer forward, deflated by
    the terms each stage finds.  Every stage's right-hand side, as the
    recovery hands it to the solve, equals exactly the one that a fresh
    trace_layers gives on the stage's partial normal form: the jets
    and the F terms of lower weight, and those of the stage's weight at a
    lower z-order.  Traces at orders (2, 1), with the jets and a z^1 term
    of f0 nonzero, so the z-phase is not 1."""
    tagged, jets, F_terms = case
    n = len(tagged)
    blocks = SpectrumBlocks(FR, [t for t, _ in tagged], [E for _, E in tagged])
    perm = blocks.canonical_order()
    blocks = permuted_blocks(blocks, perm)
    def nonzero(c, default):
        return default if FR.is_zero(c) else c

    jets = [zseries(FR, 2, {1: nonzero(jets[p], _q("1/3"))}) for p in perm]
    f01 = ((0,) * n, 1, 1)
    F_terms[f01] = nonzero(F_terms[f01], _q("1/2"))
    F = MultiSeries(FR, n, Orders(2, 2, 1), F_terms)
    td = make_trace_data(QuantumBNF(blocks, jets, F),
                         zseries(FR, 2, {1: FR.one}), {}, 2 ** (n + 1) + 2,
                         (2, 1))
    solve, handed = recover_module.recover_polynomial, []

    def recording_solve(engine, values, *args, **kwargs):
        handed.append((engine.ks, list(values)))
        return solve(engine, values, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recover_module, "recover_polynomial", recording_solve)
        rep = recover_qbnf(td)
    assert not rep.failed and rep.recovered.F == F
    stages = [key for key in rep.conditioning if key != "prony"]
    assert len(stages) == len(handed) == 5
    for key, (ks, values) in zip(stages, handed):
        j, m = (int(part[1:]) for part in key.split(":"))
        part_jets = [MultiSeries(FR, 0, jet.orders, {
            t: c for t, c in jet.terms.items() if j or t[1] < m})
            for jet in rep.recovered.mu_jets]
        part_F = MultiSeries(FR, n, F.orders, {
            (alpha, mm, l): c for (alpha, mm, l), c in F.terms.items()
            if l + sum(alpha) <= j or l + sum(alpha) == j + 1 and mm < m})
        partial = QuantumBNF(rep.recovered.blocks, part_jets, part_F)
        rows = trace_layers(partial, (m, j),
                            TraceEngine(partial.blocks, ks, m))
        for k, v, fwd in zip(ks, values, rows[m], strict=True):
            fresh = td.coefficients[k].get((), m, j) - fwd
            assert v == fresh * FR.inv(-(FR.i * FR.from_int(k)))


def test_exact_fit_that_does_not_verify_refuses():
    """rh+rh with E_2 = 2 + 10^-40, a denominator above the bound of either
    fit: no rationalized fit meets the samples, and the refusal names the
    last fit and its misfit rather than returning it."""
    Es = [_q("3/2"), _q(Fraction(2 * 10 ** 40 + 1, 10 ** 40))]
    a0 = {k: FR.inv(math.prod((E ** k - FR.inv(E) ** k for E in Es),
                              start=FR.one))
          for k in range(1, 11)}
    with pytest.raises(RankDeficiencyError) as exc:
        recover_frequencies(FR, a0)
    msg = str(exc.value)
    assert "240-bit fit c = " in msg and "misses the samples by" in msg


def _engine_at(E, ks):
    """A trace engine at z-order 0 for one real hyperbolic block and the
    powers ``ks``."""
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [E])
    return TraceEngine(blocks, ks, 0)


def test_recover_polynomial_linear():
    ks, vals = (1, 2, 3), []
    for k in ks:
        d = hc.eval_csch(
            hc.apply_derivatives(hc.csch_product(FR, 1, k), (1,)),
            exp_half=[FR.from_int(2)])
        vals.append((FR.i * FR.inv(FR.from_int(k))) * d)
    assert vals[0] == FR.i.conjugate() * FR.from_rational("5/9")  # -5i/9
    sol, cond = recover_polynomial(_engine_at(FR.from_int(2), ks), vals,
                                   [(0,), (1,)])
    assert sol[(1,)] == FR.one
    assert sol[(0,)] == FR.zero


def test_float_solve_takes_no_cond_of_snapshot(monkeypatch):
    """A float solve reads its condition number off R of its own QR
    factorization; the snapshot of the raw matrix serves only the exact
    path."""
    def no_snapshot(field, rows):
        raise AssertionError("raw-matrix snapshot on a float path")

    monkeypatch.setattr(linalg, "_cond_of", no_snapshot)
    for field in (FF, F128):
        system = linalg.factor_lstsq(
            field, [[field.from_int(v) for v in row]
                    for row in [[1, 0], [0, 2], [1, 1]]])
        x, res = system.solve([field.from_int(v) for v in [1, 4, 3]])
        assert max(field.abs(a - b) for a, b in zip(x, [1, 2])) < 1e-14
        assert 1 <= system.cond < 10 and res < 1e-14


def test_exact_condition_number_beyond_the_double_range():
    """Exact and double factorizations of one matrix report the same
    condition number, of the matrix with its rows and columns scaled.  An
    exact row near 2^2000 has no double snapshot; its power-of-two prescale
    leaves the number unchanged, and the exact solve goes through."""
    rows = [[FR.from_rational("1/3"), FR.from_int(2)],
            [FR.from_rational(5, "-1/7"), FR.from_int(1)],
            [FR.from_int(1), FR.from_rational("9/11")]]
    cond = linalg.factor_lstsq(FR, rows).cond
    assert 1 < cond < 100
    double = linalg.factor_lstsq(FF, [[FF.from_rational(x.re, x.im)
                                       for x in row] for row in rows])
    assert double.cond == pytest.approx(cond, rel=1e-12)
    big = FR.from_int(2 ** 2000)
    big_rows = [[x * big for x in rows[0]], rows[1], rows[2]]
    system = linalg.factor_lstsq(FR, big_rows)
    assert system.cond == cond
    rhs = [r[0] + FR.from_int(2) * r[1] for r in big_rows]
    x, _ = system.solve(rhs)
    assert x == [FR.one, FR.from_int(2)]


def _flushed(v):
    """v with each part below 1e-100 in modulus set to zero: no product of
    two drawn numbers and the scales below underflows, so a right-hand
    side built in doubles keeps the system consistent."""
    return complex(*(t if abs(t) >= 1e-100 else 0.0 for t in (v.real, v.imag)))


_unit = st.complex_numbers(max_magnitude=1, allow_nan=False,
                           allow_infinity=False).map(_flushed)


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
    s64 = linalg.factor_lstsq(FF, rows)
    s128 = linalg.factor_lstsq(
        F128, [[F128.one * v for v in row] for row in rows])
    x64, _ = s64.solve(rhs)
    x128, _ = s128.solve([F128.one * v for v in rhs])
    size = max(abs(v) for v in x128)
    assert max(abs(a - b) for a, b in zip(x64, x128)) <= 1e-10 * size
    assert abs(s64.cond - s128.cond) <= 1e-9 * s128.cond


def test_extended_solve_of_a_vandermonde_system_keeps_its_digits():
    """A 14 x 8 Vandermonde system, rows (1 + j/20)^p, condition number
    ~4e8: QR loses about cond * 2^-128 ~ 1e-30 at 128 bits, where the
    normal equations, which square the condition number, lost 1e-24."""
    rows = [[F128.from_rational(Fraction(20 + j, 20) ** p) for p in range(8)]
            for j in range(14)]
    x = [F128.from_int(p + 1) for p in range(8)]
    rhs = [sum((a * v for a, v in zip(row, x)), F128.zero) for row in rows]
    system = linalg.factor_lstsq(F128, rows)
    got, _res = system.solve(rhs)
    assert 1e8 < system.cond < 1e9
    assert max(F128.abs(a - b) for a, b in zip(got, x)) <= 1e-27


@pytest.mark.parametrize("precision", [128, 240])
def test_extended_solve_with_a_row_beyond_the_double_range(precision):
    """A row near 1e400 is scaled to a largest modulus of 1 in the field; a
    double snapshot of it would hold an infinity."""
    F = FloatField(precision)
    big = F.parse("1e400")
    rows = [[F.one, F.zero], [F.zero, F.one], [big, big]]
    system = linalg.factor_lstsq(F, rows)
    got, _res = system.solve([F.one, F.from_int(2), 3 * big])
    assert max(F.abs(a - b) for a, b in zip(got, [1, 2])) <= 1e-30
    assert 1 < system.cond < 10


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
# a subnormal row below the top block, which is scaled like any other
@example(system=([[0.2 + 0j], [2.225073858507203e-309 + 0j]],
                 [[0j], [0j], [0j]]))
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
    want = recover_qbnf(td).conditioning
    ext = jsonio.qbnf_from_json(jsonio.qbnf_to_json(bnf), precision)
    G = ext.field
    td = make_trace_data(ext, zseries(G, 2, {1: G.one}), {}, 12, (2, 2))
    rep = recover_qbnf(td)
    assert not rep.failed
    assert rep.conditioning.keys() == want.keys()
    for stage, cond in want.items():
        assert abs(rep.conditioning[stage] - cond) <= 1e-6 * cond, stage


def test_recover_polynomial_zero():
    vals = [FR.zero] * 3
    sol, _ = recover_polynomial(_engine_at(FR.from_int(2), (1, 2, 3)), vals,
                                [(0,), (1,)])
    assert all(v == FR.zero for v in sol.values())


def test_recover_polynomial_quadratic_exact():
    coeffs = {(0,): FR.from_rational("2/3"), (1,): FR.from_rational("-1/5"),
              (2,): FR.from_rational("7/4")}
    ks, vals = (1, 2, 3, 4), []
    for k in ks:
        total = FR.zero
        for alpha, c in coeffs.items():
            d = hc.eval_csch(
                hc.apply_derivatives(hc.csch_product(FR, 1, k), alpha),
                exp_half=[FR.from_int(2)])
            total = total + c * (FR.i * FR.inv(FR.from_int(k))) ** sum(alpha) * d
        vals.append(total)
    sol, _ = recover_polynomial(_engine_at(FR.from_int(2), ks), vals,
                                [(0,), (1,), (2,)])
    assert sol == coeffs


def test_recover_polynomial_needs_enough_powers():
    vals = [FR.one, FR.one]
    with pytest.raises(RankDeficiencyError):
        recover_polynomial(_engine_at(FR.from_int(2), (1, 2)), vals,
                           [(0,), (1,), (2,)])


def test_recover_polynomial_refuses_other_powers():
    """The rows of the matrix are the engine's powers, so a list of values
    over fewer or more powers is refused."""
    engine = _engine_at(FR.from_int(2), (1, 2, 3))
    for count in (2, 4):
        with pytest.raises(SchemaError, match="trace engine serves"):
            recover_polynomial(engine, [FR.one] * count, [(0,), (1,)])


def test_recover_qbnf_trivial_fixture():
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    b = QuantumBNF(blocks, [zseries(FR, 3)],
                   MultiSeries.zero(FR, 1, Orders(4, 3, 3)))
    td = make_trace_data(b, zseries(FR, 3, {1: FR.one}), {}, 8, (3, 3))
    rep = recover_qbnf(td)
    assert not rep.failed
    assert rep.recovered.F.is_zero()
    assert all(j.is_zero() for j in rep.recovered.mu_jets)
    assert rep.recovered.blocks.exp_half[0] == FR.from_int(2)


def test_rt1_round_trip_exact():
    F, bnf, action = rt1()
    t0 = time.time()
    td = make_trace_data(bnf, action, {}, 8, (3, 3))
    rep = recover_qbnf(td)
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
    rep = recover_qbnf(td)
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
    rep = recover_qbnf(td)
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
    rep = recover_qbnf(td2)
    assert not rep.failed
    f00_in = bnf.F.get((0, 0), 0, 1)
    f00_out = rep.recovered.F.get((0, 0), 0, 1)
    assert F.abs(f00_in - f00_out) < 1e-8


def test_recovery_triangularity_on_rt1():
    """Perturbing an input F coefficient leaves every earlier-stage
    recovered coefficient bit-identical (exact backend)."""
    F, bnf, action = rt1()
    td = make_trace_data(bnf, action, {}, 8, (3, 3))
    base = recover_qbnf(td)

    eps = F.from_rational("1/1000")
    terms = dict(bnf.F.terms)
    key = ((1,), 0, 1)  # stage (h^1, z^0)
    terms[key] = terms[key] + eps
    bnf2 = QuantumBNF(bnf.blocks, bnf.mu_jets,
                      MultiSeries(F, 1, bnf.F.orders, terms))
    td2 = make_trace_data(bnf2, action, {}, 8, (3, 3))
    pert = recover_qbnf(td2)

    # earlier stages: the h^0 layer (f_0 z-jets and mu jets) are identical
    assert pert.recovered.mu_jets[0] == base.recovered.mu_jets[0]
    for m in range(4):
        assert pert.recovered.F.get((0,), m, 1) == base.recovered.F.get((0,), m, 1)
    # the perturbed coefficient moves by exactly eps
    assert pert.recovered.F.get(key[0], key[1], key[2]) == \
        base.recovered.F.get(key[0], key[1], key[2]) + eps


def _count_engines_and_tables(monkeypatch):
    """Record each TraceEngine that recover_qbnf builds and each (E, k)
    that the exact csch tables are set up for."""
    engines, calls = [], []

    class RecordingEngine(TraceEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    head = hc._closed_form_head

    def counting(E, k):
        calls.append((E, k))
        return head(E, k)

    monkeypatch.setattr(recover_module, "TraceEngine", RecordingEngine)
    monkeypatch.setattr(hc, "_closed_form_head", counting)
    return engines, calls


def test_recovery_evaluates_each_block_once_per_engine(monkeypatch):
    """A recovery builds one engine for every stage and the self-check,
    and its csch tables do not depend on the jets, so the closed form is
    set up from E^k once per (k, block) and never again."""
    F, bnf, action = rt1()
    K = 8
    td = make_trace_data(bnf, action, {}, K, (3, 3))
    engines, calls = _count_engines_and_tables(monkeypatch)
    rep = recover_qbnf(td)
    assert not rep.failed
    assert len(engines) == 1
    assert len(set(calls)) == len(calls) == K * bnf.n


def test_recovery_evaluates_each_z_series_once(monkeypatch):
    """A recovery handed an engine that serves its blocks, as the round
    trip hands in its forward engine, builds none and sets up no csch
    table again; a new engine for the same blocks gives the same report."""
    F, bnf, action = rt1()
    K = 8
    forward = TraceEngine(bnf.blocks, range(1, K + 1), 3)
    td = make_trace_data(bnf, action, {}, K, (3, 3), engine=forward)
    engines, calls = _count_engines_and_tables(monkeypatch)
    rep = recover_qbnf(td, engine=forward)
    assert not rep.failed
    assert engines == [] and calls == []
    fresh = recover_qbnf(td)
    assert len(engines) == 1
    assert rep.recovered.F == fresh.recovered.F
    assert rep.recovered.mu_jets == fresh.recovered.mu_jets
    assert rep.residuals == fresh.residuals


def test_recovery_normalization_idempotent():
    F, bnf = mixed_float_fixture(11)
    td = make_trace_data(bnf, zseries(F, 2, {1: F.one}), {}, 12, (2, 2))
    rep = recover_qbnf(td)
    td2 = make_trace_data(rep.recovered, zseries(F, 2, {1: F.one}), {}, 12,
                          (2, 2))
    rep2 = recover_qbnf(td2)
    assert rep2.recovered.blocks.tags == rep.recovered.blocks.tags
    for a, b in zip(rep2.recovered.blocks.exp_half,
                    rep.recovered.blocks.exp_half):
        assert F.abs(a - b) < 1e-9
    assert rep2.recovered.F.close_to(rep.recovered.F, 1e-7)


def test_recover_qbnf_insufficient_kmax():
    F, bnf, action = rt1()
    td = make_trace_data(bnf, action, {}, 4, (3, 3))
    with pytest.raises(RankDeficiencyError) as exc:
        recover_qbnf(td)
    assert "1..6" in str(exc.value)


def test_each_recovery_stage_runs_at_its_own_orders(monkeypatch):
    """A j = 0 stage (h^0, z^m) computes only its own layer, one
    trace_layers call at (m, 0) over all k.  Each h-order j >= 1 runs one
    layer forward at (N_z, j) over all k, and every stage (j, m) but the
    last deflates it by the terms it found, if any, one trace_layers call
    over all k with those terms.  The one trace_powers call at the trace
    orders is the self-check's."""
    F, bnf, action = rt1()
    terms = dict(bnf.F.terms)
    terms[((2,), 1, 1)] = F.from_rational("-2/9")
    terms[((0,), 2, 2)] = F.from_rational("1/4")
    bnf = QuantumBNF(bnf.blocks, bnf.mu_jets,
                     MultiSeries(F, 1, bnf.F.orders, terms))
    K = 8
    td = make_trace_data(bnf, action, {}, K, (3, 3))
    powers, layers = recover_module.trace_powers, recover_module.trace_layers
    calls = []

    def recording_powers(b, orders, engine):
        calls.append(("powers", engine.ks, tuple(orders)))
        return powers(b, orders, engine)

    def recording_layers(b, orders, engine, added=None):
        calls.append(("layers" if added is None else "deflate", engine.ks,
                      tuple(orders)))
        return layers(b, orders, engine, added=added)

    monkeypatch.setattr(recover_module, "trace_powers", recording_powers)
    monkeypatch.setattr(recover_module, "trace_layers", recording_layers)
    rep = recover_qbnf(td)
    assert not rep.failed
    stages = [key for key in rep.conditioning if key != "prony"]
    assert len(stages) == 15
    ks = tuple(range(1, K + 1))
    expected = []
    for key in stages:
        j, m = (int(part[1:]) for part in key.split(":"))
        if j == 0:
            expected += [("layers", ks, (m, 0))]
            continue
        if m == 0:
            expected += [("layers", ks, (3, j))]
        if m < 3 and any(l + sum(alpha) == j + 1 and mm == m
                         for alpha, mm, l in rep.recovered.F.terms):
            expected += [("deflate", ks, (3, j))]
    assert ("deflate", ks, (3, 1)) in expected
    assert ("deflate", ks, (3, 2)) in expected
    assert calls == expected + [("powers", ks, (3, 3))]


@pytest.mark.parametrize("n, n_z, n_h", [(1, 3, 3), (2, 1, 0), (2, 2, 1),
                                         (3, 3, 3)])
def test_plan_counts_each_stage_alpha_set(n, n_z, n_h):
    """Each (h^j, z^m) stage needs one power per alpha of its set, counted
    without building it: the alpha in N^n with
    j + 1 - max(n_h, 1) <= |alpha| <= j + 1.  Prony needs 2^(n+1) + 2
    samples and the self-check none."""
    p = plan(n, n_z, n_h)
    assert [s.kind for s in (p.stages[0], p.stages[-1])] == [
        "prony", "self-check"]
    assert (p.stages[0].need, p.stages[-1].need) == (2 ** (n + 1) + 2, 0)
    stages = p.stages[1:-1]
    assert [(s.j, s.m) for s in stages] == [
        (j, m) for j in range(n_h + 1) for m in range(0 if j else 1, n_z + 1)]
    for s in stages:
        want = [a for a in itertools.product(range(s.j + 2), repeat=n)
                if s.j + 1 - max(n_h, 1) <= sum(a) <= s.j + 1]
        assert sorted(s.alphas) == want and s.need == len(want)
        assert s.kind == ("F" if s.j else "jets")


def test_plan_names_the_conditioning_keys_in_order():
    F, bnf, action = rt1()
    td = make_trace_data(bnf, action, {}, 8, (3, 2))
    rep = recover_qbnf(td)
    assert list(rep.conditioning) == [s.name for s in plan(1, 3, 2).stages
                                      if s.kind != "self-check"]


def test_plan_refuses_too_few_powers_naming_the_neediest_stage():
    p = plan(2, 3, 3)
    p.require(14)
    with pytest.raises(RankDeficiencyError,
                       match=r"stage h3:z0 needs the trace powers k = 1\.\.14, "
                             "have 13"):
        p.require(13)
    # at h-order 5, stages h4:z0 and h5:z0 need 6 powers, as Prony does,
    # which comes first; K below 1 is an input error
    assert [s.need for s in plan(1, 0, 5).stages[-3:-1]] == [6, 6]
    with pytest.raises(RankDeficiencyError,
                       match=r"stage prony needs the trace powers k = 1\.\.6,"):
        plan(1, 0, 5).require(5)
    with pytest.raises(SchemaError, match="k_max must be >= 1"):
        plan(1, 1, 1).require(0)


def test_recovery_factors_each_alpha_set_once(monkeypatch):
    """A stage matrix depends on mu(0), the k-set and the alpha set only, so
    it is built and factored once per distinct alpha set: one column of K
    entries per alpha, read from the engine.  Every stage still reports
    its own condition number."""
    F, bnf, action = rt1()
    K = 8
    td = make_trace_data(bnf, action, {}, K, (3, 3))
    column, factor, polynomial = (TraceEngine.at_mu0,
                                  recover_module.factor_lstsq,
                                  recover_module.recover_polynomial)
    columns, factored, alpha_sets = [], [], []

    def counting_column(self, alpha):
        col = column(self, alpha)
        columns.append((alpha, len(col)))
        return col

    def counting_factor(field, rows):
        factored.append(len(rows[0]))
        return factor(field, rows)

    def recording_polynomial(engine, vals, alpha_set, *args, **kwargs):
        alpha_sets.append(tuple(alpha_set))
        return polynomial(engine, vals, alpha_set, *args, **kwargs)

    monkeypatch.setattr(TraceEngine, "at_mu0", counting_column)
    monkeypatch.setattr(recover_module, "factor_lstsq", counting_factor)
    monkeypatch.setattr(recover_module, "recover_polynomial",
                        recording_polynomial)
    rep = recover_qbnf(td)
    assert not rep.failed
    distinct = set(alpha_sets)
    assert len(alpha_sets) == 15 and len(distinct) == 4
    assert sorted(columns) == sorted((alpha, K) for s in distinct
                                     for alpha in s)
    # and one for stage 0's Hankel tail, of 2^n columns
    assert sorted(factored) == sorted([2] + [len(s) for s in distinct])
    stages = {f"h0:z{m}" for m in (1, 2, 3)} | {
        f"h{j}:z{m}" for j in (1, 2, 3) for m in range(4)}
    assert set(rep.conditioning) == {"prony"} | stages


def test_recovery_factors_each_alpha_set_once_per_engine(monkeypatch):
    """The engine keeps the factored stage matrices: a second recovery on
    one engine, as a round trip's recovery reads its forward engine,
    factors only stage 0's Hankel system and reports the same condition
    numbers, and a new engine factors each alpha set again."""
    _F, bnf, action = rt1()
    K = 8
    td = make_trace_data(bnf, action, {}, K, (3, 3))
    factor, factored = recover_module.factor_lstsq, []

    def counting_factor(field, rows):
        factored.append(len(rows[0]))
        return factor(field, rows)

    monkeypatch.setattr(recover_module, "factor_lstsq", counting_factor)
    alpha_sets = {tuple(s.alphas) for s in plan(1, 3, 3).stages[1:-1]}
    # one for stage 0's Hankel tail, of 2^n columns
    once = sorted([2] + [len(s) for s in alpha_sets])
    engine, reports = TraceEngine(bnf.blocks, range(1, K + 1), 3), []
    for want in (once, [2]):
        factored.clear()
        reports.append(recover_qbnf(td, engine=engine))
        assert not reports[-1].failed
        assert sorted(factored) == want
        assert set(engine.systems) == alpha_sets
    assert reports[0].conditioning == reports[1].conditioning
    factored.clear()
    assert not recover_qbnf(
        td, engine=TraceEngine(bnf.blocks, range(1, K + 1), 3)).failed
    assert sorted(factored) == once


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
        recover_qbnf(bad)


def test_float_late_stage_with_a_bumped_coefficient_fails_the_residual():
    F, bnf = mixed_float_fixture(7)
    td = make_trace_data(bnf, zseries(F, 2, {1: F.one}), {}, 12, (2, 2))
    assert not recover_qbnf(td).failed
    bad = _bumped(td, 5, 2, 1, F.one * 1e-3)
    with pytest.raises(RankDeficiencyError,
                       match="inconsistent linear system: residual"):
        recover_qbnf(bad)


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
    rep = recover_qbnf(td)
    assert not rep.failed
    assert list(rep.recovered.F.terms.items()) == list(F.terms.items())
    assert rep.recovered.F.orders.h == 1


def test_self_check_compares_the_constant_phase(monkeypatch):
    """A self-check forward pass whose constant phase is off by 1/7 matches
    every coefficient, and only the phase comparison tells."""
    _F, td = _h_order_zero_traces({((0,), 0, 1): "1/5"})
    original = recover_module.trace_powers

    def shifted(*args, **kwargs):
        phase, series = original(*args, **kwargs)
        return phase + FR.from_rational("1/7"), series

    monkeypatch.setattr(recover_module, "trace_powers", shifted)
    rep = recover_qbnf(td)
    assert rep.failed
    assert all(v == 0 for v in rep.residuals.values())
    assert any("constant phase" in note for note in rep.normalization_notes)


def test_self_check_reports_a_nan_deviation_as_the_max_residual(monkeypatch):
    """A float self-check forward pass with a NaN z h coefficient fails the
    recovery, and the NaN is its max residual, not passed over for the
    finite deviations around it; the report writes it as null."""
    blocks = SpectrumBlocks(FF, [REAL_HYPERBOLIC], [FF.from_int(3)])
    G = MultiSeries(FF, 1, Orders(2, 1, 1), {((2,), 0, 0): FF.one / 7,
                                             ((0,), 0, 1): FF.one / 5})
    td = make_trace_data(QuantumBNF(blocks, [zseries(FF, 1, {1: FF.one / 3})],
                                    G),
                         zseries(FF, 1, {1: FF.one}), {}, 6, (1, 1))
    original = recover_module.trace_powers

    def poisoned(*args, **kwargs):
        phase, series = original(*args, **kwargs)
        return phase, {k: s + MultiSeries(FF, 0, s.orders,
                                          {((), 1, 1): complex(math.nan)})
                       for k, s in series.items()}

    monkeypatch.setattr(recover_module, "trace_powers", poisoned)
    rep = recover_qbnf(td)
    assert rep.failed
    assert math.isnan(rep.max_residual)
    doc = jsonio.recovery_report_to_json(rep)
    assert doc["max_residual"] is None
    assert doc["residual_by_stage"]["h1:z1"] is None


@pytest.mark.parametrize("where", ["phase", "zh coefficient"])
def test_exact_self_check_fails_on_a_mismatch_below_the_double_range(
        monkeypatch, where):
    """On rt1, a self-check forward pass off by 10^-400 in the constant
    phase or in the z h coefficient fails the exact recovery, though the
    difference reads 0 as a double and the reported residuals stay 0."""
    F, bnf, action = rt1()
    td = make_trace_data(bnf, action, {}, 8, (3, 3))
    tiny = F.from_rational(Fraction(1, 10 ** 400))
    original = recover_module.trace_powers

    def shifted(*args, **kwargs):
        phase, series = original(*args, **kwargs)
        if where == "phase":
            return phase + tiny, series
        return phase, {k: s + MultiSeries(F, 0, s.orders, {((), 1, 1): tiny})
                       for k, s in series.items()}

    monkeypatch.setattr(recover_module, "trace_powers", shifted)
    rep = recover_qbnf(td)
    assert rep.failed
    assert rep.max_residual == 0
    assert all(v == 0 for v in rep.residuals.values())
    assert (any("constant phase" in note for note in rep.normalization_notes)
            == (where == "phase"))


def _phase_shifted_n1_traces():
    """The float n = 1 normal form rh E = 3, jet z/3,
    F = iota^2/7 + h (iota/3 + 1/5) - (2/9) iota z h at 128 bits, traced
    at orders (3, 2, 2) over K = 8, with a residual Prony phase of 0.3:
    coefficient k times e^{-0.3 ik}, and the phase lowered by 0.3."""
    F = FloatField(128)
    q = lambda p, r: F.from_int(p) / r
    blocks = SpectrumBlocks(F, [REAL_HYPERBOLIC], [F.from_int(3)])
    G = MultiSeries(F, 1, Orders(3, 2, 2), {
        ((2,), 0, 0): q(1, 7), ((1,), 0, 1): q(1, 3), ((0,), 0, 1): q(1, 5),
        ((1,), 1, 1): q(-2, 9)})
    jet = zseries(F, 2, {1: q(1, 3)})
    td = make_trace_data(QuantumBNF(blocks, [jet], G),
                         zseries(F, 2, {1: F.one}), {}, 8, (2, 2))
    shift = F.from_rational(Fraction(3, 10))
    coeffs = {k: c.scale(F.exp(-F.i * k * shift))
              for k, c in td.coefficients.items()}
    return F, G, jet, shift, TraceData(F, td.k_max, td.action, td.maslov,
                                       td.phase - shift, coeffs)


def test_extended_residual_phase_is_recovered_at_working_precision():
    """At 128 bits phi = -i log c is taken in the field, not through a
    double, so the residual phase 0.3 comes back to 1e-30."""
    F, _G, _jet, shift, td = _phase_shifted_n1_traces()
    a0 = {k: td.coefficients[k].get((), 0, 0) for k in td.coefficients}
    fr = recover_frequencies(F, a0)
    assert F.abs(fr.phi - shift) <= 1e-30
    assert abs(fr.phi_value - 0.3) <= 1e-15


def test_extended_recovery_with_a_residual_phase_keeps_its_precision():
    """The same traces through recover_qbnf: the phase is folded into f00
    and the rebased stages recover F and the jet to 1e-28."""
    F, G, jet, _shift, td = _phase_shifted_n1_traces()
    rep = recover_qbnf(td)
    assert not rep.failed
    got = rep.recovered
    for want, have in ((G, got.F), (jet, got.mu_jets[0])):
        keys = set(want.terms) | set(have.terms)
        assert max(F.abs(have.get(*key) - want.get(*key))
                   for key in keys) <= 1e-28
    assert any("residual sample phase" in note
               for note in rep.normalization_notes)
