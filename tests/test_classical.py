import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import (permuted_blocks, random_symplectic_2x2,
                     well_separated_mus)

from bnftrace import classical, phasepoly
from bnftrace.blocks import (COMPLEX_HYPERBOLIC, ELLIPTIC, REAL_HYPERBOLIC,
                             SpectrumBlocks, nonresonance_witness)
from bnftrace.classical import (TaylorMap, birkhoff_normal_form,
                                classify_eigenvalues, iota_real_to_complex,
                                linear_normalize, normal_form_flow)
from bnftrace.errors import (MathError, ResonanceError, SchemaError,
                             SmallDenominatorError)
from bnftrace.fields import FloatField, RationalField
from bnftrace.phasepoly import (MAX_DEGREE, PhasePoly, PolyMap, exp_ham,
                                exponents, monomial)
from bnftrace.recover import recover_frequencies
from bnftrace import hypcalc as hc

FF = FloatField()
FR = RationalField()


def _terms(p):
    """The terms of a PhasePoly keyed by exponent tuples, in dict order."""
    return {exponents(k, p.nvars): c for k, c in p.terms.items()}


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def _map_from_matrix(field, M, degree=3):
    n = M.shape[0] // 2
    comps = []
    for i in range(2 * n):
        terms = {}
        for j in range(2 * n):
            if M[i][j] != 0:
                e = [0] * (2 * n)
                e[j] = 1
                terms[tuple(e)] = field.one * complex(M[i][j])
        comps.append(terms)
    return TaylorMap(field, n, degree, comps)


# -- classification -----------------------------------------------------


def test_classify_rotation():
    b = classify_eigenvalues(rotation(1.0))
    assert b.tags == (ELLIPTIC,)
    assert abs(b.mu()[0] - 1j) < 1e-12


def test_classify_hyperbolic():
    b = classify_eigenvalues(np.diag([2.0, 0.5]))
    assert b.tags == (REAL_HYPERBOLIC,)
    assert abs(b.mu()[0] - math.log(2)) < 1e-12


def test_classify_complex_hyperbolic_from_flow():
    # exp of the Hamiltonian matrix of the complex hyperbolic quadratic
    # with alpha = beta = 1: eigenvalues e^{1 +- i}, e^{-1 +- i}
    a, be = 1.0, 1.0
    A = np.array([[a, be, 0, 0],
                  [-be, a, 0, 0],
                  [0, 0, -a, be],
                  [0, 0, -be, -a]])
    M = expm(A)
    b = classify_eigenvalues(M)
    assert b.tags == (COMPLEX_HYPERBOLIC,) * 2
    assert abs(b.mu()[0] - (1 + 1j)) < 1e-10
    assert abs(b.mu()[1] - (1 - 1j)) < 1e-10


def test_classify_rejects_non_symplectic():
    with pytest.raises(SchemaError):
        classify_eigenvalues(np.diag([2.0, 2.0]))


def test_classify_rejects_excluded_eigenvalues():
    with pytest.raises(MathError):
        classify_eigenvalues(np.eye(2))
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])  # parabolic, lambda = 1
    with pytest.raises(MathError):
        classify_eigenvalues(shear)
    with pytest.raises(MathError):
        classify_eigenvalues(np.diag([-2.0, -0.5]))  # negative real pair


def test_classify_rejects_reversed_krein():
    # clockwise rotation: e^{i theta} eigenvector has positive area
    with pytest.raises(MathError):
        classify_eigenvalues(rotation(1.0).T)


@pytest.mark.parametrize("rows", [[[1, 2, 3], [4, 5, 6]], [2, 0]],
                         ids=["2 x 3", "one row"])
def test_classify_eigenvalues_needs_a_2n_x_2n_matrix(rows):
    with pytest.raises(SchemaError, match="need a 2n x 2n matrix"):
        classify_eigenvalues(rows)


@pytest.mark.parametrize("rows", [[[math.nan, 0.0], [0.0, 1.0]],
                                  [[2.0, 0.0], [0.0, math.inf]]],
                         ids=["nan", "inf"])
def test_classify_eigenvalues_refuses_a_non_finite_entry(rows):
    """A NaN or infinite entry is refused before any eigenvalue is
    computed; an infinite one would pass the symplectic check, whose
    residual and bound are both infinite."""
    with pytest.raises(SchemaError, match="non-finite entry"):
        classify_eigenvalues(rows)


def test_nonresonance_witness_examples():
    b = SpectrumBlocks.from_mu(FF, [(ELLIPTIC, 1j),
                                    (ELLIPTIC, math.sqrt(2) * 1j)])
    assert nonresonance_witness(b.mu(), 10) is None
    b2 = SpectrumBlocks.from_mu(FF, [(ELLIPTIC, 2j * math.pi / 3)])
    assert nonresonance_witness(b2.mu(), 3) == ((3,), 1)
    b3 = SpectrumBlocks.from_mu(FF, [(REAL_HYPERBOLIC, math.log(2))])
    assert nonresonance_witness(b3.mu(), 20) is None


# -- TaylorMap ----------------------------------------------------------


def test_taylor_map_symplectic_validation():
    _map_from_matrix(FF, rotation(0.7))  # fine
    with pytest.raises(SchemaError):
        _map_from_matrix(FF, np.diag([2.0, 1.0]))
    # exact check on the rational backend
    TaylorMap(FR, 1, 3, [{(1, 0): FR.from_int(4)},
                         {(0, 1): FR.from_rational("1/4")}])
    with pytest.raises(SchemaError):
        TaylorMap(FR, 1, 3, [{(1, 0): FR.from_int(4)},
                             {(0, 1): FR.from_rational("1/3")}])


def test_symplectic_residual_reads_the_top_jacobian_degree():
    """x' = x + x^3/5 at degree 3: D^T J D - J = (3/5) x^2, of degree
    2 = degree - 1, the last one the check covers."""
    for field in (FR, FF):
        comps = [{(1, 0): field.one, (3, 0): field.from_rational("1/5")},
                 {(0, 1): field.one}]
        tm = TaylorMap(field, 1, 3, comps, validate=False)
        assert tm.symplectic_residual() == pytest.approx(
            1 if field.exact else 0.6, rel=1e-15)
        with pytest.raises(SchemaError):
            TaylorMap(field, 1, 3, comps)
        # at degree 2 the cubic term is truncated away
        TaylorMap(field, 1, 2, comps)


def test_taylor_map_degree_is_limited_by_the_monomial_keys():
    """The normal form of a map of degree D bounds R's phase polynomial at
    D + 1, so D = MAX_DEGREE - 1 is the largest map degree."""
    comps = [{(1, 0): FF.one}, {(0, 1): FF.one}]
    assert TaylorMap(FF, 1, MAX_DEGREE - 1, comps).degree == MAX_DEGREE - 1
    with pytest.raises(SchemaError, match=f"map degree {MAX_DEGREE} is above "
                                          f"the limit {MAX_DEGREE - 1}"):
        TaylorMap(FF, 1, MAX_DEGREE, comps)


def test_taylor_map_keeps_matching_components_and_rebuilds_others():
    """A PhasePoly of the map's field, arity and degree is kept as it is;
    one of a higher degree is truncated, one of another field object is
    rebuilt on the map's field, and plain term dicts are validated."""
    terms = {(1, 0): FF.one, (2, 1): FF.one * 0.5, (4, 1): FF.one * 0.25}
    same = PhasePoly(FF, 2, 5, terms)
    tm = TaylorMap(FF, 1, 5, [same, {(0, 1): FF.one}], validate=False)
    assert tm.pmap.comps[0] is same

    higher = PhasePoly(FF, 2, 6, {**terms, (3, 3): FF.one})
    other = FloatField()
    foreign = PhasePoly(other, 2, 5, terms)
    tm = TaylorMap(FF, 1, 4, [higher, foreign], validate=False)
    for comp in tm.pmap.comps:
        assert comp.field is FF and comp.degree == 4
        assert _terms(comp) == {(1, 0): FF.one, (2, 1): FF.one * 0.5}
    tm = TaylorMap(FF, 1, 5, [foreign, {(0, 1): FF.one}], validate=False)
    assert tm.pmap.comps[0] is not foreign
    assert tm.pmap.comps[0].field is FF
    assert _terms(tm.pmap.comps[0]) == terms
    with pytest.raises(SchemaError):
        TaylorMap(FF, 1, 5, [{(1, -1): FF.one}, {(0, 1): FF.one}],
                  validate=False)


def test_taylor_map_requires_fixed_origin():
    with pytest.raises(SchemaError):
        TaylorMap(FF, 1, 3, [{(0, 0): FF.one, (1, 0): FF.one},
                             {(0, 1): FF.one}])


@pytest.mark.parametrize("comp0", [{(1, 0): math.nan},
                                   {(1, 0): 1.0, (2, 0): math.nan}])
def test_taylor_map_with_a_nan_coefficient_is_refused(comp0):
    """A NaN in the linear or a nonlinear term makes the Jacobian residual
    NaN, which the symplectic check refuses."""
    comps = [{e: FF.one * c for e, c in comp0.items()}, {(0, 1): FF.one}]
    assert math.isnan(TaylorMap(FF, 1, 3, comps,
                                validate=False).symplectic_residual())
    with pytest.raises(SchemaError, match="not symplectic"):
        TaylorMap(FF, 1, 3, comps)


# -- linear normalization ------------------------------------------------


def test_linear_normalize_block_form_is_fixed():
    # a map already in block form commutes with the normalizing rotation,
    # so the conjugated map equals the input
    tm = _map_from_matrix(FF, rotation(0.9))
    out, T, _blocks = linear_normalize(tm)
    M = np.array(out.linear_matrix_complex()).real
    assert np.max(np.abs(M - rotation(0.9))) < 1e-12
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.max(np.abs(np.array(T).T @ J @ np.array(T) - J)) < 1e-12


def test_linear_normalize_conjugated_rotation():
    rng = random.Random(4)
    S = random_symplectic_2x2(rng)
    M = S @ rotation(1.3) @ np.linalg.inv(S)
    tm = _map_from_matrix(FF, M)
    out, T, blocks = linear_normalize(tm)
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.max(np.abs(np.array(T).T @ J @ np.array(T) - J)) < 1e-12
    B = np.array(out.linear_matrix_complex()).real
    assert np.max(np.abs(B - rotation(1.3))) < 1e-10
    assert blocks.tags == (ELLIPTIC,)
    assert abs(blocks.mu()[0] - 1.3j) < 1e-10


def test_linear_normalize_hyperbolic_mixed_axes():
    rng = random.Random(8)
    S = random_symplectic_2x2(rng)
    M = S @ np.diag([3.0, 1 / 3.0]) @ np.linalg.inv(S)
    tm = _map_from_matrix(FF, M)
    out, T, blocks = linear_normalize(tm)
    B = np.array(out.linear_matrix_complex()).real
    assert np.max(np.abs(B - np.diag([3.0, 1 / 3.0]))) < 1e-12
    assert blocks.tags == (REAL_HYPERBOLIC,)
    assert abs(blocks.mu()[0] - math.log(3.0)) < 1e-12
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.max(np.abs(np.array(T).T @ J @ np.array(T) - J)) < 1e-12


# -- Birkhoff normal form -----------------------------------------------


def test_bnf_pure_rotation_has_no_remainder():
    tm = _map_from_matrix(FF, rotation(1.0), degree=7)
    res = birkhoff_normal_form(tm, 3)
    for m, c in res.p_complex.items():
        if sum(m) >= 2:
            assert FF.abs(c) <= 1e-12
    twist = res.real_twist_coefficients()
    assert abs(FF.to_complex(twist[(1,)]) - (-1.0)) < 1e-12


def test_bnf_recovers_twist_from_flow():
    # time-1 flow of p = -iota + (1/10) iota^2 expanded to degree 7
    blocks = SpectrumBlocks.from_mu(FF, [(ELLIPTIC, 1j)])
    R = iota_real_to_complex(blocks.tags, {(2,): FF.one * 0.1}, FF)
    tm = normal_form_flow(blocks, R, 7)
    res = birkhoff_normal_form(tm, 3)
    real = res.real_twist_coefficients()
    assert abs(FF.to_complex(real[(2,)]) - 0.1) < 1e-10
    assert abs(FF.to_complex(real[(1,)]) + 1.0) < 1e-12


def test_bnf_runs_one_eigendecomposition(monkeypatch):
    """The blocks come from the units linear_normalize computed, not from
    a second classification of the same matrix."""
    original = classical._symplectic_eigenbasis
    calls = []

    def counting(M, tol):
        calls.append(M)
        return original(M, tol)

    monkeypatch.setattr(classical, "_symplectic_eigenbasis", counting)
    blocks = SpectrumBlocks.from_mu(FF, [(COMPLEX_HYPERBOLIC, 0.4 + 0.9j),
                                         (COMPLEX_HYPERBOLIC, 0.4 - 0.9j)])
    # a complex hyperbolic pair has no real actions: R is complexified
    R = {(1, 1): FF.one * 0.2}
    res = birkhoff_normal_form(normal_form_flow(blocks, R, 3), 2)
    assert len(calls) == 1
    assert res.blocks.tags == blocks.tags
    assert all(FF.close(a, b, 1e-10)
               for a, b in zip(res.blocks.exp_half, blocks.exp_half))


def test_bnf_twist_against_rotation_number_fit():
    """Generic cubic perturbation of a rotation: the recovered twist must
    match a least-squares fit of rotation number against action from plain
    orbit iteration."""
    theta = 1.0
    field = FF
    rng = random.Random(12)
    chi = PhasePoly(field, 2, 7, {
        (3, 0): 0.21 + 0j, (2, 1): -0.17 + 0j,
        (1, 2): 0.11 + 0j, (0, 3): 0.09 + 0j,
    })
    lam = PolyMap.from_linear(
        field, 1, 7,
        [[field.one * complex(x) for x in row] for row in rotation(theta)])
    kappa = PolyMap(field, 1, 7, lam.compose(exp_ham(chi, 1, 7)).comps)
    tm = TaylorMap(field, 1, 7, kappa.comps)
    res = birkhoff_normal_form(tm, 2)
    r2 = FF.to_complex(res.real_twist_coefficients()[(2,)]).real

    # oracle: iterate a batch of orbits and fit the rotation number against
    # the averaged action, Delta omega = theta - 2 r2 iota + O(iota^2).
    # Both averages use weighted Birkhoff windows, which converge
    # super-polynomially on quasi-periodic orbits and leave the cubic fit
    # limited by the genuine higher twist terms only.
    iters = 10 ** 4
    u = (np.arange(iters) + 0.5) / iters
    w = np.exp(-1.0 / (u * (1 - u)))
    w /= w.sum()
    amps = np.linspace(1e-3, 1e-2, 10)
    x = np.sqrt(2 * amps)
    xi = np.zeros_like(x)
    comp_terms = [list(_terms(c).items()) for c in tm.pmap.comps]
    omegas = np.zeros_like(x)
    iotas = np.zeros_like(x)
    prev = np.arctan2(xi, x)
    for i in range(iters):
        xp = [x ** p for p in range(8)]
        xip = [xi ** p for p in range(8)]
        xn = np.zeros_like(x)
        xin = np.zeros_like(x)
        for (e1, e2), c in comp_terms[0]:
            xn = xn + FF.to_complex(c).real * xp[e1] * xip[e2]
        for (e1, e2), c in comp_terms[1]:
            xin = xin + FF.to_complex(c).real * xp[e1] * xip[e2]
        x, xi = xn, xin
        ang = np.arctan2(xi, x)
        d = ang - prev
        d = np.where(d < -math.pi, d + 2 * math.pi, d)
        d = np.where(d > math.pi, d - 2 * math.pi, d)
        omegas += w[i] * d
        prev = ang
        iotas += w[i] * 0.5 * (x * x + xi * xi)
    A = np.vstack([np.ones_like(iotas), iotas, iotas ** 2, iotas ** 3]).T
    coef, *_ = np.linalg.lstsq(A, omegas, rcond=None)
    fitted_r2 = -coef[1] / 2
    assert abs(fitted_r2 - r2) < 1e-4


def test_bnf_conjugation_invariance():
    # BNF(T^{-1} kappa T) = BNF(kappa) for random polynomial symplectic T
    rng = random.Random(21)
    blocks = SpectrumBlocks.from_mu(FF, [(ELLIPTIC, 1.1j)])
    R = iota_real_to_complex(blocks.tags, {(2,): 0.3 + 0j}, FF)
    base = normal_form_flow(blocks, R, 7)
    chi_t = PhasePoly(FF, 2, 7, {
        (3, 0): 0.12 + 0j, (1, 2): -0.08 + 0j, (0, 4): 0.05 + 0j,
    })
    L = PolyMap.from_linear(
        FF, 1, 7,
        [[FF.one * complex(x) for x in row]
         for row in random_symplectic_2x2(rng)])
    Li = PolyMap.from_linear(
        FF, 1, 7,
        [[FF.one * complex(x) for x in row]
         for row in np.linalg.inv(
             np.array([[FF.to_complex(c.terms.get(
                 monomial([int(i == j) for i in range(2)]), FF.zero)).real
                 for j in range(2)] for c in L.comps]))])
    T = L.compose(exp_ham(chi_t, 1, 7))
    Tinv = exp_ham(chi_t.scale(-FF.one), 1, 7).compose(Li)
    conj = Tinv.compose(base.pmap.compose(T))
    tm2 = TaylorMap(FF, 1, 7, conj.comps, validate=False)
    res1 = birkhoff_normal_form(base, 3)
    res2 = birkhoff_normal_form(tm2, 3)
    for m in set(res1.p_complex) | set(res2.p_complex):
        c1 = res1.p_complex.get(m, FF.zero)
        c2 = res2.p_complex.get(m, FF.zero)
        assert FF.abs(c1 - c2) <= 1e-9


def test_bnf_idempotence_on_normal_flow():
    # rerunning on exp H_p of the output reproduces p exactly to truncation
    blocks = SpectrumBlocks.from_mu(FF, [(ELLIPTIC, 0.9j)])
    R = iota_real_to_complex(blocks.tags, {(2,): 0.25 + 0j, (3,): -0.1 + 0j},
                             FF)
    tm = normal_form_flow(blocks, R, 7)
    res = birkhoff_normal_form(tm, 3)
    R2 = {m: c for m, c in res.p_complex.items() if sum(m) >= 2}
    tm2 = normal_form_flow(res.blocks, R2, 7)
    res2 = birkhoff_normal_form(tm2, 3)
    for m in set(res.p_complex) | set(res2.p_complex):
        assert FF.abs(res.p_complex.get(m, FF.zero)
                      - res2.p_complex.get(m, FF.zero)) < 1e-12
    theta = res.blocks.mu()[0].imag
    assert 0 < theta < math.pi


def test_determinant_bridge():
    # prod |2 sinh(k mu_j / 2)| = |det(M^k - I)|^{1/2} for k <= 6
    fixtures = [rotation(1.0), np.diag([2.0, 0.5])]
    a, be = 1.0, 1.0
    A = np.array([[a, be, 0, 0], [-be, a, 0, 0],
                  [0, 0, -a, be], [0, 0, -be, -a]])
    fixtures.append(expm(A))
    rng = random.Random(2)
    S = random_symplectic_2x2(rng)
    fixtures.append(S @ rotation(0.6) @ np.linalg.inv(S))
    for M in fixtures:
        blocks = classify_eigenvalues(M)
        for k in range(1, 7):
            lhs = 1.0
            for mu in blocks.mu():
                lhs *= abs(2 * cmath.sinh(k * mu / 2))
            rhs = math.sqrt(abs(np.linalg.det(
                np.linalg.matrix_power(M, k) - np.eye(M.shape[0]))))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


def test_bnf_small_denominator_reported():
    """theta = 2 pi/5 + 1e-9 is near the order-5 resonance, which the scan
    through order 2 * 2 = 4 does not reach, so the division at map degree 5
    trips on it and names k = [-5]."""
    theta = 2 * math.pi / 5 + 1e-9
    chi = PhasePoly(FF, 2, 5, {(3, 0): 0.1 + 0j})
    lam = PolyMap.from_linear(
        FF, 1, 5,
        [[FF.one * complex(x) for x in row] for row in rotation(theta)])
    tm = TaylorMap(FF, 1, 5, lam.compose(exp_ham(chi, 1, 5)).comps,
                   validate=False)
    with pytest.raises(SmallDenominatorError) as exc:
        birkhoff_normal_form(tm, 2, small_denominator_tol=1e-8)
    assert list(exc.value.witness) == [-5]


def test_bnf_resonance_detected_first():
    theta = 2 * math.pi / 3
    tm = _map_from_matrix(FF, rotation(theta), degree=5)
    with pytest.raises(ResonanceError):
        birkhoff_normal_form(tm, 2)


def test_bnf_exact_rational_hyperbolic():
    # mu = 2 ln 2 block (lambda = 4), normal flow conjugated by an exact
    # cubic generator: the whole normalization stays in Q(i) and must give
    # back R bit-exactly (conjugation invariance, exact flavor)
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    chi = PhasePoly(FR, 2, 7, {(3, 0): FR.from_rational("1/3"),
                               (1, 2): FR.from_rational("-2/7")})
    lam = PolyMap.from_linear(FR, 1, 7,
                              [[FR.from_int(4), FR.zero],
                               [FR.zero, FR.from_rational("1/4")]])
    R = {(2,): FR.from_rational("3/5")}
    from bnftrace.phasepoly import iota_poly_to_phase

    flow = lam.compose(exp_ham(iota_poly_to_phase(FR, 1, 7, R), 1, 7))
    fwd = exp_ham(chi, 1, 7)
    bwd = exp_ham(chi.scale(-FR.one), 1, 7)
    kappa = bwd.compose(flow.compose(fwd))
    tm = TaylorMap(FR, 1, 7, kappa.comps, validate=False)
    res = birkhoff_normal_form(tm, 3, blocks=blocks)
    assert res.p_complex[(2,)] == FR.from_rational("3/5")
    assert res.residual == 0


def test_bnf_given_blocks_skips_the_eigendecomposition(monkeypatch):
    """Given blocks, the map is taken to be in standard block form with
    them: the normalizer is not run, and the twist is the one it finds."""
    blocks = SpectrumBlocks.from_mu(FF, [(REAL_HYPERBOLIC, 0.7),
                                         (ELLIPTIC, 1.1j)])
    R = iota_real_to_complex(blocks.tags, {(2, 0): FF.one * 0.1,
                                           (1, 1): FF.one * 0.2}, FF)
    flow = normal_form_flow(blocks, R, 5)
    want = birkhoff_normal_form(flow, 3).p_complex

    def refuse(*args):
        raise AssertionError("linear_normalize ran despite given blocks")

    monkeypatch.setattr(classical, "linear_normalize", refuse)
    res = birkhoff_normal_form(flow, 3, blocks=blocks)
    assert res.blocks is blocks
    assert set(res.p_complex) == set(want)
    assert all(abs(res.p_complex[m] - want[m]) <= 1e-12 for m in want)


def test_generator_flows_are_symplectic():
    blocks = SpectrumBlocks.from_mu(FF, [(ELLIPTIC, 1.2j)])
    chi = PhasePoly(FF, 2, 7, {(3, 0): 0.2 + 0j, (2, 1): 0.1 + 0j})
    lam = PolyMap.from_linear(
        FF, 1, 7,
        [[FF.one * complex(x) for x in row] for row in rotation(1.2)])
    tm = TaylorMap(FF, 1, 7, lam.compose(exp_ham(chi, 1, 7)).comps,
                   validate=False)
    res = birkhoff_normal_form(tm, 3)
    for g in res.generators:
        flow = exp_ham(g, 1, 7)
        check = TaylorMap(FF, 1, 7, flow.comps, validate=False)
        assert check.symplectic_residual() < 1e-12


def _random_generator(draw, field, n, degree):
    """A random chi of degree 3 or 4 in 2n variables, bounded at
    ``degree``; doubles carry signed zero parts too."""
    nv = 2 * n
    top = draw(st.integers(3, 4))
    monos = [e for e in itertools.product(range(top + 1), repeat=nv)
             if 3 <= sum(e) <= top]
    keys = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=6,
                         unique=True))
    if field.exact:
        coeff = st.builds(field.from_rational, _coeffs, _coeffs)
    else:
        part = st.floats(-1, 1, allow_nan=False)
        coeff = st.builds(complex, part, part)
    return PhasePoly(field, nv, degree, {e: draw(coeff) for e in keys})


@st.composite
def _lie_pair_case(draw):
    """(field, n, degree, chi) with chi from :func:`_random_generator`."""
    field = draw(st.sampled_from([FR, FF]))
    n = draw(st.integers(1, 2))
    degree = draw(st.integers(4, 7 - n))
    return field, n, degree, _random_generator(draw, field, n, degree)


@settings(max_examples=40, deadline=None)
@given(_lie_pair_case())
# fwd and bwd reach coefficients of 393 here, and the pair misses the
# identity by 1.02e-12 in doubles
@example((FF, 1, 6, PhasePoly(FF, 2, 6, {
    (0, 3): 0.9604591619952685j, (3, 0): 1 + 0.9520644799515492j})))
def test_paired_lie_series_inverse_is_the_series_of_minus_chi(case):
    """exp_ham's inverse is exp_ham(-chi) term for term: the same keys in
    the same order and equal values (on doubles only the sign of a zero
    part may differ, as -(a * b) and a * (-b) round alike), and the pair
    composes to the identity through the truncation degree: exactly on
    the rational field, and on doubles within 1e-12 times the largest
    coefficient of the pair, as their rounding errors grow with it."""
    field, n, degree, chi = case
    fwd, bwd = exp_ham(chi, n, degree, inverse=True)
    ref_fwd = exp_ham(chi, n, degree)
    ref_bwd = exp_ham(chi.scale(-field.one), n, degree)
    for got, want in zip(fwd.comps + bwd.comps,
                         ref_fwd.comps + ref_bwd.comps):
        assert list(got.terms) == list(want.terms)
        assert list(got.terms.values()) == list(want.terms.values())
    identity = PolyMap.identity(field, n, degree)
    size = max(c.max_coeff_abs() for c in fwd.comps + bwd.comps)
    for pair in (fwd.compose(bwd), bwd.compose(fwd)):
        for got, want in zip(pair.comps, identity.comps):
            diff = got - want
            if field.exact:
                assert diff.is_zero()
            else:
                assert diff.max_coeff_abs() <= 1e-12 * max(1.0, size)


def test_bnf_takes_each_lie_series_once(monkeypatch):
    """On the golden conjugated map one normalization takes 64 Lie
    brackets and 10 compositions: one bracket sequence per generator for
    both directions, no conjugation at the top degree, where chi
    truncates to zero, and exp H_R built once per value of R."""
    from test_golden import _conjugated_flow_map

    tmap = _conjugated_flow_map()
    counts = {"bracket": 0, "compose": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(phasepoly, "_bracket",
                        counted("bracket", phasepoly._bracket))
    monkeypatch.setattr(PolyMap, "compose",
                        counted("compose", PolyMap.compose))
    res = birkhoff_normal_form(tmap, 3)
    assert counts["bracket"] <= 64
    assert counts["compose"] <= 10
    # the top-degree generator is still reported, empty
    assert res.generators[-1].is_zero()


def test_normal_form_flow_is_symplectic():
    blocks = SpectrumBlocks.from_mu(FF, [(ELLIPTIC, 0.8j)])
    R = iota_real_to_complex(blocks.tags, {(2,): 0.2 + 0j}, FF)
    tm = normal_form_flow(blocks, R, 6)
    assert tm.symplectic_residual() < 1e-12


_RH2 = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])


@pytest.mark.parametrize("R, degree", [
    ({(2,): Fraction(1, 7)}, 3),
    ({(2,): Fraction(1, 7), (3,): Fraction(-2, 9)}, 5),
])
def test_twist_term_one_degree_above_the_map_is_kept(R, degree):
    """An iota^m term of R with 2|m| = degree + 1 has flow terms of the
    map's degree: the flow keeps them, so it equals the flow one degree up
    cut to this degree, and the normal form of that map is R with no
    defect."""
    R = {m: FR.from_rational(c) for m, c in R.items()}
    flow = normal_form_flow(_RH2, R, degree)
    cut = TaylorMap(FR, 1, degree, normal_form_flow(_RH2, R, degree + 1)
                    .pmap.comps)
    assert ([c.terms for c in flow.pmap.comps]
            == [c.terms for c in cut.pmap.comps])
    res = birkhoff_normal_form(cut, (degree + 1) // 2, blocks=_RH2)
    assert res.p_complex == R
    assert res.residual == 0


def test_complex_hyperbolic_pairs_have_no_real_actions():
    blocks = SpectrumBlocks.from_mu(FF, [(COMPLEX_HYPERBOLIC, 0.4 + 0.9j),
                                         (COMPLEX_HYPERBOLIC, 0.4 - 0.9j)])
    R = {(1, 1): FF.one * 0.2}
    with pytest.raises(SchemaError, match="real actions"):
        iota_real_to_complex(blocks.tags, R, FF)
    with pytest.raises(SchemaError, match="real actions"):
        classical.BNFResult(blocks, R, [], math.inf,
                            0.0).real_twist_coefficients()


# -- composition ------------------------------------------------------------

def _reference_compose(outer, inner):
    """outer(inner(w)) the way PolyMap.compose did it before the prefix
    stack: every monomial of every component rebuilt from full powers."""
    deg = min(outer.degree, inner.degree)
    f = outer.field
    nv = 2 * outer.n
    max_exp = [0] * nv
    for comp in outer.comps:
        for e in _terms(comp):
            for j, p in enumerate(e):
                max_exp[j] = max(max_exp[j], p)
    pows = []
    for j in range(nv):
        lst = [PhasePoly.scalar(f, nv, deg, f.one)]
        for _ in range(max_exp[j]):
            lst.append(lst[-1] * inner.comps[j])
        pows.append(lst)
    out = []
    for comp in outer.comps:
        acc = PhasePoly.zero(f, nv, deg)
        for e, c in _terms(comp).items():
            factors = [pows[j][p] for j, p in enumerate(e) if p]
            term = (factors[0].scale(c) if factors
                    else PhasePoly.scalar(f, nv, deg, c))
            for g in factors[1:]:
                term = term * g
            acc = acc + term
        out.append(acc)
    return PolyMap(f, outer.n, deg, out)


def _tuple_mul(a, b, deg, field):
    """The product of two term dicts keyed by exponent tuples, truncated at
    ``deg``: every pair in dict order, zero sums pruned."""
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if sum(e1) + sum(e2) <= deg:
                e = tuple(x + y for x, y in zip(e1, e2))
                v = c1 * c2
                terms[e] = terms[e] + v if e in terms else v
    return {e: c for e, c in terms.items() if not field.is_zero(c)}


def _tuple_compose(outer, inner):
    """The term dicts of outer(inner(w)) as PolyMap.compose sums them, on
    exponent-tuple keys: monomials in sorted order, each built from the
    powers of the inner components left to right."""
    deg = min(outer.degree, inner.degree)
    f = outer.field
    nv = 2 * outer.n
    holders = {}
    for i, comp in enumerate(outer.comps):
        for e, c in _terms(comp).items():
            holders.setdefault(e, []).append((i, c))
    pows = []
    for j in range(nv):
        lst = [{(0,) * nv: f.one}]
        for _ in range(max((e[j] for e in holders), default=0)):
            lst.append(_tuple_mul(lst[-1], _terms(inner.comps[j]), deg, f))
        pows.append(lst)
    out = [{} for _ in outer.comps]
    for e in sorted(holders):
        value = None
        for j, p in enumerate(e):
            if p:
                value = (pows[j][p] if value is None
                         else _tuple_mul(value, pows[j][p], deg, f))
        if value is None:
            value = {e: f.one}
        for i, c in holders[e]:
            acc = out[i]
            for key, v in value.items():
                t = c * v
                acc[key] = acc[key] + t if key in acc else t
    return [{e: c for e, c in acc.items() if not f.is_zero(c)}
            for acc in out]


_coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                    st.integers(1, 7))
# doubles whose products and sums round, -0.0 parts among them
_double_coeffs = st.sampled_from([1.0 + 0j, -1.0 + 0j, 0.1 + 0j, -0.3j,
                                  1 / 3 + 0j, 0.7 - 0.2j, complex(-0.0, 2.5)])


@st.composite
def _poly_map(draw, n, degree, unused=None, field=FR):
    """A random PolyMap, exact unless ``field`` is FF; monomials avoid
    variable ``unused``."""
    nv = 2 * n
    monos = [e for e in itertools.product(range(degree + 1), repeat=nv)
             if sum(e) <= degree and (unused is None or e[unused] == 0)]
    coeffs = (_double_coeffs if field is FF
              else st.builds(FR.from_rational, _coeffs))
    comps = []
    for _ in range(nv):
        keys = draw(st.lists(st.sampled_from(monos), max_size=6, unique=True))
        comps.append(PhasePoly(field, nv, degree, {
            e: draw(coeffs) for e in keys}))
    return PolyMap(field, n, degree, comps)


@st.composite
def _composable_pair(draw, field=FR):
    n = draw(st.integers(1, 2))
    outer = draw(_poly_map(n, draw(st.integers(1, 5)),
                           unused=draw(st.integers(0, 2 * n - 1)),
                           field=field))
    outer.comps[draw(st.integers(0, 2 * n - 1))] = PhasePoly.zero(
        field, 2 * n, outer.degree)
    # the inner map may carry constant terms and has its own degree
    inner = draw(_poly_map(n, draw(st.integers(1, 5)), field=field))
    return outer, inner


@settings(max_examples=150, deadline=None)
@given(_composable_pair())
def test_compose_matches_per_component_reference(pair):
    outer, inner = pair
    got = outer.compose(inner)
    ref = _reference_compose(outer, inner)
    assert got.degree == ref.degree == min(outer.degree, inner.degree)
    assert [c.degree for c in got.comps] == [c.degree for c in ref.comps]
    assert [c.terms for c in got.comps] == [c.terms for c in ref.comps]


def _bits(terms):
    """The (key, coeff) pairs of a term dict in order, a double's parts by
    their bits, so that -0.0 differs from 0.0."""
    return [(e, (c.real.hex(), c.imag.hex()) if isinstance(c, complex) else c)
            for e, c in terms.items()]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([FR, FF]).flatmap(_composable_pair))
def test_compose_matches_the_tuple_key_compose_bit_for_bit(pair):
    """Packed keys change no sum: compose gives the terms that the same
    algorithm on exponent tuples gives, in the same order, doubles bit for
    bit."""
    outer, inner = pair
    got = outer.compose(inner)
    assert ([_bits(_terms(c)) for c in got.comps]
            == [_bits(t) for t in _tuple_compose(outer, inner)])


def test_compose_of_flows_matches_reference_on_floats():
    blocks = SpectrumBlocks.from_mu(FF, [(REAL_HYPERBOLIC, 0.7),
                                         (ELLIPTIC, 1.1j)])
    R = iota_real_to_complex(blocks.tags, {(2, 0): 0.2 + 0j,
                                           (1, 1): -0.1 + 0j}, FF)
    flow = normal_form_flow(blocks, R, 5).pmap
    chi = PhasePoly(FF, 4, 5, {(3, 0, 0, 0): 0.1 + 0j, (1, 1, 1, 0): -0.05 + 0j,
                               (0, 0, 0, 3): 0.12 + 0j})
    gen = exp_ham(chi, 2, 5)
    got = flow.compose(gen)
    ref = _reference_compose(flow, gen)
    for a, b in zip(got.comps, ref.comps):
        keys = set(a.terms) | set(b.terms)
        assert all(abs(a.terms.get(e, 0) - b.terms.get(e, 0)) <= 1e-15
                   for e in keys)


# -- exact round trip ---------------------------------------------------------

_EXACT_E = {
    REAL_HYPERBOLIC: [FR.from_int(2), FR.from_int(3),
                      FR.from_rational(Fraction(5, 2))],
    ELLIPTIC: [FR.from_rational(Fraction(3, 5), Fraction(4, 5)),
               FR.from_rational(Fraction(5, 13), Fraction(12, 13))],
}


@st.composite
def _exact_classical_case(draw):
    """Rational blocks of n <= 3 (rh E in {2, 3, 5/2}, elliptic E in
    {(3+4i)/5, (5+12i)/13}, the ch pair E = 3 +- i), an iota degree d, a
    map degree 2d - 1 or 2d with no resonance up to its order plus one,
    and a rational R with 2 <= |m| <= d."""
    kinds = draw(st.lists(st.sampled_from(
        [REAL_HYPERBOLIC, ELLIPTIC, COMPLEX_HYPERBOLIC]), min_size=1,
        max_size=3))
    tagged = []
    for kind in kinds:
        if kind == COMPLEX_HYPERBOLIC:
            E = FR.from_rational(3, 1)
            tagged += [(kind, E), (kind, FR.conj(E))]
        else:
            tagged.append((kind, draw(st.sampled_from(_EXACT_E[kind]))))
    assume(len(tagged) <= 3)
    blocks = SpectrumBlocks.from_exp_half(FR, tagged)
    d = draw(st.sampled_from([2, 3]))
    degree = 2 * d - draw(st.sampled_from([1, 0]))
    # no small denominator either: its k has |k| <= degree + 1
    assume(nonresonance_witness(blocks.mu(), degree + 1) is None)
    monos = [m for m in itertools.product(range(d + 1), repeat=blocks.n)
             if 2 <= sum(m) <= d]
    keys = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4,
                         unique=True))
    R = {m: FR.from_rational(draw(_coeffs)) for m in keys}
    return blocks, d, degree, R


@settings(max_examples=30, deadline=None)
@given(_exact_classical_case(), st.data())
def test_exact_classical_round_trip(case, data):
    """The normal form of a rational normal-form flow, conjugated by a
    rational cubic generator when n <= 2, is its R, exactly and with no
    defect, at map degrees 2d - 1 and 2d; on rh/elliptic mixes the real
    actions convert back to the complexified ones."""
    blocks, d, degree, R = case
    n = blocks.n
    kappa = normal_form_flow(blocks, R, degree)
    if n <= 2:
        cubics = [e for e in itertools.product(range(4), repeat=2 * n)
                  if sum(e) == 3]
        keys = data.draw(st.lists(st.sampled_from(cubics), min_size=1,
                                  max_size=3, unique=True))
        chi = PhasePoly(FR, 2 * n, degree, {
            e: FR.from_rational(data.draw(_coeffs)) for e in keys})
        kappa = TaylorMap(FR, n, degree, exp_ham(
            chi.scale(-FR.one), n, degree).compose(
                kappa.pmap.compose(exp_ham(chi, n, degree))).comps)
    res = birkhoff_normal_form(kappa, d, blocks=blocks)
    assert res.p_complex == R
    assert res.residual == 0
    if COMPLEX_HYPERBOLIC not in blocks.tags:
        assert iota_real_to_complex(blocks.tags,
                                    res.real_twist_coefficients(), FR) == R


_RH, _EL, _CH = REAL_HYPERBOLIC, ELLIPTIC, COMPLEX_HYPERBOLIC
# the mixes on which stage 0 may refuse, its weakest roots drowned in
# double-precision noise (test_recover's stage-0 sweep)
_MAY_REFUSE = [[_CH, _RH], [_CH, _EL], [_RH, _RH, _RH]]


@pytest.mark.parametrize("spec", [
    [_RH], [_EL], [_CH], [_RH, _EL], [_RH, _RH], [_EL, _EL], [_CH, _RH],
    [_CH, _EL], [_RH, _RH, _EL], [_RH, _EL, _EL], [_EL, _EL, _EL],
    [_RH, _RH, _RH]], ids=lambda spec: "+".join(
        {_RH: "rh", _EL: "el", _CH: "ch"}[t] for t in spec))
def test_classified_blocks_are_canonical_and_match_the_recovery(spec):
    """The linear part of a normal-form flow whose blocks are listed in a
    shuffled order: classify_eigenvalues gives them in canonical order, as
    the input blocks sorted, and stage 0 of the recovery, on the constant
    trace coefficients of the same exponents, gives the same blocks."""
    rng = random.Random("canonical/" + "+".join(spec))
    for _ in range(5):
        # a complex hyperbolic entry gives a pair (mu, conj mu)
        mus = iter(well_separated_mus(spec, rng))
        units = [[(t, next(mus)) for _ in range(2 if t == _CH else 1)]
                 for t in spec]
        rng.shuffle(units)
        blocks = SpectrumBlocks.from_mu(FF, [b for u in units for b in u])
        mus = [m for u in units for _t, m in u]
        M = np.array(normal_form_flow(blocks, {}, 1)
                     .linear_matrix_complex()).real
        got = classify_eigenvalues(M)
        assert got.canonical_order() == list(range(got.n))
        want = permuted_blocks(blocks, blocks.canonical_order())
        assert got.tags == want.tags
        assert all(FF.close(a, b, 1e-9)
                   for a, b in zip(got.exp_half, want.exp_half))
        a0 = {k: 1 / math.prod(2 * cmath.sinh(k * m / 2) for m in mus)
              for k in range(1, 2 ** (len(mus) + 1) + 3)}
        try:
            rec = recover_frequencies(FF, a0).blocks
        except MathError:
            assert spec in _MAY_REFUSE
            continue
        assert rec.tags == got.tags
        assert all(FF.close(a, b, 1e-8)
                   for a, b in zip(rec.exp_half, got.exp_half))


def test_max_coeff_abs_keeps_a_nan_that_is_not_first():
    p = PhasePoly(FF, 2, 3, {(1, 0): FF.one, (2, 0): complex(math.nan)})
    assert list(_terms(p)) == [(1, 0), (2, 0)]
    assert math.isnan(p.max_coeff_abs())
