import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import random_symplectic_2x2

from bnftrace import classical, phasepoly
from bnftrace.blocks import (COMPLEX_HYPERBOLIC, ELLIPTIC, REAL_HYPERBOLIC,
                             SpectrumBlocks)
from bnftrace.classical import (TaylorMap, birkhoff_normal_form,
                                check_nonresonance, classify_eigenvalues,
                                iota_real_to_complex, linear_normalize,
                                normal_form_flow)
from bnftrace.errors import (MathError, ResonanceError, SchemaError,
                             SmallDenominatorError)
from bnftrace.fields import FloatField, RationalField
from bnftrace.phasepoly import PhasePoly, PolyMap, exp_ham
from bnftrace import hypcalc as hc

FF = FloatField()
FR = RationalField()


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
    assert b.n_e == 1 and b.n_rh == 0 and b.n_ch == 0
    assert abs(b.mu()[0] - 1j) < 1e-12


def test_classify_hyperbolic():
    b = classify_eigenvalues(np.diag([2.0, 0.5]))
    assert b.n_rh == 1
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
    assert b.n_ch == 1 and b.n == 2
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


def test_check_nonresonance_examples():
    b = SpectrumBlocks.from_mu(FF, [(ELLIPTIC, 1j),
                                    (ELLIPTIC, math.sqrt(2) * 1j)])
    ok, w = check_nonresonance(b, 10)
    assert ok and w is None
    b2 = SpectrumBlocks.from_mu(FF, [(ELLIPTIC, 2j * math.pi / 3)])
    ok2, w2 = check_nonresonance(b2, 3)
    assert not ok2 and w2 == ((3,), 1)
    b3 = SpectrumBlocks.from_mu(FF, [(REAL_HYPERBOLIC, math.log(2))])
    ok3, _ = check_nonresonance(b3, 20)
    assert ok3


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
        assert comp.terms == {(1, 0): FF.one, (2, 1): FF.one * 0.5}
    tm = TaylorMap(FF, 1, 5, [foreign, {(0, 1): FF.one}], validate=False)
    assert tm.pmap.comps[0] is not foreign
    assert tm.pmap.comps[0].field is FF
    assert tm.pmap.comps[0].terms == terms
    with pytest.raises(SchemaError):
        TaylorMap(FF, 1, 5, [{(1, -1): FF.one}, {(0, 1): FF.one}],
                  validate=False)


def test_taylor_map_requires_fixed_origin():
    with pytest.raises(SchemaError):
        TaylorMap(FF, 1, 3, [{(0, 0): FF.one, (1, 0): FF.one},
                             {(0, 1): FF.one}])


# -- linear normalization ------------------------------------------------


def test_linear_normalize_block_form_is_fixed():
    # a map already in block form commutes with the normalizing rotation,
    # so the conjugated map equals the input
    tm = _map_from_matrix(FF, rotation(0.9))
    out, T, _blocks = linear_normalize(tm)
    M = out.linear_matrix_complex().real
    assert np.max(np.abs(M - rotation(0.9))) < 1e-12
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.max(np.abs(T.T @ J @ T - J)) < 1e-12


def test_linear_normalize_conjugated_rotation():
    rng = random.Random(4)
    S = random_symplectic_2x2(rng)
    M = S @ rotation(1.3) @ np.linalg.inv(S)
    tm = _map_from_matrix(FF, M)
    out, T, blocks = linear_normalize(tm)
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.max(np.abs(T.T @ J @ T - J)) < 1e-12
    B = out.linear_matrix_complex().real
    assert np.max(np.abs(B - rotation(1.3))) < 1e-10
    assert blocks.tags == (ELLIPTIC,)
    assert abs(blocks.mu()[0] - 1.3j) < 1e-10


def test_linear_normalize_hyperbolic_mixed_axes():
    rng = random.Random(8)
    S = random_symplectic_2x2(rng)
    M = S @ np.diag([3.0, 1 / 3.0]) @ np.linalg.inv(S)
    tm = _map_from_matrix(FF, M)
    out, T, blocks = linear_normalize(tm)
    B = out.linear_matrix_complex().real
    assert np.max(np.abs(B - np.diag([3.0, 1 / 3.0]))) < 1e-12
    assert blocks.tags == (REAL_HYPERBOLIC,)
    assert abs(blocks.mu()[0] - math.log(3.0)) < 1e-12
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.max(np.abs(T.T @ J @ T - J)) < 1e-12


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
    R = iota_real_to_complex(blocks.tags, {(1, 1): FF.one * 0.2}, FF)
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
    tm = TaylorMap(field, 1, 7, kappa.comps, tol=1e-9)
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
    comp_terms = [list(c.terms.items()) for c in tm.pmap.comps]
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
                 tuple(int(i == j) for i in range(2)), FF.zero)).real
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
    theta = 2 * math.pi / 3 + 1e-9
    chi = PhasePoly(FF, 2, 5, {(3, 0): 0.1 + 0j})
    lam = PolyMap.from_linear(
        FF, 1, 5,
        [[FF.one * complex(x) for x in row] for row in rotation(theta)])
    tm = TaylorMap(FF, 1, 5, lam.compose(exp_ham(chi, 1, 5)).comps,
                   validate=False)
    # keep the resonance scan below order 3 so the division itself trips
    with pytest.raises(SmallDenominatorError) as exc:
        birkhoff_normal_form(tm, 2, resonance_order=2,
                             small_denominator_tol=1e-8)
    assert exc.value.witness is not None


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


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_paired_lie_series_inverse_is_the_series_of_minus_chi(data):
    """exp_ham's inverse is exp_ham(-chi) term for term: the same keys in
    the same order and equal values (on doubles only the sign of a zero
    part may differ, as -(a * b) and a * (-b) round alike), and the pair
    composes to the identity through the truncation degree."""
    field = data.draw(st.sampled_from([FR, FF]))
    n = data.draw(st.integers(1, 2))
    degree = data.draw(st.integers(4, 7 - n))
    chi = _random_generator(data.draw, field, n, degree)
    fwd, bwd = exp_ham(chi, n, degree, inverse=True)
    ref_fwd = exp_ham(chi, n, degree)
    ref_bwd = exp_ham(chi.scale(-field.one), n, degree)
    for got, want in zip(fwd.comps + bwd.comps,
                         ref_fwd.comps + ref_bwd.comps):
        assert list(got.terms) == list(want.terms)
        assert list(got.terms.values()) == list(want.terms.values())
    identity = PolyMap.identity(field, n, degree)
    for pair in (fwd.compose(bwd), bwd.compose(fwd)):
        for got, want in zip(pair.comps, identity.comps):
            diff = got - want
            if field.exact:
                assert diff.is_zero()
            else:
                assert diff.max_coeff_abs() <= 1e-12


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


# -- composition ------------------------------------------------------------

def _reference_compose(outer, inner):
    """outer(inner(w)) the way PolyMap.compose did it before the prefix
    stack: every monomial of every component rebuilt from full powers."""
    deg = min(outer.degree, inner.degree)
    f = outer.field
    nv = 2 * outer.n
    max_exp = [0] * nv
    for comp in outer.comps:
        for e in comp.terms:
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
        for e, c in comp.terms.items():
            factors = [pows[j][p] for j, p in enumerate(e) if p]
            term = (factors[0].scale(c) if factors
                    else PhasePoly.scalar(f, nv, deg, c))
            for g in factors[1:]:
                term = term * g
            acc = acc + term
        out.append(acc)
    return PolyMap(f, outer.n, deg, out)


_coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                    st.integers(1, 7))


@st.composite
def _poly_map(draw, n, degree, unused=None):
    """A random exact PolyMap; monomials avoid variable ``unused``."""
    nv = 2 * n
    monos = [e for e in itertools.product(range(degree + 1), repeat=nv)
             if sum(e) <= degree and (unused is None or e[unused] == 0)]
    comps = []
    for _ in range(nv):
        keys = draw(st.lists(st.sampled_from(monos), max_size=6, unique=True))
        comps.append(PhasePoly(FR, nv, degree, {
            e: FR.from_rational(draw(_coeffs)) for e in keys}))
    return PolyMap(FR, n, degree, comps)


@st.composite
def _composable_pair(draw):
    n = draw(st.integers(1, 2))
    outer = draw(_poly_map(n, draw(st.integers(1, 5)),
                           unused=draw(st.integers(0, 2 * n - 1))))
    outer.comps[draw(st.integers(0, 2 * n - 1))] = PhasePoly.zero(
        FR, 2 * n, outer.degree)
    # the inner map may carry constant terms and has its own degree
    inner = draw(_poly_map(n, draw(st.integers(1, 5))))
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
