"""The pure-Python kernels of linalg against numpy, scipy and mpmath: the
condition number by bidiagonalization and Sturm bisection, polynomial
roots by Aberth-Ehrlich iteration, on doubles and at extended precision,
and eigenpairs by Hessenberg reduction and shifted complex QR."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import mixed_float_fixture

from bnftrace import linalg
from bnftrace import recover as recover_module
from bnftrace.errors import ConvergenceError
from bnftrace.fields import FloatField, RationalField
from bnftrace.oscillatory import (OrbitExpansion, TestJet, extract_jets,
                                  forward_pairing)
from bnftrace.qbnf import make_trace_data
from bnftrace.recover import recover_qbnf
from bnftrace.series import zseries

FF = FloatField()
FR = RationalField()


def _matrix(rng, m, n, singular_values, real):
    """An m x n matrix U diag(s) V^H with random unitary (or orthogonal)
    U and V, as its columns."""
    def unitary(k):
        a = rng.normal(size=(k, k))
        if not real:
            a = a + 1j * rng.normal(size=(k, k))
        return np.linalg.qr(a)[0]

    a = (unitary(m)[:, :n] * singular_values) @ unitary(n).conj().T
    return a, [[complex(x) for x in col] for col in a.T]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 34),
       extra=st.integers(0, 6), log_cond=st.floats(0.1, 12),
       log_scale=st.floats(-5, 5), real=st.booleans())
def test_condition_number_agrees_with_numpy(seed, n, extra, log_cond,
                                            log_scale, real):
    """A random m x n matrix, m >= n, with singular values spread
    geometrically over 10^0.1 <= cond <= 1e12: sigma_max / sigma_min
    agrees with numpy's SVD within 1e-15 cond^2 relative."""
    s = np.geomspace(1, 10.0 ** -log_cond, n) * 10.0 ** log_scale
    a, cols = _matrix(np.random.default_rng(seed), n + extra, n, s, real)
    sv = np.linalg.svd(a, compute_uv=False)
    want = sv[0] / sv[-1]
    assert abs(linalg._cond(cols) - want) <= 1e-15 * want ** 3


@pytest.mark.parametrize("n", [1, 2, 7, 34])
def test_condition_number_of_a_unitary_matrix(n):
    """Where every singular value is 1, the rounding of either method
    splits them by a few units in the last place, so the ratio is 1 to
    within n + 8 of them, here and in numpy, rather than to 1e-15."""
    for seed in range(5):
        a, cols = _matrix(np.random.default_rng(seed), n + seed, n,
                          np.ones(n), seed % 2)
        sv = np.linalg.svd(a, compute_uv=False)
        for cond in (linalg._cond(cols), sv[0] / sv[-1]):
            assert abs(cond - 1) <= (n + 8) * 2.0 ** -52


@pytest.mark.parametrize("cols", [
    [[1, 2, 3], [0, 0, 0]],     # a zero column: rank 1 exactly
    [[0, 0, 0], [1, 2, 3]],     # the zero column first
    [[0, 0, 0], [0, 0, 0]],     # the zero matrix
    [],                         # no columns
])
def test_condition_number_of_a_singular_matrix_is_infinite(cols):
    cols = [[complex(x) for x in col] for col in cols]
    assert linalg._cond(cols) == math.inf
    if cols:
        sv = np.linalg.svd(np.array(cols).T, compute_uv=False)
        assert sv[-1] == 0


def test_condition_number_of_a_non_finite_matrix_is_infinite():
    assert linalg._cond([[1 + 0j, math.nan], [0j, 1 + 0j]]) == math.inf
    assert linalg._cond([[1 + 0j, math.inf], [0j, 1 + 0j]]) == math.inf


def test_roots_agree_with_numpy():
    """Monic polynomials of degree 1..8 with real or complex normal
    coefficients, every seventh with a zero root: each numpy root has its
    own match within 1e-12 relative, and a zero root is found exactly."""
    rng = np.random.default_rng(20240601)
    for trial in range(300):
        r = int(rng.integers(1, 9))
        tail = rng.normal(size=r)
        if trial % 2:
            tail = tail + 1j * rng.normal(size=r)
        if trial % 7 == 0:
            tail[0] = 0
        tail = [complex(c) for c in tail]
        got = linalg.poly_roots(FF, tail)
        assert len(got) == r
        for want in np.roots([1.0] + tail[::-1]):
            j = min(range(len(got)), key=lambda j: abs(got[j] - want))
            assert abs(got.pop(j) - want) <= 1e-12 * abs(want), (tail, want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
def test_roots_of_a_non_finite_polynomial_are_a_convergence_error(bad):
    with pytest.raises(ConvergenceError) as exc:
        linalg.poly_roots(FF, [1 + 0j, bad, 2 + 0j])
    msg = str(exc.value)
    assert "degree-3" in msg and "maxsteps=200" in msg


def test_roots_beyond_the_step_cap_are_a_convergence_error(monkeypatch):
    # (z - 1)(z - 2)(z - 3) takes more than one sweep from its start
    tail = [-6 + 0j, 11 + 0j, -6 + 0j]
    assert sorted(z.real for z in linalg.poly_roots(FF, tail)) == \
        pytest.approx([1, 2, 3], rel=1e-14)
    monkeypatch.setattr(linalg, "_ROOT_STEPS", 1)
    with pytest.raises(ConvergenceError) as exc:
        linalg.poly_roots(FF, tail)
    msg = str(exc.value)
    assert "degree-3" in msg and "maxsteps=1" in msg


def test_extended_roots_beyond_the_step_cap_are_a_convergence_error(
        monkeypatch):
    # the same cubic at 240 bits, where one sweep does not reach the
    # rounding of the field
    mpf = FloatField(precision=240)
    tail = [mpf.from_int(-6), mpf.from_int(11), mpf.from_int(-6)]
    got = sorted(linalg.poly_roots(mpf, tail), key=lambda z: z.real)
    assert all(abs(z - k) <= 2.0 ** -230 for z, k in zip(got, (1, 2, 3)))
    monkeypatch.setattr(linalg, "_ROOT_STEPS", 1)
    with pytest.raises(ConvergenceError) as exc:
        linalg.poly_roots(mpf, tail)
    msg = str(exc.value)
    assert "degree-3" in msg and "maxsteps=1" in msg


@pytest.mark.parametrize("precision", [128, 240])
def test_extended_roots_agree_with_mpmath(precision):
    """At 128 and 240 bits the field's roots match those of mpmath's
    polyroots at twice the precision within 2^(20 - precision) relative:
    monic polynomials of degree 1..8 with real or complex normal
    coefficients, and the roots E^2 and 1/E^2 of E = 10^12/7, which spread
    over 48 decades."""
    f = FloatField(precision)
    ctx = mpmath.mp.clone()
    ctx.prec = precision
    rng = np.random.default_rng(precision)
    tails = []
    for trial in range(40):
        r = int(rng.integers(1, 9))
        re, im = rng.normal(size=r), rng.normal(size=r) * (trial % 2)
        tails.append([f.from_rational(*map(Fraction, c)) for c in zip(re, im)])
    E2 = f.from_rational(Fraction(10 ** 12, 7) ** 2)
    tails.append([f.one, -(E2 + f.inv(E2))])
    for tail in tails:
        got = linalg.poly_roots(f, tail)
        assert len(got) == len(tail)
        for want in ctx.polyroots([f.one, *reversed(tail)], maxsteps=200,
                                  extraprec=precision):
            j = min(range(len(got)), key=lambda j: abs(got[j] - want))
            assert abs(got.pop(j) - want) <= 2.0 ** (20 - precision) \
                * abs(want), (tail, want)


def _random_symplectic(seed, n):
    """expm(J S), S a random symmetric 2n x 2n matrix: a real symplectic
    matrix, by rows."""
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(2 * n, 2 * n))
    j = np.block([[np.zeros((n, n)), np.eye(n)],
                  [-np.eye(n), np.zeros((n, n))]])
    return expm(j @ (s + s.T) * rng.uniform(0.1, 1.5)).tolist()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3))
def test_eigenpairs_of_a_random_symplectic_matrix(seed, n):
    """Each pair (lambda, v) of a random real symplectic 2n x 2n matrix M
    has a unit v and |M v - lambda v| <= 8 (2n) eps |M|, and the
    eigenvalues are numpy's as a multiset, each within 1e-10 |M|."""
    m = _random_symplectic(seed, n)
    a = np.array(m)
    norm = np.linalg.norm(a, 2)
    vals, vecs = linalg.eigenpairs(m)
    assert len(vals) == len(vecs) == 2 * n
    for lam, v in zip(vals, vecs):
        v = np.array(v)
        assert abs(np.linalg.norm(v) - 1) <= 1e-15
        assert np.linalg.norm(a @ v - lam * v) <= 8 * 2 * n * 2.0 ** -52 * norm
    got = list(vals)
    for want in np.linalg.eigvals(a):
        j = min(range(len(got)), key=lambda j: abs(got[j] - want))
        assert abs(got.pop(j) - want) <= 1e-10 * norm, (seed, n, want)


@pytest.mark.parametrize("rows", [
    [[2.0, 0.0], [0.0, 0.5]],
    [[1.0000000015, 0.0], [0.0, 0.9999999985]],
    [[0.1 + 0.2j, 0, 0], [0, -3.0, 0], [0, 0, 1 / 3]],
    [[1.0, 2.0, 3.0, 4.0], [0, 1 / 7, 5.0, 6.0], [0, 0, -2.5 + 1j, 7.0],
     [0, 0, 0, 1 / 3]],
], ids=["diag(2, 1/2)", "near identity", "complex diagonal", "triangular"])
def test_eigenvalues_of_a_triangular_matrix_are_its_diagonal(rows):
    """An upper triangular matrix takes no QR step: its eigenvalues are
    its diagonal, bit for bit and in order, and each v an eigenvector."""
    vals, vecs = linalg.eigenpairs(rows)
    assert vals == [complex(rows[i][i]) for i in range(len(rows))]
    a = np.array(rows, dtype=complex)
    for lam, v in zip(vals, vecs):
        assert np.linalg.norm(a @ np.array(v) - lam * np.array(v)) <= \
            8 * len(rows) * 2.0 ** -52 * np.linalg.norm(a, 2)


def test_eigenpairs_beyond_the_step_cap_are_a_convergence_error(
        monkeypatch):
    m = _random_symplectic(0, 2)
    assert len(linalg.eigenpairs(m)[0]) == 4
    monkeypatch.setattr(linalg, "_ROOT_STEPS", 1)
    with pytest.raises(ConvergenceError) as exc:
        linalg.eigenpairs(m)
    msg = str(exc.value)
    assert "Hessenberg-QR" in msg and "4 x 4" in msg and "maxsteps=1" in msg


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
def test_eigenpairs_of_a_non_finite_matrix_are_a_convergence_error(bad):
    with pytest.raises(ConvergenceError, match="non-finite entry"):
        linalg.eigenpairs([[1.0, bad], [2.0, 3.0]])


def test_condition_numbers_are_computed_only_where_read(monkeypatch):
    """A recovery computes the condition number of each factorization it
    reports, stage 0's Hankel tail and each stage matrix, and none for a
    Hankel probe that fails, the Prony weight fit or the refit steps;
    extract_jets computes none."""
    conds, factored, solved = [], [], []

    def counted(calls, fn):
        return lambda *args, **kwargs: calls.append(1) or fn(*args, **kwargs)

    def factor(field, rows):
        factored.append(linalg.factor_lstsq(field, rows))
        return factored[-1]

    monkeypatch.setattr(linalg, "_cond", counted(conds, linalg._cond))
    monkeypatch.setattr(recover_module, "factor_lstsq", factor)
    monkeypatch.setattr(recover_module, "solve_lstsq",
                        counted(solved, linalg.solve_lstsq))
    F, bnf = mixed_float_fixture(7)
    td = make_trace_data(bnf, zseries(F, 2, {1: F.one}), {}, 12, (2, 2))
    rep = recover_qbnf(td)
    assert not rep.failed
    # the n = 1 probe, two unknowns, is inconsistent for these n = 2 traces
    assert len(factored[0].r) == 2 and "cond" not in vars(factored[0])
    assert len(conds) == len(factored) - 1 >= 2 and len(solved) >= 2

    conds.clear()
    order, base = 3, FR.from_int(2)
    orbit = OrbitExpansion(
        FR, [FR.zero, base] + [FR.from_rational(q)
                               for q in ("1/3", "-2/5", "1/4")],
        {(0, 0): FR.one, (1, 0): FR.from_rational("1/7")})
    basis = [TestJet.delta(FR, base, 2 * order + 3, m)
             for m in range(order + 3)]
    pairings = [forward_pairing(orbit, g, order) for g in basis]
    got = extract_jets(pairings, basis, order, i0=FR.zero)
    assert got.i_jets == orbit.i_jets and got.a_jets == orbit.a_jets
    assert not conds


def test_float_least_squares_is_that_of_the_row_equilibrated_system():
    """x = 1, 10 x = 10 and x = 4: each row scaled to modulus 1 reads
    x = 1, 1, 4, whose least-squares x is 2; the unweighted one of the
    system as given is 105/102."""
    x, rnorm = linalg.solve_lstsq(FF, [[1 + 0j], [10 + 0j], [1 + 0j]],
                                  [1 + 0j, 10 + 0j, 4 + 0j], residual_tol=1)
    assert x[0] == pytest.approx(2, rel=1e-14)
    unweighted = np.linalg.lstsq(np.array([[1.0], [10.0], [1.0]]),
                                 np.array([1.0, 10.0, 4.0]), rcond=None)[0]
    assert unweighted[0] == pytest.approx(105 / 102, rel=1e-14)
    assert rnorm == pytest.approx(0.5, rel=1e-14)
