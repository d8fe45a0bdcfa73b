import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lattice_sum_oracle, picard_coth_csch_series

from bnftrace.errors import ConvergenceError, PoleError, SchemaError
from bnftrace.fields import FloatField, RationalField
from bnftrace import hypcalc as hc
from bnftrace.phasepoly import MAX_DEGREE, PhasePoly
from bnftrace.series import zseries

FR = RationalField()
FF = FloatField()


def test_bare_product_rational_value():
    e = hc.csch_product(FR, 1, 1)
    v = hc.eval_csch(e, exp_half=[FR.from_int(2)])  # mu = 2 ln 2
    assert v == FR.from_rational("2/3")


def test_bare_product_two_factors():
    e = hc.csch_product(FR, 2, 1)
    v = hc.eval_csch(e, exp_half=[FR.from_int(2), FR.from_int(3)])
    assert v == FR.from_rational("1/4")  # (2/3)*(3/8)


def test_k_rescaling_identity():
    # n=1, k=2 at mu = ln 2 equals k=1 at mu = 2 ln 2
    e2 = hc.csch_product(FF, 1, 2)
    v2 = hc.eval_csch(e2, mu=[math.log(2)])
    assert abs(v2 - 2 / 3) < 1e-14


def test_elliptic_point_value():
    e = hc.csch_product(FF, 1, 1)
    v = hc.eval_csch(e, mu=[1j * math.pi / 2])
    assert abs(v - (-1j / math.sqrt(2))) < 1e-14


def test_pole_detection():
    e = hc.csch_product(FF, 1, 1)
    with pytest.raises(PoleError):
        hc.eval_csch(e, mu=[2j * math.pi])
    e_exact = hc.csch_product(FR, 1, 2)
    with pytest.raises(PoleError):
        hc.eval_csch(e_exact, exp_half=[FR.from_int(1)])


def test_first_derivative_value():
    d1 = hc.apply_derivative(hc.csch_product(FR, 1, 1), 0)
    v = hc.eval_csch(d1, exp_half=[FR.from_int(2)])
    assert v == FR.from_rational("-5/9")


def test_second_derivative_value():
    d2 = hc.apply_derivatives(hc.csch_product(FR, 1, 1), (2,))
    v = hc.eval_csch(d2, exp_half=[FR.from_int(2)])
    assert v == FR.from_rational("41/54")


def test_second_derivative_matches_finite_differences():
    # the difference quotient needs more than double precision at step 1e-5
    FP = FloatField(precision=200)
    d2 = hc.apply_derivatives(hc.csch_product(FP, 1, 1), (2,))
    mu0 = 2 * FP._mp.log(2)
    v = hc.eval_csch(d2, exp_half=[FP.exp(mu0 * 0.5)])
    e = hc.csch_product(FP, 1, 1)
    step = FP._mp.mpf("1e-5")

    def f(x):
        return hc.eval_csch(e, exp_half=[FP.exp(x * 0.5)])

    fd = (f(mu0 + step) - 2 * f(mu0) + f(mu0 - step)) / step ** 2
    assert FP.abs(v - fd) < 1e-8


def test_derivative_of_zero_polynomial():
    e = hc.CschExpression(1, PhasePoly.zero(FR, 1, 0))
    d = hc.apply_derivative(e, 0)
    assert d.poly.terms == {} and d.poly.degree == 1


def test_a_derivative_past_the_key_limit_is_refused():
    """Each derivative raises the degree bound by one, and a monomial key
    holds degrees up to MAX_DEGREE = 255."""
    e = hc.CschExpression(1, PhasePoly.scalar(FR, 1, MAX_DEGREE, FR.one))
    with pytest.raises(SchemaError, match="degree 256 is above the limit 255"):
        hc.apply_derivative(e, 0)


def test_derivative_index_out_of_range():
    with pytest.raises(SchemaError):
        hc.apply_derivative(hc.csch_product(FR, 2, 1), 2)


def test_derivatives_commute_exactly():
    e = hc.csch_product(FR, 2, 3)
    ab = hc.apply_derivative(hc.apply_derivative(e, 0), 1)
    ba = hc.apply_derivative(hc.apply_derivative(e, 1), 0)
    assert ab.poly.terms == ba.poly.terms


def test_series_constant_exponent():
    e = hc.csch_product(FR, 1, 1)
    s = hc.eval_series_in_z(e, [FR.from_int(2)], None, 3)
    assert s.get((), 0, 0) == FR.from_rational("2/3")
    assert s.get((), 1, 0) == FR.zero


def test_series_linear_jet_matches_chain_rule():
    e = hc.csch_product(FR, 1, 1)
    delta = zseries(FR, 3, {1: FR.one})
    s = hc.eval_series_in_z(e, [FR.from_int(2)], [delta], 3)
    assert s.get((), 1, 0) == FR.from_rational("-5/9")
    assert s.get((), 2, 0) == FR.from_rational("41/108")  # second deriv / 2!


def test_series_order_zero_equals_eval():
    rng = random.Random(5)
    for n in (1, 2):
        e = hc.csch_product(FF, n, 2)
        for j in range(n):
            e = hc.apply_derivative(e, j)
        ehm = [cmath.exp(0.5 * rng.uniform(0.5, 2.0)) for _ in range(n)]
        deltas = [zseries(FF, 2, {1: 0.3 + 0j}) for _ in range(n)]
        s = hc.eval_series_in_z(e, ehm, deltas, 2)
        assert abs(s.get((), 0, 0) - hc.eval_csch(e, exp_half=ehm)) < 1e-13


@st.composite
def _coth_csch_case(draw):
    """An exponent E (rational rh, Pythagorean elliptic, or complex in
    Q(i)), a jet delta with zero constant term, a power k and a z-order."""
    small = st.integers(1, 6)
    kind = draw(st.sampled_from(["rh", "el", "ch"]))
    if kind == "rh":
        q = draw(small)
        E = (Fraction(q + draw(small), q), Fraction(0))
    elif kind == "el":
        m = draw(st.integers(2, 6))
        n = draw(st.integers(1, m - 1))
        E = (Fraction(m * m - n * n, m * m + n * n),
             Fraction(2 * m * n, m * m + n * n))
    else:
        re, im = draw(small), draw(small)
        r = draw(small.filter(lambda r: r * r < re * re + im * im))
        E = (Fraction(re, r), Fraction(im, r))
    n_z = draw(st.integers(0, 4))
    coeff = st.fractions(-3, 3, max_denominator=5)
    jet = {m: (draw(coeff), draw(coeff))
           for m in range(1, draw(st.integers(0, n_z + 1)) + 1)
           if draw(st.booleans())}
    return E, jet, draw(st.integers(1, 5)), n_z


@settings(max_examples=40, deadline=None)
@given(_coth_csch_case())
def test_coth_csch_recurrence_equals_picard_sweeps(case):
    """The one-pass recurrence gives the Picard sweeps' series: exactly on
    the rational field, within 1e-13 relative on doubles."""
    E, jet, k, n_z = case
    for field in (FR, FF):
        E0 = field.from_rational(*E)
        delta = zseries(field, max(jet, default=0),
                        {m: field.from_rational(*c) for m, c in jet.items()})
        got = hc.coth_csch_series(field, E0, delta, k, n_z)
        ref = picard_coth_csch_series(field, E0, delta, k, n_z)
        for g, r in zip(got, ref):
            assert g.orders == r.orders
            if field.exact:
                assert g == r
                continue
            scale = max(field.abs(c) for c in r.terms.values())
            keys = set(g.terms) | set(r.terms)
            assert all(field.abs(g.terms.get(key, 0) - r.terms.get(key, 0))
                       <= 1e-13 * scale for key in keys)


@st.composite
def _exponent(draw):
    """E of every kind the csch tables meet: rh E > 1, 0 < E < 1 and
    E < 0, elliptic from a Pythagorean triple, or complex hyperbolic."""
    small = st.integers(1, 6)
    kind = draw(st.sampled_from(["rh", "rh<1", "neg", "el", "ch"]))
    if kind in ("rh", "rh<1", "neg"):
        q, r = draw(small), draw(small)
        E = {"rh": Fraction(q + r, q), "rh<1": Fraction(q, q + r),
             "neg": Fraction(-q, q + r) if r % 2 else Fraction(-q - r, q),
             }[kind]
        return FR.from_rational(E)
    if kind == "el":
        m = draw(st.integers(2, 6))
        n = draw(st.integers(1, m - 1))
        return FR.from_rational(Fraction(m * m - n * n, m * m + n * n),
                                Fraction(2 * m * n, m * m + n * n))
    re, im = draw(small), draw(small)
    r = draw(small.filter(lambda r: r * r != re * re + im * im))
    return FR.from_rational(Fraction(re, r), Fraction(im, r))


@settings(max_examples=60, deadline=None)
@given(_exponent(), st.sampled_from([(6, 5, 3), (2, 7, 1), (4,), (3, 1, 2)]),
       st.integers(0, 12))
def test_closed_form_rows_equal_the_recurrence(E, ks, p):
    """The Eulerian closed form gives the coth/csch recurrence's rows
    exactly, grown in one step or two, over unsorted powers."""
    want = hc.CschTaylor(FR, E, ks).grow(p).d
    got = hc.CschClosedForm(E, ks).grow(p // 2)
    assert got.d == want[:p // 2 + 1]
    assert got.grow(p).d == want
    assert all((x.a, x.b, x.d) == (y.a, y.b, y.d)
               for row, ref in zip(got.d, want) for x, y in zip(row, ref))


def test_closed_form_refuses_the_recurrence_poles():
    """E = i is a pole at even k: both tables name the first such power in
    their order, with one text; odd powers alone make a table."""
    for ks in ((6, 5, 3), (1, 3, 2, 4), (5, 4)):
        texts = []
        for make in (lambda: hc.CschTaylor(FR, FR.i, ks),
                     lambda: hc.CschClosedForm(FR.i, ks)):
            with pytest.raises(PoleError) as err:
                make()
            texts.append(str(err.value))
        first = next(k for k in ks if k % 2 == 0)
        assert texts[0] == texts[1]
        assert texts[0].endswith(f"(E={FR.i!r}, k={first})")
    assert (hc.CschClosedForm(FR.i, (3, 1)).grow(4).d
            == hc.CschTaylor(FR, FR.i, (3, 1)).grow(4).d)


def _to_mpc(x):
    return mpmath.mpc(mpmath.mpf(x.a) / x.d, mpmath.mpf(x.b) / x.d)


@pytest.mark.parametrize("E", [
    FR.from_int(3), FR.from_rational("5/4"), FR.from_rational("3/5", "4/5"),
    FR.from_rational("5/13", "12/13"),
])
@pytest.mark.parametrize("jet", [
    {1: FR.one},
    {1: FR.from_rational("1/2"), 2: FR.from_rational("-2/5")},
    {2: FR.from_rational("1/3"), 4: FR.from_rational("-3/7")},
    {1: FR.from_rational(0, "1/2"), 3: FR.from_rational("1/4", "1/3"),
     4: FR.from_rational("2/9")},
])
def test_coth_csch_series_against_mpmath_taylor(E, jet):
    """The exact series equal the Taylor coefficients of coth and csch of
    k (mu0 + delta(z)) / 2, mu0 = 2 log E, from mpmath at 50 digits."""
    n_z = 4
    delta = zseries(FR, n_z, jet)
    with mpmath.workdps(50):
        mu0 = 2 * mpmath.log(_to_mpc(E))
        djet = {m: _to_mpc(c) for m, c in jet.items()}

        def arg(k, z):
            return k * (mu0 + sum(c * z**m for m, c in djet.items())) / 2

        for k in (1, 2, 3):
            T, C = hc.coth_csch_series(FR, E, delta, k, n_z)
            want_T = mpmath.taylor(lambda z: mpmath.coth(arg(k, z)), 0, n_z)
            want_C = mpmath.taylor(lambda z: mpmath.csch(arg(k, z)), 0, n_z)
            for got, want in ((T, want_T), (C, want_C)):
                scale = max(abs(w) for w in want)
                for m, w in enumerate(want):
                    assert abs(_to_mpc(got.get((), m, 0)) - w) <= \
                        mpmath.mpf("1e-35") * scale


def test_coth_csch_series_without_jet_is_constant():
    E = FR.from_int(2)
    T0, C0 = hc.coth_csch_series(FR, E, None, 1, 0)
    for delta, n_z in ((None, 3), (zseries(FR, 3), 3),
                       (zseries(FR, 3, {1: FR.one}), 0),
                       (zseries(FR, 3, {4: FR.one}), 3)):
        T, C = hc.coth_csch_series(FR, E, delta, 1, n_z)
        assert T.terms == T0.terms and C.terms == C0.terms
        assert T.orders.z == C.orders.z == n_z
    assert T0.get((), 0, 0) == FR.from_rational("5/3")
    assert C0.get((), 0, 0) == FR.from_rational("4/3")
    with pytest.raises(SchemaError):
        hc.coth_csch_series(FR, E, zseries(FR, 2, {0: FR.one}), 1, 2)


def test_third_derivative_vs_finite_differences():
    # derivatives up to third order against central differences of the
    # underived product at step 1e-4; evaluated in extended precision so
    # the check is limited by the O(step^2) truncation, not by rounding
    FP = FloatField(precision=200)
    mp = FP._mp
    mu0 = mp.mpf("1.1")
    h = mp.mpf("1e-4")
    e = hc.csch_product(FP, 1, 1)

    def f(x):
        return hc.eval_csch(e, exp_half=[FP.exp(x * 0.5)])

    for order, fd in [
        (1, (f(mu0 + h) - f(mu0 - h)) / (2 * h)),
        (2, (f(mu0 + h) - 2 * f(mu0) + f(mu0 - h)) / h ** 2),
        (3, (f(mu0 + 2 * h) - 2 * f(mu0 + h) + 2 * f(mu0 - h)
             - f(mu0 - 2 * h)) / (2 * h ** 3)),
    ]:
        expr = hc.apply_derivatives(hc.csch_product(FP, 1, 1), (order,))
        v = hc.eval_csch(expr, exp_half=[FP.exp(mu0 * 0.5)])
        assert FP.abs(v - fd) < 1e-6


def test_lattice_sum_geometric_series_exact_tail():
    v = lattice_sum_oracle({(0,): FR.one}, exp_half=[FR.from_int(2)],
                           k=1, truncation=60, field=FR)
    err = v - FR.from_rational("2/3")
    assert (err * err.conjugate()).re < Fraction(1, 10 ** 60)  # |err| < 1e-30


def test_lattice_sum_linear_matches_coth_calculus():
    # p(y) = y vs i * d/dmu of the product, both exact up to the tail
    oy = lattice_sum_oracle({(1,): FR.one}, exp_half=[FR.from_int(2)],
                            k=1, truncation=60, field=FR)
    d1 = hc.apply_derivative(hc.csch_product(FR, 1, 1), 0)
    iv = FR.i * hc.eval_csch(d1, exp_half=[FR.from_int(2)])
    assert FR.abs(oy - iv) < 1e-12


def test_lattice_sum_divergence_error():
    with pytest.raises(ConvergenceError):
        lattice_sum_oracle({(0,): FF.one}, mu=[1j], k=1, truncation=10,
                           field=FF)
    with pytest.raises(ConvergenceError):
        lattice_sum_oracle({(0,): FR.one}, exp_half=[FR.one], k=1,
                           truncation=10, field=FR)


def test_derivative_identity_against_lattice_sums():
    """eval(apply_derivative^alpha) agrees with the lattice-sum oracle for
    random hyperbolic exponents -- the identity behind the geometric
    expansion of the csch product."""
    rng = random.Random(23)
    for n in (1, 2):
        for k in (1, 2, 3, 4):
            mu = [rng.uniform(0.5, 2.0) for _ in range(n)]
            ehm = [cmath.exp(m / 2) for m in mu]
            for _ in range(3):
                alpha = tuple(rng.randint(0, 2) for _ in range(n))
                if sum(alpha) > 4:
                    continue
                expr = hc.apply_derivatives(hc.csch_product(FF, n, k), alpha)
                direct = hc.eval_csch(expr, exp_half=ehm)
                # oracle computes p(ik^{-1} d_mu) applied value for p = y^alpha
                oracle = lattice_sum_oracle({alpha: FF.one}, exp_half=ehm,
                                            k=k, truncation=80, field=FF)
                factor = (1j / k) ** sum(alpha)
                assert abs(factor * direct - oracle) <= 1e-10 * max(
                    1.0, abs(oracle))
