import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnftrace.errors import DimensionMismatchError, SchemaError
from bnftrace.fields import RationalField
from bnftrace.phasepoly import PhasePoly
from bnftrace.series import MultiSeries, Orders, zseries

F = RationalField()


def _z(orders=(0, 4, 0)):
    return MultiSeries.variable(F, 0, orders, "z")


def test_polynomial_addition():
    one = MultiSeries.scalar(F, 0, (0, 4, 0), F.one)
    z = _z()
    s = (one + z) + z * z
    assert s.get((), 0, 0) == F.one
    assert s.get((), 1, 0) == F.one
    assert s.get((), 2, 0) == F.one


def test_additive_identity():
    s = _z() + MultiSeries.scalar(F, 0, (0, 4, 0), F.from_rational("5/7"))
    zero = MultiSeries.zero(F, 0, (0, 4, 0))
    assert s + zero == s


def test_exact_rational_coefficient_sum():
    z = _z()
    s = z.scale(F.from_rational("1/3")) + z.scale(F.from_rational("2/3"))
    assert s == z


def test_product_difference_of_squares():
    one = MultiSeries.scalar(F, 0, (0, 4, 0), F.one)
    z = _z()
    p = (one + z) * (one - z)
    assert p.get((), 0, 0) == F.one
    assert p.get((), 1, 0) == F.zero
    assert p.get((), 2, 0) == -F.one


def test_truncation_kills_high_iota():
    i1 = MultiSeries.variable(F, 1, (1, 0, 0), ("iota", 0))
    assert (i1 * i1).is_zero()


def test_square_of_exponential_series():
    # (sum_{j<=3} z^j/j!)^2 must match sum_{j<=3} (2z)^j/j! to order 3
    terms = {((), j, 0): F.from_rational(Fraction(1, math.factorial(j)))
             for j in range(4)}
    e = MultiSeries(F, 0, (0, 3, 0), terms)
    sq = e * e
    for j in range(4):
        expected = F.from_rational(Fraction(2 ** j, math.factorial(j)))
        assert sq.get((), j, 0) == expected


def test_exp_series_of_z():
    z = MultiSeries.variable(F, 0, (0, 3, 0), "z")
    e = z.exp_series()
    assert e.get((), 0, 0) == F.one
    assert e.get((), 1, 0) == F.one
    assert e.get((), 2, 0) == F.from_rational("1/2")
    assert e.get((), 3, 0) == F.from_rational("1/6")


def test_exp_of_zero():
    e = MultiSeries.zero(F, 0, (0, 3, 2)).exp_series()
    assert e == MultiSeries.scalar(F, 0, (0, 3, 2), F.one)


def test_exp_cross_term():
    z = MultiSeries.variable(F, 0, (0, 2, 2), "z")
    h = MultiSeries.variable(F, 0, (0, 2, 2), "h")
    e = (z + h).exp_series()
    assert e.get((), 1, 1) == F.one  # from (z+h)^2/2


def test_exp_requires_zero_constant():
    s = MultiSeries.scalar(F, 0, (0, 2, 0), F.one)
    with pytest.raises(SchemaError):
        s.exp_series()


def test_derive_z_squared():
    z = _z()
    d = (z * z).derive("z")
    assert d.get((), 1, 0) == F.from_int(2)
    assert d.orders.z == 3


def test_derive_iota_product():
    i1 = MultiSeries.variable(F, 2, (3, 0, 0), ("iota", 0))
    i2 = MultiSeries.variable(F, 2, (3, 0, 0), ("iota", 1))
    d = (i1 * i2).derive(("iota", 0))
    assert d == MultiSeries(F, 2, (2, 0, 0), {((0, 1), 0, 0): F.one})


def test_derive_h_of_exp_zh():
    z = MultiSeries.variable(F, 0, (0, 2, 2), "z")
    h = MultiSeries.variable(F, 0, (0, 2, 2), "h")
    e = (z * h).exp_series()
    d = e.derive("h")
    # at h = 0 the derivative is z
    at0 = {m: c for ((), m, l), c in d.terms.items() if l == 0}
    assert at0 == {1: F.one}


def test_derive_unknown_variable():
    with pytest.raises(SchemaError):
        _z().derive("w")
    with pytest.raises(SchemaError):
        _z().derive(("iota", 0))


def test_dimension_mismatch():
    a = MultiSeries.variable(F, 1, (2, 0, 0), ("iota", 0))
    b = MultiSeries.variable(F, 2, (2, 0, 0), ("iota", 0))
    with pytest.raises(DimensionMismatchError):
        a + b
    with pytest.raises(DimensionMismatchError):
        a * b


def _random_series(rng, n_actions=2, orders=(4, 2, 2), nterms=6):
    terms = {}
    for _ in range(nterms):
        alpha = tuple(rng.randint(0, 2) for _ in range(n_actions))
        key = (alpha, rng.randint(0, orders[1]), rng.randint(0, orders[2]))
        terms[key] = F.from_rational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
    return MultiSeries(F, n_actions, orders, terms)


def test_ring_axioms_randomized_exact():
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (_random_series(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_exp_homomorphism_on_commuting_arguments():
    rng = random.Random(11)
    for _ in range(10):
        a = _random_series(rng, nterms=3)
        b = _random_series(rng, nterms=3)
        # force zero constant terms
        a = a - MultiSeries.scalar(F, 2, a.orders, a.constant_term())
        b = b - MultiSeries.scalar(F, 2, b.orders, b.constant_term())
        assert (a + b).exp_series() == a.exp_series() * b.exp_series()


def test_derivation_property_exact():
    rng = random.Random(13)
    for var in [("iota", 0), ("iota", 1), "z", "h"]:
        a = _random_series(rng)
        b = _random_series(rng)
        lhs = (a * b).derive(var)
        rhs = a.derive(var) * b + a * b.derive(var)
        assert lhs == rhs


def test_truncate_commutes_with_mul():
    rng = random.Random(17)
    a = _random_series(rng, orders=(4, 3, 3))
    b = _random_series(rng, orders=(4, 3, 3))
    t = (2, 1, 2)
    assert (a * b).truncate(t) == a.truncate(t) * b.truncate(t)


def test_truncate_cannot_extend():
    a = _random_series(random.Random(1), orders=(3, 2, 2))
    with pytest.raises(SchemaError):
        a.truncate((4, 2, 2))


def test_zseries_helper():
    s = zseries(F, 3, {1: F.one, 2: F.from_rational("1/2")})
    assert s.get((), 1, 0) == F.one
    assert s.n_actions == 0


# -- the shared core, on both layouts -----------------------------------------

def test_mixed_order_sum_and_product_drop_terms_beyond_joint_orders():
    z, h = (MultiSeries.variable(F, 1, (3, 3, 3), v) for v in ("z", "h"))
    i1 = MultiSeries.variable(F, 1, (3, 3, 3), ("iota", 0))
    big = z * z * z + h * h + i1 * i1 * i1 + z
    small = MultiSeries.scalar(F, 1, (2, 1, 2), F.one)
    for s in (big + small, small + big, big * small, small * big):
        assert s.orders == Orders(2, 1, 2)
        assert all(sum(alpha) <= 2 and m <= 1 and l <= 2
                   for alpha, m, l in s.terms)
    assert (big + small).terms == {((0,), 0, 2): F.one, ((0,), 1, 0): F.one,
                                   ((0,), 0, 0): F.one}
    assert (big * small).terms == {((0,), 0, 2): F.one, ((0,), 1, 0): F.one}

    x = PhasePoly.variable(F, 2, 4, 0)
    p = x * x * x + x
    q = PhasePoly.scalar(F, 2, 2, F.one)
    for s in (p + q, q + p, p * q, q * p):
        assert s.degree == 2
        assert all(sum(e) <= 2 for e in s.terms)
    assert (p + q).terms == {(1, 0): F.one, (0, 0): F.one}
    assert (p * q).terms == {(1, 0): F.one}


def test_phasepoly_arity_mismatch():
    a = PhasePoly.variable(F, 2, 3, 0)
    b = PhasePoly.variable(F, 4, 3, 0)
    with pytest.raises(DimensionMismatchError):
        a * b
    with pytest.raises(DimensionMismatchError):
        a + b
    with pytest.raises(DimensionMismatchError):
        PhasePoly(F, 2, 3, {(1, 0, 0): F.one})
    with pytest.raises(SchemaError):
        PhasePoly(F, 2, 3, {(-1, 0): F.one})


# Reference algorithms: the per-pair loops each class ran before the core,
# followed by the public constructor's truncation and zero pruning.

def _ref_clean(terms, fits):
    return {k: c for k, c in terms.items() if fits(k) and not F.is_zero(c)}


def _ref_add(a, b, fits):
    terms = dict(a.terms)
    for key, coeff in b.terms.items():
        terms[key] = terms[key] + coeff if key in terms else coeff
    return _ref_clean(terms, fits)


def _ref_scale(a, value):
    return _ref_clean({k: value * c for k, c in a.terms.items()},
                      lambda k: True)


def _ref_series_mul(a, b, orders):
    terms = {}
    for (a1, m1, l1), c1 in a.terms.items():
        for (a2, m2, l2), c2 in b.terms.items():
            m, l = m1 + m2, l1 + l2
            if m > orders.z or l > orders.h:
                continue
            alpha = tuple(x + y for x, y in zip(a1, a2))
            if sum(alpha) > orders.iota:
                continue
            key = (alpha, m, l)
            prod = c1 * c2
            terms[key] = terms[key] + prod if key in terms else prod
    return _ref_clean(terms, lambda k: True)


def _ref_phase_mul(a, b, deg):
    terms = {}
    for e1, c1 in a.terms.items():
        d1 = sum(e1)
        for e2, c2 in b.terms.items():
            if d1 + sum(e2) > deg:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            v = c1 * c2
            terms[e] = terms[e] + v if e in terms else v
    return _ref_clean(terms, lambda k: True)


# few distinct values, so that sums cancel to zero and get pruned
_coeffs = st.sampled_from([F.one, -F.one, F.from_rational("1/2"),
                           F.from_rational("-1/2"), F.i, F.from_int(3)])
_exp = st.integers(0, 3)


@st.composite
def _series_pair(draw):
    n = draw(st.integers(0, 2))
    key = st.tuples(st.tuples(*[_exp] * n), _exp, _exp)
    ords = st.tuples(*[st.integers(0, 4)] * 3)
    return [MultiSeries(F, n, draw(ords),
                        draw(st.dictionaries(key, _coeffs, max_size=8)))
            for _ in range(2)]


@st.composite
def _phase_pair(draw):
    nv = draw(st.integers(1, 4))
    key = st.tuples(*[_exp] * nv)
    return [PhasePoly(F, nv, draw(st.integers(0, 5)),
                      draw(st.dictionaries(key, _coeffs, max_size=8)))
            for _ in range(2)]


def _items(d):
    return list(d.items())


@settings(max_examples=150, deadline=None)
@given(_series_pair(), _coeffs)
def test_series_core_matches_reference(pair, value):
    a, b = pair
    orders = Orders(*map(min, a.orders, b.orders))
    fits = lambda k: (sum(k[0]) <= orders.iota and k[1] <= orders.z
                      and k[2] <= orders.h)
    assert _items((a + b).terms) == _items(_ref_add(a, b, fits))
    assert _items((a - b).terms) == _items(_ref_add(a, -b, fits))
    assert _items((a * b).terms) == _items(_ref_series_mul(a, b, orders))
    assert _items(a.scale(value).terms) == _items(_ref_scale(a, value))
    assert _items(a.scale(F.zero).terms) == []
    assert (a * b).orders == (a + b).orders == orders


@settings(max_examples=150, deadline=None)
@given(_phase_pair(), _coeffs)
def test_phasepoly_core_matches_reference(pair, value):
    a, b = pair
    deg = min(a.degree, b.degree)
    fits = lambda e: sum(e) <= deg
    assert _items((a + b).terms) == _items(_ref_add(a, b, fits))
    assert _items((a - b).terms) == _items(_ref_add(a, -b, fits))
    assert _items((a * b).terms) == _items(_ref_phase_mul(a, b, deg))
    assert _items(a.scale(value).terms) == _items(_ref_scale(a, value))
    assert (a * b).degree == (a + b).degree == deg
