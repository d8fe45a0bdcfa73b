import math
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bnftrace.errors import DimensionMismatchError, SchemaError
from bnftrace.fields import FloatField, RationalField
from bnftrace.phasepoly import MAX_DEGREE, PhasePoly, exponents, monomial
from bnftrace.series import MultiSeries, Orders, powers, zseries

F = RationalField()
FF = FloatField()


def _z(orders=(0, 4, 0)):
    return MultiSeries(F, 0, orders, {((), 1, 0): F.one})


def _h(orders):
    return MultiSeries(F, 0, orders, {((), 0, 1): F.one})


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
    i1 = MultiSeries(F, 1, (1, 0, 0), {((1,), 0, 0): F.one})
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
    e = _z((0, 3, 0)).exp_series()
    assert e.get((), 0, 0) == F.one
    assert e.get((), 1, 0) == F.one
    assert e.get((), 2, 0) == F.from_rational("1/2")
    assert e.get((), 3, 0) == F.from_rational("1/6")


def test_exp_of_zero():
    e = MultiSeries.zero(F, 0, (0, 3, 2)).exp_series()
    assert e == MultiSeries.scalar(F, 0, (0, 3, 2), F.one)


def test_exp_cross_term():
    e = (_z((0, 2, 2)) + _h((0, 2, 2))).exp_series()
    assert e.get((), 1, 1) == F.one  # from (z+h)^2/2


def test_exp_requires_zero_constant():
    s = MultiSeries.scalar(F, 0, (0, 2, 0), F.one)
    with pytest.raises(SchemaError):
        s.exp_series()


def test_dimension_mismatch():
    a = MultiSeries(F, 1, (2, 0, 0), {((1,), 0, 0): F.one})
    b = MultiSeries(F, 2, (2, 0, 0), {((1, 0), 0, 0): F.one})
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


def test_truncate_commutes_with_mul():
    rng = random.Random(17)
    a = _random_series(rng, orders=(4, 3, 3))
    b = _random_series(rng, orders=(4, 3, 3))
    # a series is truncated as the program does it: built at lower orders
    def cut(s):
        return MultiSeries(F, s.n_actions, (2, 1, 2), s.terms)

    assert cut(a * b) == cut(a) * cut(b)


def test_zseries_helper():
    s = zseries(F, 3, {1: F.one, 2: F.from_rational("1/2")})
    assert s.get((), 1, 0) == F.one
    assert s.n_actions == 0


# -- the shared core, on both layouts -----------------------------------------

def test_mixed_order_sum_and_product_drop_terms_beyond_joint_orders():
    z, h, i1 = (MultiSeries(F, 1, (3, 3, 3), {key: F.one})
                for key in (((0,), 1, 0), ((0,), 0, 1), ((1,), 0, 0)))
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
        assert all(sum(e) <= 2 for e in _terms(s))
    assert _terms(p + q) == {(1, 0): F.one, (0, 0): F.one}
    assert _terms(p * q) == {(1, 0): F.one}


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


# -- PhasePoly's packed keys ---------------------------------------------------

@st.composite
def _exponent_lists(draw):
    """Exponent tuples in 1 to 6 variables, each of degree <= MAX_DEGREE."""
    nv = draw(st.integers(1, 6))

    def one():
        left, exps = MAX_DEGREE, []
        for _ in range(nv):
            exps.append(draw(st.integers(0, left)))
            left -= exps[-1]
        return tuple(exps)

    return [one() for _ in range(draw(st.integers(1, 8)))]


@settings(max_examples=150, deadline=None)
@given(_exponent_lists())
def test_packed_keys_follow_their_exponent_tuples(exps):
    """A key unpacks to its exponents, a product key is the sum of the
    keys, and keys sort as their exponent tuples do lexicographically."""
    nv = len(exps[0])
    keys = [monomial(e) for e in exps]
    assert [exponents(k, nv) for k in keys] == exps
    for e1, k1 in zip(exps, keys):
        for e2, k2 in zip(exps, keys):
            if sum(e1) + sum(e2) <= MAX_DEGREE:
                assert monomial(tuple(map(add, e1, e2))) == k1 + k2
    assert sorted(keys) == [monomial(e) for e in sorted(exps)]


def test_phasepoly_degree_is_limited_by_its_key_fields():
    """A bound above MAX_DEGREE is refused, naming bound and limit; a term
    beyond the bound is dropped before it is packed, even one whose
    exponents no field holds."""
    with pytest.raises(SchemaError, match=f"degree {MAX_DEGREE + 1} is above "
                                          f"the limit {MAX_DEGREE}"):
        PhasePoly(F, 2, MAX_DEGREE + 1)
    top = PhasePoly(F, 2, MAX_DEGREE, {(MAX_DEGREE, 0): F.one,
                                       (0, MAX_DEGREE + 1): F.one,
                                       (300, 300): F.one})
    assert _terms(top) == {(MAX_DEGREE, 0): F.one}
    assert _terms(top.derive(0)) == {(MAX_DEGREE - 1, 0):
                                     F.from_int(MAX_DEGREE)}
    assert (top * PhasePoly.variable(F, 2, MAX_DEGREE, 1)).is_zero()
    assert _terms(PhasePoly(F, 2, 5, {(300, 0): F.one, (1, 4): F.one})) == {
        (1, 4): F.one}


# Reference algorithms: the per-pair loops each class ran before the core,
# followed by the public constructor's truncation and zero pruning.  They
# visit every pair, so they also stand for the product before it skipped
# the right terms beyond a left term's room.  They read every polynomial
# through exponent tuples, so on PhasePoly they also stand for the tuple
# keys it had before its keys were packed.

def _terms(p):
    """The terms of ``p`` keyed by exponent tuples, in dict order: a
    PhasePoly's packed keys unpacked, a MultiSeries' keys as they are."""
    if isinstance(p, PhasePoly):
        return {exponents(k, p.nvars): c for k, c in p.terms.items()}
    return p.terms


def _ref_clean(terms, fits, field):
    return {k: c for k, c in terms.items()
            if fits(k) and not field.is_zero(c)}


def _ref_add(a, b, fits):
    terms = dict(_terms(a))
    for key, coeff in _terms(b).items():
        terms[key] = terms[key] + coeff if key in terms else coeff
    return _ref_clean(terms, fits, a.field)


def _ref_scale(a, value):
    return _ref_clean({k: value * c for k, c in _terms(a).items()},
                      lambda k: True, a.field)


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
    return _ref_clean(terms, lambda k: True, a.field)


def _ref_phase_mul(a, b, deg):
    terms = {}
    for e1, c1 in _terms(a).items():
        d1 = sum(e1)
        for e2, c2 in _terms(b).items():
            if d1 + sum(e2) > deg:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            v = c1 * c2
            terms[e] = terms[e] + v if e in terms else v
    return _ref_clean(terms, lambda k: True, a.field)


def _ref_derive(a, i):
    terms = {}
    for e, c in _terms(a).items():
        if e[i]:
            terms[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * a.field.from_int(e[i])
    return _ref_clean(terms, lambda k: True, a.field)


# few distinct values, so that sums cancel to zero and get pruned
_coeffs = st.sampled_from([F.one, -F.one, F.from_rational("1/2"),
                           F.from_rational("-1/2"), F.i, F.from_int(3)])
# doubles whose products and sums round, with some exact cancellations
_double_coeffs = st.sampled_from([1.0 + 0j, -1.0 + 0j, 0.1 + 0j, -0.1 + 0j,
                                  1 / 3 + 0j, 0.7 - 0.2j, -0.3j, 1e-3 + 2.5j])
_exp = st.integers(0, 3)


@st.composite
def _series_pair(draw, field=F, coeffs=_coeffs, count=2, n=None):
    if n is None:
        n = draw(st.integers(0, 2))
    key = st.tuples(st.tuples(*[_exp] * n), _exp, _exp)
    ords = st.tuples(*[st.integers(0, 4)] * 3)
    return [MultiSeries(field, n, draw(ords),
                        draw(st.dictionaries(key, coeffs, max_size=8)))
            for _ in range(count)]


@st.composite
def _phase_pair(draw, field=F, coeffs=_coeffs, count=2, nv=None):
    if nv is None:
        nv = draw(st.integers(1, 4))
    key = st.tuples(*[_exp] * nv)
    return [PhasePoly(field, nv, draw(st.integers(0, 5)),
                      draw(st.dictionaries(key, coeffs, max_size=8)))
            for _ in range(count)]


def _items(d):
    """The (key, coeff) pairs of ``d`` in order, a double's parts by their
    bits, so that -0.0 differs from 0.0."""
    return [(k, (c.real.hex(), c.imag.hex()) if isinstance(c, complex) else c)
            for k, c in d.items()]


def _check_series_core(a, b, value):
    orders = Orders(*map(min, a.orders, b.orders))
    fits = lambda k: (sum(k[0]) <= orders.iota and k[1] <= orders.z
                      and k[2] <= orders.h)
    assert _items((a + b).terms) == _items(_ref_add(a, b, fits))
    assert _items((a - b).terms) == _items(_ref_add(a, -b, fits))
    assert _items((a * b).terms) == _items(_ref_series_mul(a, b, orders))
    assert _items(a.scale(value).terms) == _items(_ref_scale(a, value))
    assert _items(a.scale(a.field.zero).terms) == []
    assert (a * b).orders == (a + b).orders == orders


def _check_phasepoly_core(a, b, value):
    deg = min(a.degree, b.degree)
    fits = lambda e: sum(e) <= deg
    assert _items(_terms(a + b)) == _items(_ref_add(a, b, fits))
    assert _items(_terms(a - b)) == _items(_ref_add(a, -b, fits))
    assert _items(_terms(a * b)) == _items(_ref_phase_mul(a, b, deg))
    assert _items(_terms(a.scale(value))) == _items(_ref_scale(a, value))
    assert (a * b).degree == (a + b).degree == deg
    for i in range(a.nvars):
        assert _items(_terms(a.derive(i))) == _items(_ref_derive(a, i))
    for d in range(a.degree + 1):
        assert (_items(_terms(a.degree_part(d)))
                == _items({e: c for e, c in _terms(a).items()
                           if sum(e) == d}))
    assert a.min_degree() == min(map(sum, _terms(a)), default=None)


@settings(max_examples=150, deadline=None)
@given(_series_pair(), _coeffs)
def test_series_core_matches_reference(pair, value):
    _check_series_core(*pair, value)


@settings(max_examples=150, deadline=None)
@given(_phase_pair(), _coeffs)
def test_phasepoly_core_matches_reference(pair, value):
    _check_phasepoly_core(*pair, value)


# the double twins: the reference sums in the same order, so the rounded
# coefficients must agree bit for bit, and in the same key order

@settings(max_examples=150, deadline=None)
@given(_series_pair(FF, _double_coeffs), _double_coeffs)
def test_series_core_matches_reference_on_doubles(pair, value):
    _check_series_core(*pair, value)


@settings(max_examples=150, deadline=None)
@given(_phase_pair(FF, _double_coeffs), _double_coeffs)
def test_phasepoly_core_matches_reference_on_doubles(pair, value):
    _check_phasepoly_core(*pair, value)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reused_right_operand_matches_reference(data):
    """One right operand times several left operands of mixed bounds, on
    both layouts and both fields: the later products read the room lists
    that the earlier ones left on the operand."""
    field, coeffs = data.draw(st.sampled_from([(F, _coeffs),
                                               (FF, _double_coeffs)]))
    n = data.draw(st.integers(0, 2))
    right, *lefts = data.draw(_series_pair(field, coeffs, count=5, n=n))
    before = _items(right.terms)
    for left in lefts + lefts[::-1]:
        orders = Orders(*map(min, left.orders, right.orders))
        assert (_items((left * right).terms)
                == _items(_ref_series_mul(left, right, orders)))
    assert _items(right.terms) == before

    nv = data.draw(st.integers(1, 4))
    right, *lefts = data.draw(_phase_pair(field, coeffs, count=5, nv=nv))
    before = _items(right.terms)
    for left in lefts + lefts[::-1]:
        deg = min(left.degree, right.degree)
        assert (_items(_terms(left * right))
                == _items(_ref_phase_mul(left, right, deg)))
    assert _items(right.terms) == before
    # the same operand on the left reads its terms directly
    assert (_items(_terms(right * lefts[0]))
            == _items(_ref_phase_mul(right, lefts[0],
                                     min(right.degree, lefts[0].degree))))


def test_powers_visit_only_the_pairs_inside_the_h_order(monkeypatch):
    """The powers of an operator part X = sum_{j>=1} h^j f_j(z, y) shaped
    like a float n = 2 round trip's, at orders (6, 2, 2): X's iota budget
    never binds, and each product joins only the pairs whose h-orders sum
    to at most N_h = 2, not every pair of terms."""
    rng = random.Random(3)
    terms = {((a, b), m, l): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
             for a in range(4) for b in range(4 - a)
             for m in range(3) for l in (1, 2) if a + b + l <= 3}
    X = MultiSeries(FF, 2, Orders(6, 2, 2), terms)
    joined = []
    join = MultiSeries._join

    def counting(k1, k2, orders):
        joined.append(k1[2] + k2[2])
        return join(k1, k2, orders)

    monkeypatch.setattr(MultiSeries, "_join", staticmethod(counting))
    out = powers(X)
    assert len(out) == 3 and max(joined) <= 2
    # one join per pair inside the h-order, for each product P * X made
    assert len(joined) == sum(1 for p in out for k1 in p.terms
                              for k2 in X.terms if k1[2] + k2[2] <= 2)


def test_left_terms_below_the_lowest_right_degree_cost_no_product(
        monkeypatch):
    """A left term whose room is below the right operand's lowest degree
    meets no right term: it costs no coefficient product and starts no
    room list on the right operand.  A product whose left terms all lie
    beyond the joint bound is zero, with that bound."""
    from bnftrace.fields import RationalComplex

    products = []
    mul = RationalComplex.__mul__

    def counting(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(RationalComplex, "__mul__", counting)
    # right terms of degree 2 and 3, left terms of degree 0 to 6
    right = PhasePoly(F, 2, 6, {(2, 0): F.one, (1, 2): F.from_int(2)})
    left = PhasePoly(F, 2, 6, {(d, 0): F.from_int(d + 1) for d in range(7)})
    out = left * right
    assert len(products) == sum(1 for d1 in range(7) for d2 in (2, 3)
                                if d1 + d2 <= 6)
    assert _items(_terms(out)) == _items(_ref_phase_mul(left, right, 6))
    assert set(right._rooms) - {None} == {6, 5, 4, 3, 2}

    products.clear()
    high = PhasePoly(F, 2, 9, {(7, 0): F.one, (4, 4): F.one})
    zero = high * right
    assert zero.is_zero() and zero.degree == 6 and not products
    series = MultiSeries(F, 1, Orders(4, 2, 5), {((0,), 0, 4): F.one,
                                                 ((1,), 1, 5): F.i})
    zero = series * MultiSeries(F, 1, Orders(4, 2, 3), {((1,), 0, 0): F.one})
    assert zero.is_zero() and zero.orders == Orders(4, 2, 3) and not products


def test_derive_on_doubles_keeps_the_bits_of_the_reference():
    """derive multiplies by the integer exponent, which rounds as the
    product with the field's integer does, signed zeros included."""
    parts = [0.0, -0.0, 5e-324, -2.5e-310, 0.1, -3.0]
    coeffs = [complex(a, b) for a in parts for b in parts]
    terms = {(a, b, c): coeffs[(5 * a + 3 * b + c) % len(coeffs)]
             for a in range(4) for b in range(4) for c in range(4)}
    p = PhasePoly(FF, 3, 9, terms)
    for i in range(3):
        got = _items(_terms(p.derive(i)))
        assert got == _items(_ref_derive(p, i))
        assert any("-0x0.0p+0" in c for _k, c in got)
