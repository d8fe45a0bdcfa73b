import math
import random
from fractions import Fraction
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnftrace.errors import FieldError
from bnftrace.fields import (FloatField, RationalComplex, RationalField,
                             _Partial, field_from_name)


def _random_rc(rng):
    return RationalComplex(Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                           Fraction(rng.randint(-20, 20), rng.randint(1, 9)))


def test_rational_field_axioms_randomized():
    rng = random.Random(42)
    F = RationalField()
    for _ in range(200):
        a, b, c = (_random_rc(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + F.zero == a
        assert a * F.one == a
        if not F.is_zero(a):
            assert a * F.inv(a) == F.one


def test_rational_exact_addition():
    F = RationalField()
    third = F.from_rational("1/3")
    two_thirds = F.from_rational("2/3")
    assert third + two_thirds == F.one


def test_i_squared():
    F = RationalField()
    assert F.i * F.i == -F.one


def test_rational_parse_format_roundtrip():
    F = RationalField()
    x = F.parse("-7/3", "22/5")
    re, im = F.format(x)
    assert F.parse(re, im) == x


def test_rational_format_writes_each_part_as_fraction_does():
    """Each part is written as str(Fraction) writes it: zero, negative,
    integer and huge parts, and parts whose shared denominator each
    reduces differently.  A part of more digits than Python writes as
    text raises ValueError, as str(Fraction) does."""
    F = RationalField()
    parts = [Fraction(0), Fraction(-3, 4), Fraction(5), Fraction(-12),
             Fraction(1, 2), Fraction(1, 3), Fraction(7, 10 ** 30),
             Fraction(1 - 10 ** 40, 3)]
    for re in parts:
        for im in parts:
            assert F.format(RationalComplex(re, im)) == (str(re), str(im))
    for x in (RationalComplex(10 ** 5000, Fraction(1, 3)),
              RationalComplex(Fraction(1, 3), -10 ** 5000)):
        with pytest.raises(ValueError):
            F.format(x)


def test_rational_abs_does_not_square_out_of_range():
    """|x| is taken from the rounded parts, so a modulus near 1e200, whose
    square is 1e400, is still a float."""
    F = RationalField()
    big = RationalComplex(3 * 10 ** 200, 4 * 10 ** 200)
    assert F.abs(big) == pytest.approx(5e200, rel=1e-15)
    assert F.abs(big / RationalComplex(10 ** 400)) == pytest.approx(
        5e-200, rel=1e-15)


def test_rational_abs_beyond_the_double_range_is_inf():
    """A part, or a modulus, beyond the double range reads inf, as it
    would on a float field, rather than raising OverflowError."""
    F = RationalField()
    assert F.abs(RationalComplex(10 ** 400)) == math.inf
    assert F.abs(RationalComplex(1, -10 ** 4000)) == math.inf
    assert F.abs(RationalComplex(15 * 10 ** 307, 15 * 10 ** 307)) == math.inf
    assert F.abs(RationalComplex(Fraction(1, 10 ** 400))) == 0.0


def test_rational_exp_unavailable():
    F = RationalField()
    with pytest.raises(FieldError):
        F.exp(F.one)


def test_float_field_tolerance():
    F = FloatField()
    assert F.close(1.0 + 0j, 1.0 + 1e-14j)
    assert not F.close(1.0 + 0j, 1.0 + 1e-6j)
    assert F.is_zero(0j)
    assert not F.is_zero(1e-300 + 0j)  # pruning is exact-zero only


def test_float_parse_rational_strings():
    F = FloatField()
    x = F.parse("1/4", "0")
    assert abs(x - 0.25) < 1e-15


@pytest.mark.parametrize("bits", [64, 128, 240])
def test_float_parse_reads_every_non_finite_spelling(bits):
    """Every spelling float() reads as infinite or nan parses to a value
    that is_finite refuses, also where mpmath does not read it; a text
    that is no number stays a ValueError."""
    F = FloatField(bits)
    for re, im in [("Infinity", "0"), ("-Infinity", "0"), ("inf", "0"),
                   ("1", "+Infinity"), ("NaN", "0"), ("-nan", "0")]:
        assert not F.is_finite(F.parse(re, im))
    for re, im in [("two", "0"), ("two", "Infinity"), ("1e", "0")]:
        with pytest.raises(ValueError):
            F.parse(re, im)


def test_field_from_name():
    assert field_from_name("rational").exact
    assert not field_from_name("float").exact
    with pytest.raises(FieldError):
        field_from_name("decimal")


def test_extended_precision_field():
    F = field_from_name("float", precision=128)
    x = F.from_rational("1/3")
    y = x * F.from_int(3) - F.one
    assert F.abs(y) < 1e-35
    assert F.abs(F.exp(F.zero) - F.one) == 0


@pytest.mark.parametrize("precision", [65, 128, 240])
def test_extended_precision_format_round_trips(precision):
    """parse(format(x)) == x: the decimal strings carry every bit."""
    F = FloatField(precision=precision)
    mp = F._mp
    values = [F.from_rational("1/3"), F.zero, F.from_int(-7),
              F.from_rational("-1/7", "1/11") * mp.mpf(2) ** -70,
              F.exp(F.from_rational("1/2", "2/3")) * mp.mpf(10) ** 30]
    for x in values:
        assert F.parse(*F.format(x)) == x
    assert len(F.format(values[0])[0]) > 20


def test_double_format_is_the_float_repr():
    assert FloatField().format(1 / 3 - 0.1j) == (repr(1 / 3), repr(-0.1))


# -- property tests of the exact scalar ------------------------------------

class PairRC:
    """Reference: the Fraction-pair arithmetic RationalComplex replaced."""

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def of(cls, x):
        if isinstance(x, PairRC):
            return x
        if isinstance(x, RationalComplex):
            return cls(x.re, x.im)
        return cls(x)

    def __add__(self, other):
        other = PairRC.of(other)
        return PairRC(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return PairRC(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-PairRC.of(other))

    def __mul__(self, other):
        other = PairRC.of(other)
        return PairRC(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        other = PairRC.of(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError
        return PairRC((self.re * other.re + self.im * other.im) / n,
                      (self.im * other.re - self.re * other.im) / n)


BIG = 2 ** 80
rationals = st.one_of(
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
scalars = st.builds(RationalComplex, rationals, rationals)
operands = st.one_of(scalars, st.integers(-BIG, BIG), rationals)
PROPS = settings(max_examples=150, deadline=None)


def _canonical(x):
    assert type(x) is RationalComplex
    assert type(x.a) is int and type(x.b) is int and type(x.d) is int
    assert x.d > 0 and math.gcd(x.a, x.b, x.d) == 1
    return x


def _agrees(x, ref):
    _canonical(x)
    return x.re == ref.re and x.im == ref.im


@PROPS
@given(scalars, scalars, scalars)
def test_rational_ring_axioms_property(x, y, z):
    F = RationalField()
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x
    assert x + F.zero == x and x * F.one == x
    assert x - x == F.zero and x + (-x) == F.zero
    if not F.is_zero(x):
        assert _canonical(x * F.inv(x)) == F.one
        assert _canonical(x ** -2) * x * x == F.one
        assert x ** -1 == F.inv(x) == 1 / x


@PROPS
@given(scalars, operands)
def test_rational_ops_agree_with_fraction_pairs(x, y):
    rx = PairRC.of(x)
    assert _agrees(x + y, rx + y)
    assert _agrees(y + x, PairRC.of(y) + rx)
    assert _agrees(x - y, rx - y)
    assert _agrees(y - x, PairRC.of(y) - rx)
    assert _agrees(x * y, rx * y)
    assert _agrees(y * x, PairRC.of(y) * rx)
    assert _agrees(-x, -rx)
    assert _agrees(x.conjugate(), PairRC(rx.re, -rx.im))
    assert x * x.conjugate() == rx.re ** 2 + rx.im ** 2
    assert complex(x) == complex(float(rx.re), float(rx.im))
    if PairRC.of(y).re or PairRC.of(y).im:
        assert _agrees(x / y, rx / y)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    if x.re or x.im:
        assert _agrees(y / x, PairRC.of(y) / rx)


def test_rational_mixed_operands():
    x = RationalComplex(Fraction(1, 2), Fraction(-3, 4))
    assert 3 * x == x * 3 == RationalComplex(Fraction(3, 2), Fraction(-9, 4))
    assert x - Fraction(1, 3) == RationalComplex(Fraction(1, 6), Fraction(-3, 4))
    assert Fraction(1, 3) - x == RationalComplex(Fraction(-1, 6), Fraction(3, 4))
    assert 2 - x == RationalComplex(Fraction(3, 2), Fraction(3, 4))
    assert 1 / x == RationalComplex(Fraction(8, 13), Fraction(12, 13))
    half = Fraction(1, 2)
    assert half + x == x + half == RationalComplex(1, Fraction(-3, 4))
    assert 0 * x == RationalComplex(0)
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ZeroDivisionError):
        RationalField().inv(RationalComplex(0))
    with pytest.raises(ZeroDivisionError):
        RationalComplex(0) ** -1
    with pytest.raises(TypeError):
        x * 1.5
    with pytest.raises(TypeError):
        x ** Fraction(1, 2)
    assert x != 1.5 and x != "x"


def test_rational_add_shared_denominator_factors():
    # denominators sharing a factor: the sum cancels to zero (equal
    # denominators), or reduces by a factor of their gcd
    def rc(a, b, d):
        return RationalComplex(Fraction(a, d), Fraction(b, d))

    x = rc(5, -7, 12)
    assert _canonical(x + (-x)) == RationalComplex(0)
    for x, y, want in [
        (rc(1, 0, 6), rc(1, 0, 3), rc(1, 0, 2)),
        (rc(1, 1, 6), rc(1, -1, 10), rc(4, 1, 15)),
        (rc(1, 1, 6), rc(1, -2, 12), rc(1, 0, 4)),
        (rc(1, 1, 6), rc(-1, -1, 6) + rc(1, 0, 35), rc(1, 0, 35)),
    ]:
        assert _agrees(x + y, PairRC.of(x) + y)
        assert _agrees(y + x, PairRC.of(y) + x)
        got = x + y
        assert (got.a, got.b, got.d) == (want.a, want.b, want.d)


@PROPS
@given(scalars, scalars.filter(lambda y: y.re or y.im))
def test_rational_canonical_form(x, y):
    # the same value reached along another path has the same triple and hash
    back = _canonical((x * y) / y)
    assert (back.a, back.b, back.d) == (x.a, x.b, x.d)
    assert hash(back) == hash(x)
    assert RationalComplex(x.re, x.im) == x
    F = RationalField()
    assert F.parse(*F.format(x)) == x


@PROPS
@given(rationals, st.integers(-BIG, BIG))
def test_rational_hash_matches_equal_numbers(q, n):
    assert RationalComplex(q) == q and hash(RationalComplex(q)) == hash(q)
    assert RationalComplex(n) == n and hash(RationalComplex(n)) == hash(n)


def test_rational_hash_eq_contract():
    assert RationalComplex(2) == 2
    assert len({RationalComplex(2), 2}) == 1
    assert len({RationalComplex(Fraction(1, 3)), Fraction(1, 3)}) == 1


def test_rational_views_and_repr():
    x = RationalComplex(Fraction(-7, 3), Fraction(22, 6))
    assert (x.a, x.b, x.d) == (-7, 11, 3)
    assert (x.re, x.im) == (Fraction(-7, 3), Fraction(11, 3))
    assert repr(x) == "(-7/3)+(11/3)i"
    assert RationalField().format(x) == ("-7/3", "11/3")
    with pytest.raises(AttributeError):
        x.re = 1


def _rc(a, b, d):
    return RationalComplex(Fraction(a, d), Fraction(b, d))


# denominators that are equal, coprime (12 and 35) or share a factor;
# a scalar factor comes as repeat(c), as the forward passes it
pooled = st.builds(_rc, st.one_of(st.integers(-30, 30), st.integers(-BIG, BIG)),
                   st.integers(-30, 30),
                   st.sampled_from([1, 2, 3, 4, 6, 12, 35, 385]))
sum_terms = st.lists(st.tuples(st.integers(0, 2),
                               st.tuples(pooled, pooled),
                               st.one_of(st.tuples(st.one_of(pooled, scalars),
                                                   pooled),
                                         scalars.map(repeat))),
                     min_size=1, max_size=10)


@PROPS
@given(sum_terms)
def test_rational_sums_equal_sums_of_reduced_products(terms):
    """Each key's sums are those of the reduced products added left to
    right, as canonical triples, for a key added once (the products alone)
    or more often; a real one hashes like its Fraction.  The partial sums
    reduce to them, and a later sum reads them as xs and ys, with the
    unreduced products or a repeat(c), added once or twice; a partial sum
    is no value."""
    F = RationalField()
    sums = F.sums()
    want = {}
    # "once" is added exactly once, with the first term's ys, which may be
    # a repeat(c)
    for key, xs, ys in [("once", *terms[0][1:]), *terms]:
        sums.add(key, xs, ys)
        p = [x * y for x, y in zip(xs, ys)]
        want[key] = (p if key not in want else
                     [s + t for s, t in zip(want[key], p)])
    got = sums.result()
    assert list(got) == list(want)
    for key, values in got.items():
        assert values == want[key]
        for x in values:
            _canonical(x)
            if x.b == 0:
                assert hash(x) == hash(Fraction(x.a, x.d))
    partial, later = sums.partial(), F.sums()
    c = terms[0][1][0]
    for key, values in partial.items():
        assert all(type(x) is _Partial for x in values)
        assert F.reduced(values) == got[key]
        later.add(("cube", key), values, F.products(values, values))
        later.add(("scaled", key), values, repeat(c))
        later.add(("twice", key), values, repeat(c))
        later.add(("twice", key), got[key], values)
    read = later.result()
    assert F.reduced([x for v in later.partial().values() for x in v]) == [
        x for v in read.values() for x in v]
    for key, values in got.items():
        assert list(map(_canonical, read[("cube", key)])) == [
            x * x * x for x in values]
        assert list(map(_canonical, read[("scaled", key)])) == [
            x * c for x in values]
        assert list(map(_canonical, read[("twice", key)])) == [
            x * c + x * x for x in values]
    with pytest.raises(TypeError):
        partial[terms[0][0]][0] == got[terms[0][0]][0]


@PROPS
@given(scalars, scalars, st.integers(2, 99))
def test_rational_sums_cancel_to_the_zero_triple(x, y, n):
    """x y - (n x)(y / n) has two unreduced denominators, and x y - x y
    one; both sums are the triple (0, 0, 1), and a single term is the
    reduced product."""
    sums = RationalField().sums()
    sums.add("split", [x], [y])
    sums.add("split", [x * n], [y / -n])
    sums.add("equal", [x], [y])
    sums.add("equal", [-x], [y])
    sums.add("single", [x], [y])
    got = sums.result()
    for key in ("split", "equal"):
        z = got[key][0]
        assert (z.a, z.b, z.d) == (0, 0, 1) and hash(z) == hash(0)
    assert _canonical(got["single"][0]) == x * y


def test_rational_sums_over_coprime_and_shared_denominators():
    """Products over the coprime denominators 60 and 77, and over 6 and
    420, which share the factor 6."""
    sums = RationalField().sums()
    sums.add(0, [_rc(1, 1, 6), _rc(1, 1, 6)], [_rc(1, -1, 10), _rc(1, 0, 1)])
    sums.add(0, [_rc(1, 0, 7), _rc(0, 1, 35)], [_rc(2, 0, 11), _rc(1, 0, 12)])
    got = sums.result()[0]
    assert [(v.a, v.b, v.d) for v in got] == [(137, 0, 2310), (70, 71, 420)]


complexes = st.one_of(
    st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                       allow_infinity=False),
    st.sampled_from([complex(-0.0, 1.5), complex(0.25, -0.0),
                     complex(-0.0, -0.0)]))
float_terms = st.lists(st.tuples(st.integers(0, 2),
                                 st.tuples(complexes, complexes),
                                 st.one_of(st.tuples(complexes, complexes),
                                           complexes.map(repeat))),
                       min_size=1, max_size=10)


def _bits(x):
    if type(x) is complex:
        return x.real.hex(), x.imag.hex()
    return x.real._mpf_, x.imag._mpf_


@pytest.mark.parametrize("bits", [64, 128])
@PROPS
@given(float_terms, st.booleans())
def test_float_sums_keep_the_order_of_each_site(bits, terms, from_zero):
    """Products added as they come, from the first product or from zero,
    bit for bit, signs of zero parts included."""
    F = FloatField(bits)
    value = (lambda c: c) if bits == 64 else F._mp.mpc
    sums = F.sums(from_zero)
    want = {}
    for key, xs, ys in terms:
        xs = list(map(value, xs))
        ys = (repeat(value(next(ys))) if type(ys) is repeat
              else list(map(value, ys)))
        sums.add(key, xs, ys)
        p = [x * y for x, y in zip(xs, ys)]
        old = want.get(key, [F.zero] * len(p) if from_zero else None)
        want[key] = p if old is None else [s + t for s, t in zip(old, p)]
    got = sums.result()
    assert list(got) == list(want)
    for key, values in got.items():
        assert list(map(_bits, values)) == list(map(_bits, want[key]))


def test_float_sums_keep_a_negative_zero_first_product():
    # (-0 + i)(1 + 0i) has the real part -0.0 - 0.0 = -0.0
    for from_zero, sign in ((False, -1.0), (True, 1.0)):
        sums = FloatField().sums(from_zero)
        sums.add(0, [complex(-0.0, 1.0)], [1 + 0j])
        (v,), = sums.result().values()
        assert v == 1j and math.copysign(1.0, v.real) == sign
