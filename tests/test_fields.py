import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnftrace.errors import FieldError
from bnftrace.fields import (FloatField, RationalComplex, RationalField,
                             field_from_name)


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


def test_rational_abs_does_not_square_out_of_range():
    """|x| is taken from the rounded parts, so a modulus near 1e200, whose
    square is 1e400, is still a float."""
    F = RationalField()
    big = RationalComplex(3 * 10 ** 200, 4 * 10 ** 200)
    assert F.abs(big) == pytest.approx(5e200, rel=1e-15)
    assert F.abs(big / RationalComplex(10 ** 400)) == pytest.approx(
        5e-200, rel=1e-15)


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
    assert x.norm_sq() == rx.re ** 2 + rx.im ** 2
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
