"""Pluggable complex coefficient fields.

Two families are provided:

* :class:`RationalField` -- complex numbers with exact rational real and
  imaginary parts, each held as one canonical integer triple ``(a, b, d)``
  meaning ``(a + b*i) / d`` with ``d > 0`` and ``gcd(a, b, d) == 1``.
  Field axioms hold exactly; equality is bit-exact.  Used by the
  round-trip fixtures whose data is rational (exponents whose
  E = exp(mu/2) lies in Q(i)).
* :class:`FloatField` -- binary floating point complex numbers.  The
  default precision of 64 bits is plain ``complex``; higher precisions are
  backed by ``mpmath.mpc``.  Comparisons always go through a tolerance.

Field *values* are ordinary objects with arithmetic dunders; the field
object itself only provides construction, conversion and the few
operations that depend on the backend (exact zero test, sqrt, exp, log,
and ``sums()``: keyed sums of products, ``add(key, xs, ys)`` adding each
xs[i] * ys[i] to entry i of ``key``'s list and ``result()`` the dict of
the lists.  A float field adds each product as it comes, from the first,
as MultiSeries sums do, or ``sums(from_zero=True)`` from zero; the
rational field reduces each sum once, not at every product and add, and
a key added once is its products, each formed and reduced alone).
``partial()`` is ``result()`` left unreduced, and ``products(xs, ys)``
the unreduced pairwise products: a computation hands them only to its own
later ``sums().add``, as xs or ys, or to ``reduced(xs)``; they have no
arithmetic, equality or hash, and none leaves it.  A float field's are
``result()`` and plain products, and its ``reduced`` returns its list.
The rational field's ``minus_products(xs, cs, ys)`` reduces each
x - c * y once.
The rational field has no sqrt or log: stage 0 of the recovery fits exact
samples on float fields, in doubles and then at 240 bits, and verifies
the rationalized fit exactly instead.
"""

import cmath
import math
import re
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import add, mul

from .errors import FieldError


class RationalComplex:
    """A complex rational ``(a + b*i) / d`` held as one integer triple.

    Invariant: ``a``, ``b`` and ``d`` are ints, ``d > 0`` and
    ``gcd(a, b, d) == 1``.  Every value has exactly one such triple, so
    equality compares triples and the hash of a real value is that of the
    equal ``Fraction``.  Results are reduced with a single gcd; the hot
    dunders take fast paths for operands of this type and for ``int``
    before falling back to ``Fraction`` coercion; a sum of products is
    reduced once by ``RationalField.sums()``.  ``re`` and ``im`` are
    read-only ``Fraction`` views for cold callers.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re = Fraction(re)
        im = Fraction(im)
        # the lcm of two reduced denominators leaves gcd(a, b, d) == 1
        re_d, im_d = re.denominator, im.denominator
        d = re_d * im_d // gcd(re_d, im_d)
        self.a = re.numerator * (d // re_d)
        self.b = im.numerator * (d // im_d)
        self.d = d

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __add__(self, other):
        if type(other) is not RationalComplex:
            if type(other) is int:
                # gcd(a + n*d, b, d) == gcd(a, b, d) == 1
                return _triple(self.a + other * self.d, self.b, self.d)
            other = _coerce(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.a + other.a, self.b + other.b, d1)
        # as Fraction._add.  A prime of d1 alone that divided both parts
        # of the numerator would divide a1 and b1 too, so with g the gcd
        # of the denominators only g can share a factor with the sum; and
        # equal values share d, so the sum here is never zero
        g = gcd(d1, d2)
        if g == 1:
            return _triple(self.a * d2 + other.a * d1,
                           self.b * d2 + other.b * d1, d1 * d2)
        s, t = d1 // g, d2 // g
        ta = self.a * t + other.a * s
        tb = self.b * t + other.b * s
        g2 = gcd(ta, tb, g)
        if g2 == 1:
            return _triple(ta, tb, s * d2)
        return _triple(ta // g2, tb // g2, s * (d2 // g2))

    __radd__ = __add__

    def __neg__(self):
        return _triple(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if type(other) is not RationalComplex:
            other = _coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not RationalComplex:
            if type(other) is int:
                return _reduced(self.a * other, self.b * other, self.d)
            other = _coerce(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                        self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not RationalComplex:
            other = _coerce(other)
        a2, b2 = other.a, other.b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero RationalComplex")
        # (x/d1) / (y/d2) = x * d2 * conj(y) / (d1 * |y|^2)
        a1, b1, d2 = self.a, self.b, other.d
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                        self.d * n)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("only integer powers supported")
        if k < 0:
            return RationalComplex(1) / self ** (-k)
        out = RationalComplex(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if type(other) is RationalComplex:
            return (self.a == other.a and self.b == other.b
                    and self.d == other.d)
        if isinstance(other, int):
            return self.b == 0 and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return (self.b == 0 and self.d == other.denominator
                    and self.a == other.numerator)
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def conjugate(self):
        return _triple(self.a, -self.b, self.d)

    def __complex__(self):
        # int / int is correctly rounded, as Fraction.__float__ is
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        return f"({self.re})+({self.im})i"


_new = object.__new__


def _triple(a, b, d):
    """A RationalComplex from a triple that already meets the invariant."""
    x = _new(RationalComplex)
    x.a = a
    x.b = b
    x.d = d
    return x


def _reduced(a, b, d):
    """A RationalComplex from any triple with ``d > 0``, by one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        return _triple(a // g, b // g, d // g)
    return _triple(a, b, d)


class _Partial:
    """An unreduced ``(a + b*i) / d``, ``d > 0``, from ``sums().partial()``
    or ``products``.  It has no arithmetic, equality or hash: only a later
    ``sums().add`` reads it."""

    __slots__ = ("a", "b", "d")
    __hash__ = None

    def __eq__(self, other):
        raise TypeError("a partial sum is not a field value")


def _partial(a, b, d):
    x = _new(_Partial)
    x.a = a
    x.b = b
    x.d = d
    return x


def _sum_of_products(pairs, done=_reduced):
    """sum(x * y for x, y in pairs) with one reduction (``done``): the
    products stay unreduced, their numerators summed over the lcm of their
    denominators."""
    a = b = 0
    d = 1
    for x, y in pairs:
        e = x.d * y.d
        pa, pb = x.a * y.a - x.b * y.b, x.a * y.b + x.b * y.a
        if e == d:
            a, b = a + pa, b + pb
        else:
            g = gcd(d, e)
            s, t = e // g, d // g
            a, b, d = a * s + pa * t, b * s + pb * t, d * s
    return done(a, b, d)


def _products(xs, ys, done):
    """[x * y for x, y in zip(xs, ys)], each product passed to ``done``."""
    return [done(x.a * y.a - x.b * y.b, x.a * y.b + x.b * y.a, x.d * y.d)
            for x, y in zip(xs, ys)]


def _minus_products(xs, cs, ys):
    """[x - c * y for x, c, y in zip(xs, cs, ys)], each reduced once."""
    out = []
    for x, c, y in zip(xs, cs, ys):
        d, e = x.d, c.d * y.d
        g = gcd(d, e)
        s, t = e // g, d // g
        out.append(_reduced(x.a * s - (c.a * y.a - c.b * y.b) * t,
                            x.b * s - (c.a * y.b + c.b * y.a) * t, d * s))
    return out


class _RationalSums(dict):
    """The rational field's ``sums()``: the pairs of lists wait by key."""

    def add(self, key, xs, ys):
        self.setdefault(key, []).append((xs, ys))

    def result(self, done=_reduced):
        # a key added once is its products, with no transpose
        return {key: _products(*pairs[0], done) if len(pairs) == 1 else
                [_sum_of_products(col, done)
                 for col in zip(*(zip(xs, ys) for xs, ys in pairs))]
                for key, pairs in self.items()}

    def partial(self):
        return self.result(_partial)


class _FloatSums:
    """A float field's ``sums()``, which adds each product as it comes.  Its
    result is a plain dict, which callers index faster than a subclass."""

    __slots__ = ("acc", "start")

    def __init__(self, start):
        self.acc, self.start = {}, start

    def add(self, key, xs, ys):
        acc = self.acc
        old = acc.get(key, self.start)
        acc[key] = (list(map(mul, xs, ys)) if old is None
                    else list(map(add, old, map(mul, xs, ys))))

    def result(self):
        return self.acc

    partial = result


def _coerce(x):
    if isinstance(x, RationalComplex):
        return x
    if isinstance(x, (int, Fraction)):
        return _triple(x.numerator, 0, x.denominator)
    raise TypeError(f"cannot coerce {type(x).__name__} into RationalComplex")


def _fraction(text):
    """``Fraction(text)``, refusing a decimal exponent above 4300, Python's
    default limit on integer text: Fraction would build ten to its power."""
    exponent = re.search(r"e([-+]?\d+(_\d+)*)\s*\Z", text, re.IGNORECASE)
    if exponent and abs(int(exponent[1])) > 4300:
        raise ValueError(f"decimal exponent {exponent[1]} beyond +-4300")
    return Fraction(text)


def _format_part(n, d):
    """The text ``str(Fraction(n, d))`` of one part n/d, d > 0, from one
    gcd."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


class RationalField:
    """Exact field of complex rationals."""

    name = "rational"
    exact = True

    def __init__(self):
        self.zero = RationalComplex(0)
        self.one = RationalComplex(1)
        self.i = RationalComplex(0, 1)

    def from_int(self, n):
        return RationalComplex(n)

    def from_rational(self, re, im=0):
        return RationalComplex(Fraction(re), Fraction(im))

    def parse(self, re_str, im_str="0"):
        return RationalComplex(_fraction(re_str), _fraction(im_str))

    def format(self, x):
        return _format_part(x.a, x.d), _format_part(x.b, x.d)

    def is_zero(self, x):
        return x.a == 0 and x.b == 0

    def is_finite(self, x):
        return True

    def close(self, x, y, tol=None):
        return x == y

    def inv(self, x):
        return RationalComplex(1) / x

    def conj(self, x):
        return x.conjugate()

    def abs(self, x):
        # the parts are rounded first, so no square overflows; a part
        # beyond the double range reads inf, as a float field's would
        try:
            return math.hypot(x.a / x.d, x.b / x.d)
        except OverflowError:
            return math.inf

    def to_complex(self, x):
        return complex(x)

    def exp(self, x):
        raise FieldError("exp is not exact on the rational field")

    def factorial_inv(self, m):
        return _triple(1, 0, math.factorial(m))

    def sums(self, from_zero=False):
        return _RationalSums()

    def products(self, xs, ys):
        return _products(xs, ys, _partial)

    def reduced(self, xs):
        return [_reduced(x.a, x.b, x.d) for x in xs]

    minus_products = staticmethod(_minus_products)


class FloatField:
    """Floating point complex field.

    ``precision`` counts bits of the underlying binary format; 64 selects
    native ``complex`` (IEEE double), anything larger switches to
    ``mpmath.mpc`` with a matching mantissa.
    """

    exact = False

    def __init__(self, precision=64):
        self.precision = precision
        if precision <= 64:
            self.name = "float"
            self._mp = None
            self.zero = 0j
            self.one = 1 + 0j
            self.i = 1j
        else:
            import mpmath

            self.name = "float"
            ctx = mpmath.mp.clone()
            ctx.prec = precision
            self._mp = ctx
            # decimal digits that round-trip every mantissa of this width
            self._digits = mpmath.libmp.repr_dps(precision)
            self.zero = ctx.mpc(0)
            self.one = ctx.mpc(1)
            self.i = ctx.mpc(0, 1)

    def from_int(self, n):
        return self.one * n

    def from_rational(self, re, im=0):
        if self._mp is None:
            return complex(float(Fraction(re)), float(Fraction(im)))
        re, im = Fraction(re), Fraction(im)
        return self._mp.mpc(re.numerator, 0) / re.denominator + self.i * (
            self._mp.mpc(im.numerator, 0) / im.denominator
        )

    def parse(self, re_str, im_str="0"):
        if "/" in re_str or "/" in im_str:
            return self.from_rational(_fraction(re_str), _fraction(im_str))
        if self._mp is None:
            return complex(float(re_str), float(im_str))
        try:
            return self._mp.mpc(re_str, im_str)
        except ValueError:  # mpmath reads "inf" but not "Infinity"
            x = complex(float(re_str), float(im_str))
            if cmath.isfinite(x):
                raise
            return self._mp.mpc(x)

    def format(self, x):
        if self._mp is None:
            return repr(float(x.real)), repr(float(x.imag))
        return (self._mp.nstr(x.real, self._digits),
                self._mp.nstr(x.imag, self._digits))

    def is_zero(self, x):
        # Normalisation prunes only exact zeros; tolerances are for comparisons.
        return x == 0

    def is_finite(self, x):
        """Neither part infinite nor nan, at this field's precision."""
        if self._mp is None:
            return cmath.isfinite(x)
        return self._mp.isfinite(x)

    def close(self, x, y, tol=None):
        t = 1e-12 if tol is None else tol
        return abs(x - y) <= t * max(1.0, abs(x), abs(y))

    def inv(self, x):
        return self.one / x

    def conj(self, x):
        return x.conjugate()

    def abs(self, x):
        return float(abs(x))

    def to_complex(self, x):
        return complex(x)

    def sqrt(self, x):
        if self._mp is None:
            return cmath.sqrt(x)
        return self._mp.sqrt(x)

    def exp(self, x):
        if self._mp is None:
            return cmath.exp(x)
        return self._mp.exp(x)

    def log(self, x):
        if self._mp is None:
            return cmath.log(x)
        return self._mp.log(x)

    def factorial_inv(self, m):
        return self.one / math.factorial(m)

    def sums(self, from_zero=False):
        return _FloatSums(repeat(self.zero) if from_zero else None)

    def products(self, xs, ys):
        return list(map(mul, xs, ys))

    def reduced(self, xs):
        return xs


def nan_max(values, default=0.0):
    """The largest of the floats ``values``, ``default`` if none; a NaN
    ranks with +inf, where the builtin max drops one that is not first."""
    return max(values, key=lambda v: math.inf if math.isnan(v) else v,
               default=default)


def field_from_name(name, precision=64):
    if name == "rational":
        return RationalField()
    if name == "float":
        return FloatField(precision=precision)
    raise FieldError(f"unknown coefficient field {name!r}")
