"""Sparse truncated polynomials over a pluggable field.

:class:`TruncatedPoly` is the one arithmetic core: a dict from monomial
keys to nonzero coefficients of a field from :mod:`bnftrace.fields`, cut
off by a bound.  The bound is a namedtuple of orders, and mixed-bound
arithmetic takes the fieldwise minimum, so a result never claims more
precision than was computed.  The core owns construction, ``+``, ``-``,
``*``, ``scale``, ``is_zero`` and the arity check; a subclass supplies
only its key layout through five hooks: ``_key`` (canonical key of
outside input, checking arity and signs, or None for a term it drops),
``_cap`` (the order of the bound that products room on), ``_degree`` (a
key's degree in that order), ``_join`` (product key, or None when it
leaves the other orders of the bound) and ``_fits`` (key inside a
bound).  No stored coefficient equals the field zero, so equality is
structural, and every operation is a pure function.

A product pairs each left term only with the right terms whose degree
fits its room, the cap minus its own degree; ``_join`` checks the rest
of the bound pair by pair.  A left term whose room is below the right
operand's lowest degree pairs with nothing and is skipped by one
comparison.  The right operand lists its (key, coeff) pairs per room, in
its own dict order, the first time a product asks for that room, and
keeps the lists with its lowest degree: a polynomial is never changed
after it is made, and a power or component is often the right operand
of many products.  The visited pairs run in the same order as a scan of
every pair would, so sums accumulate in the same order and results are
bit-identical on floats too.  A layout whose keys join by plain addition,
every pair inside a room fitting the bound, sets ``_adds_keys`` in place
of a ``_join``: its product adds the keys inline, with no call per pair.

:class:`MultiSeries` is the layout in (iota_1..iota_n, z, h), bound by
``Orders``; it rooms on the h-order, where the powers of the operator
part X bind: X^p starts at h^p, while X's iota budget never binds, so a
room on the iota degree would visit every pair of X's terms.
``phasepoly.PhasePoly`` is the other layout: its keys are exponent tuples
packed into integers, x_1 in the top field so that integer order is
their lexicographic order, it adds its keys, and it rooms on its one
bound, the total degree.  Both directions use a MultiSeries as
a container for F(iota, z; h) and the trace expansions, combined by
``+``, ``*`` and ``scale``; :func:`powers` lists the powers of a series,
and :meth:`MultiSeries.exp_series` sums them into its exponential.
"""

import math
from collections import namedtuple
from operator import add, attrgetter, itemgetter

from .errors import DimensionMismatchError, SchemaError

Orders = namedtuple("Orders", ["iota", "z", "h"])


class TruncatedPoly:
    """Sparse polynomial over ``field`` in ``arity`` variables, truncated
    at ``bound``; see the module docstring for the layout hooks."""

    __slots__ = ("field", "arity", "bound", "terms", "_rooms")

    def __init__(self, field, arity, bound, terms=None):
        self.field = field
        self.arity = arity
        self.bound = bound
        self._rooms = None
        self.terms = {}
        for raw, coeff in (terms or {}).items():
            key = self._key(raw)
            if (key is not None and self._fits(key, bound)
                    and not field.is_zero(coeff)):
                self.terms[key] = coeff

    @classmethod
    def _make(cls, field, arity, bound, terms):
        """An arithmetic result: its keys are canonical and inside
        ``bound`` already, so only zero coefficients are pruned.  The
        result holds ``terms`` itself when nothing is pruned, so a caller
        hands over a dict it does not change afterwards."""
        poly = object.__new__(cls)
        poly.field = field
        poly.arity = arity
        poly.bound = bound
        poly._rooms = None
        # a field zero compares equal to 0 on every backend
        if 0 in terms.values():
            is_zero = field.is_zero
            terms = {k: c for k, c in terms.items() if not is_zero(c)}
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls, field, arity, bound):
        return cls(field, arity, bound, {})

    def _check_arity(self, other):
        if self.arity != other.arity:
            raise DimensionMismatchError(
                f"arity mismatch: {self.arity} vs {other.arity}"
            )

    def _joint(self, other):
        self._check_arity(other)
        b = self.bound
        return b if other.bound == b else b._make(map(min, b, other.bound))

    def __add__(self, other):
        bound = self._joint(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms[key] + coeff if key in terms else coeff
        if self.bound != other.bound:
            terms = {k: c for k, c in terms.items() if self._fits(k, bound)}
        return self._make(self.field, self.arity, bound, terms)

    def __neg__(self):
        return self._make(self.field, self.arity, self.bound,
                          {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def _rooms_index(self):
        """Start the per-room lists that products read this polynomial
        through as a right operand: ``None`` maps to the top degree, the
        lowest degree (above every room when there are no terms) and each
        term's degree, the top degree to the full list.  Kept on the
        instance, as ``terms`` never changes."""
        degs = list(map(self._degree, self.terms))
        top = max(degs, default=0)
        low = min(degs, default=math.inf)
        self._rooms = {None: (top, low, degs), top: list(self.terms.items())}
        return self._rooms

    def _upto(self, room):
        """Add the list for a new ``room``: the (key, coeff) pairs of
        degree <= room, in dict order; a room at or above the top
        degree shares the full list."""
        rooms = self._rooms
        top, _low, degs = rooms[None]
        if room >= top:
            pairs = rooms[top]
        else:
            pairs = [kc for kc, d in zip(self.terms.items(), degs)
                     if d <= room]
        rooms[room] = pairs
        return pairs

    def __mul__(self, other):
        # each left term meets only the right terms whose degree fits its
        # room, from the right operand's cached list for that room; the
        # visited pairs run in the dict order of both operands, so sums
        # accumulate in a fixed order
        bound = self._joint(other)
        degree, adds = self._degree, self._adds_keys
        join = None if adds else self._join
        rooms = other._rooms or other._rooms_index()
        low = rooms[None][1]
        cap = self._cap(bound)
        terms = {}
        for k1, c1 in self.terms.items():
            room = cap - degree(k1)
            if room < low:
                continue
            pairs = rooms.get(room) or other._upto(room)
            if adds:
                for k2, c2 in pairs:
                    key = k1 + k2
                    prod = c1 * c2
                    old = terms.get(key)
                    terms[key] = prod if old is None else old + prod
                continue
            for k2, c2 in pairs:
                key = join(k1, k2, bound)
                if key is None:
                    continue
                prod = c1 * c2
                old = terms.get(key)
                terms[key] = prod if old is None else old + prod
        return self._make(self.field, self.arity, bound, terms)

    _cap = staticmethod(itemgetter(0))
    _adds_keys = False

    def scale(self, value):
        return self._make(self.field, self.arity, self.bound,
                          {k: value * c for k, c in self.terms.items()})

    def is_zero(self):
        return not self.terms


class MultiSeries(TruncatedPoly):
    """Truncated formal power series in (iota_1..iota_n, z, h).

    Terms are keyed by ``(alpha, m, l)`` with ``alpha`` a length-n tuple of
    iota exponents, ``m`` the z power and ``l`` the h power, truncated by
    total iota-degree <= orders.iota, m <= orders.z and l <= orders.h.
    ``n_actions`` may be zero, which gives plain (z, h) series; those are
    used for action series, trace coefficients and all other scalar-series
    bookkeeping.
    """

    __slots__ = ()
    n_actions = property(lambda self: self.arity)
    orders = property(lambda self: self.bound)

    def __init__(self, field, n_actions, orders, terms=None):
        super().__init__(field, n_actions, Orders(*orders), terms)

    # -- layout -----------------------------------------------------------

    def _key(self, key):
        alpha, m, l = key
        alpha = tuple(alpha)
        if len(alpha) != self.arity:
            raise DimensionMismatchError(
                f"iota exponent {alpha} has wrong arity for n={self.arity}"
            )
        if any(a < 0 for a in alpha) or m < 0 or l < 0:
            raise SchemaError(f"negative exponent in term {key}")
        return (alpha, m, l)

    _cap = staticmethod(attrgetter("h"))

    @staticmethod
    def _degree(key):
        return key[2]

    @staticmethod
    def _join(k1, k2, orders):
        m = k1[1] + k2[1]
        if m > orders.z:
            return None
        alpha = tuple(map(add, k1[0], k2[0]))
        if sum(alpha) > orders.iota:
            return None
        return (alpha, m, k1[2] + k2[2])

    @staticmethod
    def _fits(key, orders):
        alpha, m, l = key
        return sum(alpha) <= orders.iota and m <= orders.z and l <= orders.h

    # -- constructors ---------------------------------------------------

    @classmethod
    def scalar(cls, field, n_actions, orders, value):
        key = ((0,) * n_actions, 0, 0)
        return cls(field, n_actions, orders, {key: value})

    # -- queries ----------------------------------------------------------

    def get(self, alpha, m, l):
        return self.terms.get((tuple(alpha), m, l), self.field.zero)

    def constant_term(self):
        return self.get((0,) * self.n_actions, 0, 0)

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return self.n_actions == other.n_actions and self.terms == other.terms

    __hash__ = None  # unhashable; equality is structural

    def close_to(self, other, tol=None):
        """Coefficientwise comparison through the field tolerance."""
        self._check_arity(other)
        keys = set(self.terms) | set(other.terms)
        z = self.field.zero
        return all(
            self.field.close(self.terms.get(k, z), other.terms.get(k, z), tol)
            for k in keys
        )

    # -- calculus ---------------------------------------------------------

    def exp_series(self):
        """exp of a series with zero constant term: the sum of its
        :func:`powers` scaled by 1/m!, which ends because the argument is
        nilpotent under truncation."""
        if ((0,) * self.n_actions, 0, 0) in self.terms:
            raise SchemaError("exp_series requires a zero constant term")
        result, *rest = powers(self)
        for m, power in enumerate(rest, 1):
            result = result + power.scale(self.field.factorial_inv(m))
        return result

    # -- views --------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "<MultiSeries 0>"
        bits = []
        for key in sorted(self.terms, key=lambda k: (k[2], k[1], k[0])):
            alpha, m, l = key
            mono = "".join(
                f"*i{j}^{a}" for j, a in enumerate(alpha) if a
            ) + (f"*z^{m}" if m else "") + (f"*h^{l}" if l else "")
            bits.append(f"({self.terms[key]!r}){mono}")
        return "<MultiSeries " + " + ".join(bits[:8]) + (" ..." if len(bits) > 8 else "") + ">"


def zseries(field, orders_z, coeffs=None):
    """Convenience: a series in z alone (n_actions = 0, h-order 0)."""
    terms = {((), m, 0): c for m, c in (coeffs or {}).items()}
    return MultiSeries(field, 0, Orders(0, orders_z, 0), terms)


def powers(s):
    """[1, s, s^2, ...] up to the first power that truncates to zero, for
    a series with zero constant term: at most sum(s.orders) products, as
    every power raises a graded degree."""
    out = [MultiSeries.scalar(s.field, s.n_actions, s.orders, s.field.one)]
    for _ in range(sum(s.orders)):
        p = out[-1] * s
        if p.is_zero():
            break
        out.append(p)
    return out
