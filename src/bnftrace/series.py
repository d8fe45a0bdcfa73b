"""Truncated multivariate formal power series.

A :class:`MultiSeries` lives in the variables (iota_1..iota_n, z, h) over a
coefficient field from :mod:`bnftrace.fields`.  Truncation orders are
explicit data: total iota-degree <= orders.iota, z-power <= orders.z,
h-power <= orders.h.  Mixed-order arithmetic truncates to the minimum of
the operand orders, so a result never claims more precision than was
computed.

Representation is normalized: no stored coefficient equals the field zero,
which makes equality testing structural.  All values are immutable after
construction and every operation is a pure function.
"""

from collections import namedtuple

from .errors import DimensionMismatchError, SchemaError

Orders = namedtuple("Orders", ["iota", "z", "h"])


def _as_orders(orders):
    if isinstance(orders, Orders):
        return orders
    return Orders(*orders)


class MultiSeries:
    """Truncated formal power series in (iota_1..iota_n, z, h).

    Terms are keyed by ``(alpha, m, l)`` with ``alpha`` a length-n tuple of
    iota exponents, ``m`` the z power and ``l`` the h power.  ``n_actions``
    may be zero, which gives plain (z, h) series; those are used for action
    series, trace coefficients and all other scalar-series bookkeeping.
    """

    __slots__ = ("field", "n_actions", "orders", "terms")

    def __init__(self, field, n_actions, orders, terms=None):
        self.field = field
        self.n_actions = n_actions
        self.orders = _as_orders(orders)
        clean = {}
        if terms:
            for key, coeff in terms.items():
                alpha, m, l = key
                alpha = tuple(alpha)
                if len(alpha) != n_actions:
                    raise DimensionMismatchError(
                        f"iota exponent {alpha} has wrong arity for n={n_actions}"
                    )
                if any(a < 0 for a in alpha) or m < 0 or l < 0:
                    raise SchemaError(f"negative exponent in term {key}")
                if not self._inside((alpha, m, l)):
                    continue
                if field.is_zero(coeff):
                    continue
                clean[(alpha, m, l)] = coeff
        self.terms = clean

    def _inside(self, key):
        alpha, m, l = key
        return sum(alpha) <= self.orders.iota and m <= self.orders.z and l <= self.orders.h

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field, n_actions, orders):
        return cls(field, n_actions, orders, {})

    @classmethod
    def scalar(cls, field, n_actions, orders, value):
        key = ((0,) * n_actions, 0, 0)
        return cls(field, n_actions, orders, {key: value})

    @classmethod
    def variable(cls, field, n_actions, orders, var):
        """The monomial for ``var``: ``("iota", j)``, ``"z"`` or ``"h"``."""
        alpha = [0] * n_actions
        m = l = 0
        if var == "z":
            m = 1
        elif var == "h":
            l = 1
        elif isinstance(var, tuple) and var[0] == "iota":
            j = var[1]
            if not 0 <= j < n_actions:
                raise SchemaError(f"iota index {j} out of range for n={n_actions}")
            alpha[j] = 1
        else:
            raise SchemaError(f"unknown variable {var!r}")
        return cls(field, n_actions, orders, {(tuple(alpha), m, l): field.one})

    # -- ring operations ------------------------------------------------

    def _check_compatible(self, other):
        if self.n_actions != other.n_actions:
            raise DimensionMismatchError(
                f"n_actions mismatch: {self.n_actions} vs {other.n_actions}"
            )

    def _joint_orders(self, other):
        return Orders(
            min(self.orders.iota, other.orders.iota),
            min(self.orders.z, other.orders.z),
            min(self.orders.h, other.orders.h),
        )

    def __add__(self, other):
        self._check_compatible(other)
        orders = self._joint_orders(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms[key] + coeff if key in terms else coeff
        return MultiSeries(self.field, self.n_actions, orders, terms)

    def __neg__(self):
        return MultiSeries(
            self.field, self.n_actions, self.orders,
            {k: -c for k, c in self.terms.items()},
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        orders = self._joint_orders(other)
        terms = {}
        for (a1, m1, l1), c1 in self.terms.items():
            for (a2, m2, l2), c2 in other.terms.items():
                m, l = m1 + m2, l1 + l2
                if m > orders.z or l > orders.h:
                    continue
                alpha = tuple(x + y for x, y in zip(a1, a2))
                if sum(alpha) > orders.iota:
                    continue
                key = (alpha, m, l)
                prod = c1 * c2
                terms[key] = terms[key] + prod if key in terms else prod
        return MultiSeries(self.field, self.n_actions, orders, terms)

    def scale(self, value):
        return MultiSeries(
            self.field, self.n_actions, self.orders,
            {k: value * c for k, c in self.terms.items()},
        )

    # -- queries ----------------------------------------------------------

    def get(self, alpha, m, l):
        return self.terms.get((tuple(alpha), m, l), self.field.zero)

    def constant_term(self):
        return self.get((0,) * self.n_actions, 0, 0)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (
            self.n_actions == other.n_actions
            and self.terms.keys() == other.terms.keys()
            and all(self.terms[k] == other.terms[k] for k in self.terms)
        )

    def __hash__(self):
        return None  # unhashable; equality is structural

    def close_to(self, other, tol=None):
        """Coefficientwise comparison through the field tolerance."""
        self._check_compatible(other)
        keys = set(self.terms) | set(other.terms)
        z = self.field.zero
        return all(
            self.field.close(self.terms.get(k, z), other.terms.get(k, z), tol)
            for k in keys
        )

    def truncate(self, orders):
        orders = _as_orders(orders)
        if (
            orders.iota > self.orders.iota
            or orders.z > self.orders.z
            or orders.h > self.orders.h
        ):
            raise SchemaError("cannot truncate to higher orders than computed")
        return MultiSeries(self.field, self.n_actions, orders, self.terms)

    # -- calculus ---------------------------------------------------------

    def exp_series(self):
        """exp of a series with zero constant term.

        Terminates because the argument is nilpotent under truncation:
        every term raises at least one of the graded degrees.
        """
        if ((0,) * self.n_actions, 0, 0) in self.terms:
            raise SchemaError("exp_series requires a zero constant term")
        result = MultiSeries.scalar(self.field, self.n_actions, self.orders, self.field.one)
        power = MultiSeries.scalar(self.field, self.n_actions, self.orders, self.field.one)
        max_steps = self.orders.iota + self.orders.z + self.orders.h
        for m in range(1, max_steps + 1):
            power = power * self
            if power.is_zero():
                break
            result = result + power.scale(self.field.factorial_inv(m))
        return result

    def derive(self, var):
        """Formal partial derivative; output orders drop by one in ``var``."""
        terms = {}
        if var == "z":
            if self.orders.z == 0:
                return MultiSeries.zero(self.field, self.n_actions, self.orders)
            orders = Orders(self.orders.iota, self.orders.z - 1, self.orders.h)
            for (alpha, m, l), c in self.terms.items():
                if m > 0:
                    terms[(alpha, m - 1, l)] = c * self.field.from_int(m)
        elif var == "h":
            if self.orders.h == 0:
                return MultiSeries.zero(self.field, self.n_actions, self.orders)
            orders = Orders(self.orders.iota, self.orders.z, self.orders.h - 1)
            for (alpha, m, l), c in self.terms.items():
                if l > 0:
                    terms[(alpha, m, l - 1)] = c * self.field.from_int(l)
        elif isinstance(var, tuple) and var[0] == "iota":
            j = var[1]
            if not 0 <= j < self.n_actions:
                raise SchemaError(f"unknown variable {var!r}")
            if self.orders.iota == 0:
                return MultiSeries.zero(self.field, self.n_actions, self.orders)
            orders = Orders(self.orders.iota - 1, self.orders.z, self.orders.h)
            for (alpha, m, l), c in self.terms.items():
                if alpha[j] > 0:
                    new = list(alpha)
                    new[j] -= 1
                    terms[(tuple(new), m, l)] = c * self.field.from_int(alpha[j])
        else:
            raise SchemaError(f"unknown variable {var!r}")
        return MultiSeries(self.field, self.n_actions, orders, terms)

    # -- views --------------------------------------------------------------

    def h_coefficient(self, l):
        """The z-(and iota-)series multiplying h^l, as a series with h-order 0."""
        terms = {
            (alpha, m, 0): c
            for (alpha, m, ll), c in self.terms.items()
            if ll == l
        }
        return MultiSeries(self.field, self.n_actions,
                           Orders(self.orders.iota, self.orders.z, 0), terms)

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
    terms = {}
    if coeffs:
        for m, c in coeffs.items():
            terms[((), m, 0)] = c
    return MultiSeries(field, 0, Orders(0, orders_z, 0), terms)
