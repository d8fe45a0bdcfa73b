"""Polynomial maps on phase space, with the Lie machinery for map
normalization.

Variables are ordered (x_1..x_n, xi_1..xi_n); the bracket convention is

    {f, g} = sum_j d_{xi_j} f d_{x_j} g - d_{x_j} f d_{xi_j} g,

so the Hamiltonian flow of p moves x_j' = d_{xi_j} p, xi_j' = -d_{x_j} p,
matching H_p = sum d_xi p d_x - d_x p d_xi.  Everything is truncated at a
total polynomial degree carried explicitly, and coefficients live in a
field object from :mod:`bnftrace.fields`, so the same engine serves float
maps and exact rational fixtures.

:class:`PhasePoly` is a layout of the sparse core
:class:`bnftrace.series.TruncatedPoly`, which does all its arithmetic.  A
key packs an exponent tuple into one integer, a ``FIELD_BITS``-bit field
per exponent above one for the total degree: a product key is the sum of
the keys, which the core adds inline (``_adds_keys``), and a key's degree
is ``key & DEGREE_MASK``.  x_1 sits in the top field so that integer
order is the tuples' lexicographic order: the sorted walk of
``PolyMap.compose``, so the order of its sums, and the term order of map
files stay as tuple keys had them.  :func:`monomial` and
:func:`exponents` convert at the edges.  Products room on the total degree,
the one bound (at most ``MAX_DEGREE``), so a product whose degree fits
always fits and no field carries.  ``derive`` keeps the degree: the Lie
series in ``exp_ham`` adds brackets at one fixed degree.
"""

from collections import namedtuple

from .errors import DimensionMismatchError, SchemaError
from .fields import nan_max
from .series import TruncatedPoly

Degree = namedtuple("Degree", ["total"])

FIELD_BITS = 8  # one byte: exponents reads the bytes of a key
DEGREE_MASK = MAX_DEGREE = (1 << FIELD_BITS) - 1


def monomial(exps):
    """The key of the exponent tuple ``exps``, of degree <= MAX_DEGREE."""
    key = 0
    for e in exps:
        key = key << FIELD_BITS | e
    return key << FIELD_BITS | sum(exps)


def exponents(key, nvars):
    """The exponent tuple of ``key`` in ``nvars`` variables: the key's
    bytes but the last, as a field is one byte."""
    return tuple(key.to_bytes(nvars + 1, "big")[:nvars])


class PhasePoly(TruncatedPoly):
    """Polynomial in ``nvars`` variables truncated at total degree."""

    __slots__ = ()
    nvars = property(lambda self: self.arity)
    degree = property(lambda self: self.bound.total)

    def __init__(self, field, nvars, degree, terms=None):
        if degree > MAX_DEGREE:
            raise SchemaError(f"polynomial degree {degree} is above the "
                              f"limit {MAX_DEGREE} of its monomial keys")
        super().__init__(field, nvars, Degree(degree), terms)

    def _key(self, exps):
        exps = tuple(exps)
        if len(exps) != self.arity:
            raise DimensionMismatchError(
                f"exponent {exps} has arity != {self.arity}"
            )
        if any(e < 0 for e in exps):
            raise SchemaError(f"negative exponent {exps}")
        return monomial(exps) if sum(exps) <= self.bound.total else None

    _degree = staticmethod(DEGREE_MASK.__and__)
    _adds_keys = True

    @staticmethod
    def _fits(key, bound):
        return key & DEGREE_MASK <= bound.total

    @classmethod
    def scalar(cls, field, nvars, degree, value):
        return cls(field, nvars, degree, {(0,) * nvars: value})

    @classmethod
    def variable(cls, field, nvars, degree, i):
        e = [0] * nvars
        e[i] = 1
        return cls(field, nvars, degree, {tuple(e): field.one})

    def derive(self, i):
        shift = FIELD_BITS * (self.arity - i)
        step = (1 << shift) + 1  # one off x_i's field and one off the degree
        terms = {}
        for k, c in self.terms.items():
            e = k >> shift & DEGREE_MASK
            if e:
                terms[k - step] = c * e
        return self._make(self.field, self.arity, self.bound, terms)

    def degree_part(self, d):
        return self._make(self.field, self.arity, self.bound,
                          {k: c for k, c in self.terms.items()
                           if k & DEGREE_MASK == d})

    def min_degree(self):
        return min((k & DEGREE_MASK for k in self.terms), default=None)

    def max_coeff_abs(self):
        return nan_max(map(self.field.abs, self.terms.values()))

    def __repr__(self):
        return f"<PhasePoly {len(self.terms)} terms deg<={self.degree}>"


def _bracket(df, degree, g, n):
    """{f, g} from the 2n partials ``df`` of f, which has degree ``degree``."""
    out = PhasePoly.zero(g.field, g.nvars, min(degree, g.degree))
    for j in range(n):
        out = out + df[n + j] * g.derive(j) - df[j] * g.derive(n + j)
    return out


class PolyMap:
    """A polynomial map of phase space: 2n component polynomials."""

    __slots__ = ("field", "n", "degree", "comps")

    def __init__(self, field, n, degree, comps):
        if len(comps) != 2 * n:
            raise DimensionMismatchError("need 2n components")
        self.field = field
        self.n = n
        self.degree = degree
        self.comps = list(comps)

    @classmethod
    def identity(cls, field, n, degree):
        comps = [PhasePoly.variable(field, 2 * n, degree, i)
                 for i in range(2 * n)]
        return cls(field, n, degree, comps)

    @classmethod
    def from_linear(cls, field, n, degree, matrix):
        """matrix: 2n x 2n of field scalars (rows act on (x, xi))."""
        comps = []
        for i in range(2 * n):
            terms = {}
            for j in range(2 * n):
                c = matrix[i][j]
                if not field.is_zero(c):
                    e = [0] * (2 * n)
                    e[j] = 1
                    terms[tuple(e)] = c
            comps.append(PhasePoly(field, 2 * n, degree, terms))
        return cls(field, n, degree, comps)

    def compose(self, other):
        """self(other(w)), truncated.

        Each monomial is built once for all components that hold it.  The
        union of their keys runs in lexicographic order over a prefix
        stack, ``stack[j]`` = prod_{i<=j} other_i^{e_i} (None while that
        product is still 1), so a key recomputes only the levels from its
        first exponent that differs from the previous key.  The stack
        holds O(nvars) polynomials; no monomial value outlives its key.
        """
        if self.n != other.n:
            raise DimensionMismatchError("half-dimension mismatch")
        deg = min(self.degree, other.degree)
        f = self.field
        nv = 2 * self.n
        # which components hold each monomial, with their coefficients
        holders = {}
        for i, comp in enumerate(self.comps):
            for k, c in comp.terms.items():
                holders.setdefault(k, []).append((i, c))
        keys = sorted(holders)
        exps = [exponents(k, nv) for k in keys]
        # cache powers of the inner components
        pows = []
        for j in range(nv):
            lst = [PhasePoly.scalar(f, nv, deg, f.one)]
            for _ in range(max((e[j] for e in exps), default=0)):
                lst.append(lst[-1] * other.comps[j])
            pows.append(lst)
        out = [{} for _ in self.comps]
        stack = [None] * nv
        prev = None
        for k, e in zip(keys, exps):
            start = 0
            if prev is not None:
                while e[start] == prev[start]:
                    start += 1
            value = stack[start - 1] if start else None
            for j in range(start, nv):
                p = e[j]
                if p:
                    value = pows[j][p] if value is None else value * pows[j][p]
                stack[j] = value
            prev = e
            value_terms = (value.terms if value is not None
                           else {k: f.one})
            for i, c in holders[k]:
                acc = out[i]
                for key, v in value_terms.items():
                    t = c * v
                    old = acc.get(key)
                    acc[key] = t if old is None else old + t
        bound = Degree(deg)
        return PolyMap(f, self.n, deg,
                       [PhasePoly._make(f, nv, bound, acc) for acc in out])

    def sub(self, other):
        return PolyMap(self.field, self.n, min(self.degree, other.degree),
                       [a - b for a, b in zip(self.comps, other.comps)])

    def linear_matrix(self):
        """The Jacobian at the origin as a list-of-rows of field scalars."""
        f = self.field
        nv = 2 * self.n
        rows = []
        for comp in self.comps:
            row = []
            for j in range(nv):
                e = [0] * nv
                e[j] = 1
                row.append(comp.terms.get(monomial(e), f.zero))
            rows.append(row)
        return rows

    def __repr__(self):
        return f"<PolyMap n={self.n} deg<={self.degree}>"


def exp_ham(chi, n, degree, inverse=False):
    """The time-1 map of H_chi as a PolyMap, for chi of degree >= 3; with
    ``inverse``, the pair (exp H_chi, exp H_-chi) from one Lie series.

    Lie series w_i + sum_m H_chi^m(w_i)/m! terminates under truncation
    because each bracket with chi raises the degree by deg(chi) - 2 >= 1.
    H_-chi^m = (-1)^m H_chi^m, so the inverse sums the same terms with the
    odd ones negated; negation is exact, so it equals the series of -chi
    term for term.
    """
    f = chi.field
    md = chi.min_degree()
    if md is not None and md < 3:
        raise SchemaError("exp_ham needs a generator of degree >= 3")
    nv = 2 * n
    dchi = [chi.derive(i) for i in range(nv)]
    comps, inv_comps = [], []
    for i in range(nv):
        w = PhasePoly.variable(f, nv, degree, i)
        acc = inv = cur = w
        m = 1
        while True:
            cur = _bracket(dchi, chi.degree, cur, n)
            if cur.is_zero():
                break
            term = cur.scale(f.factorial_inv(m))
            acc = acc + term
            if inverse:
                inv = inv + (-term if m % 2 else term)
            m += 1
            if m > degree + 2:
                break
        comps.append(acc)
        inv_comps.append(inv)
    fwd = PolyMap(f, n, degree, comps)
    return (fwd, PolyMap(f, n, degree, inv_comps)) if inverse else fwd


def iota_poly_to_phase(field, n, degree, iota_terms):
    """sum_m c_m prod_j (a_j b_j)^{m_j} as a PhasePoly in (a, b) layout."""
    terms = {}
    for m, c in iota_terms.items():
        e = list(m) + list(m)
        terms[tuple(e)] = c
    return PhasePoly(field, 2 * n, degree, terms)
