"""Pairing calculus for smeared oscillatory families.

For u(z, h) = e^{iI(z)/h} sum_j a_j(z) h^j and a test function g, the
pairing J(g, u) = h^{-1} int ghat(z/h) chi(z) u(z, h) dz expands as
e^{iI(0)/h} sum_p b_p(g) h^p.  After the substitution zeta = z/h
everything reduces to the moments

    int ghat(zeta) zeta^m e^{i I_1 zeta} dzeta = 2 pi (-i)^m g^(m)(I_1)

under the Fourier convention ghat(zeta) = int e^{-it zeta} g(t) dt, which
this module fixes once (a numerical quadrature cross-check guards the
sign conventions in the tests).  The cutoff chi contributes O(h^infty)
and is dropped.

Unit convention: every pairing coefficient is stored in units of 2*pi
(i.e. b_p / (2 pi)); the factor is transcendental on the exact backend
and carrying it symbolically keeps rational round trips bit-exact.

The inverse direction recovers the jets I_{p+1} and a_{jl} level by
level as a linear solve per level.  Forward and inverse share one pairing
path: the zeta-moments of phase * amp, paired with the test jets.  The
known part of level p is the h^p moment vector of the jets recovered so
far, built once per level; each new unknown adds one moment column.
"""

from .errors import MathError, RankDeficiencyError, SchemaError
from .linalg import solve_lstsq
from .qbnf import TraceData
from .series import MultiSeries, Orders


class TestJet:
    """Finite Taylor data of a test function at the base point I'(0)."""

    __test__ = False  # keep pytest from collecting the class by name
    __slots__ = ("field", "base_point", "jet")

    def __init__(self, field, base_point, jet):
        self.field = field
        self.base_point = base_point
        self.jet = list(jet)

    @classmethod
    def delta(cls, field, base_point, length, m):
        """The jet with g^(m) = 1 and all other derivatives zero."""
        jet = [field.zero] * length
        jet[m] = field.one
        return cls(field, base_point, jet)

    def weights(self):
        """(-i)^q g^(q) for each derivative q the jet holds: the factor a
        pairing puts on the zeta^q moment."""
        minus_i = -self.field.i
        return [minus_i ** (q % 4) * d for q, d in enumerate(self.jet)]


def _vanishes(field, a00):
    """Whether a_0(0) vanishes: exactly, or below 1e-12 on a float field."""
    return field.is_zero(a00) or (not field.exact and field.abs(a00) < 1e-12)


class OrbitExpansion:
    """Jets of one orbit's oscillatory family.

    ``i_jets`` lists the z-power coefficients I_0, I_1, I_2, ... of the
    (real) phase; ``a_jets`` maps (j, l) to the z^l coefficient of a_j.
    """

    __slots__ = ("field", "i_jets", "a_jets")

    def __init__(self, field, i_jets, a_jets, validate=True):
        self.field = field
        self.i_jets = list(i_jets)
        self.a_jets = {k: v for k, v in a_jets.items()
                       if not field.is_zero(v)}
        if validate:
            for v in self.i_jets:
                if abs(field.to_complex(v).imag) > 1e-12:
                    raise SchemaError("phase jets I_m must be real")
            if _vanishes(field, self.a_jets.get((0, 0), field.zero)):
                raise SchemaError("leading amplitude a_0(0) must not vanish")

    def i_jet(self, m):
        return self.i_jets[m] if m < len(self.i_jets) else self.field.zero

    def close_to(self, other, tol=None):
        f = self.field
        n = max(len(self.i_jets), len(other.i_jets))
        ok = all(f.close(self.i_jet(m), other.i_jet(m), tol) for m in range(n))
        keys = set(self.a_jets) | set(other.a_jets)
        return ok and all(
            f.close(self.a_jets.get(k, f.zero), other.a_jets.get(k, f.zero), tol)
            for k in keys
        )


def _moments(f, i_jets, a_jets, order):
    """zeta-moments of phase * amp: one dict {q: coefficient of zeta^q} per
    power h^p, p = 0..order.

    phase = exp(i sum_{j>=1} I_{j+1} zeta^{j+1} h^j) and amp =
    sum a_jl zeta^l h^{j+l}; the h^p slice only reaches zeta^{2p}, so the
    zeta cutoff 2*order + 1 truncates nothing.
    """
    orders = Orders(2 * order + 1, 0, order)
    exp_terms = {((j + 1,), 0, j): f.i * i_jets[j + 1]
                 for j in range(1, min(order + 1, len(i_jets) - 1))}
    phase = MultiSeries(f, 1, orders, exp_terms).exp_series()
    amp = MultiSeries(f, 1, orders, {((l,), 0, j + l): c
                                     for (j, l), c in a_jets.items()
                                     if j + l <= order})
    moments = [{} for _ in range(order + 1)]
    for ((q,), _m, p), c in (phase * amp).terms.items():
        moments[p][q] = c
    return moments


def _pair(f, moments, weights):
    """sum_q c_q (-i)^q g^(q): one level's moments against the
    :meth:`TestJet.weights` of a test jet g.  A power of -i multiplies
    exactly, so on doubles too the sum is the one of (c_q (-i)^q) g^(q)."""
    total = f.zero
    for q, c in moments.items():
        if q >= len(weights):
            raise SchemaError(
                f"insufficient test jet: need derivative order {q}, "
                f"jet has length {len(weights)}"
            )
        total = total + c * weights[q]
    return total


def forward_pairing(u, g, order):
    """Coefficients b_0..b_order of the pairing, in units of 2*pi.

    Requires test jets through derivative order 2*order (the quadratic
    growth comes from the products inside exp(i sum h^j I_{j+1} zeta^{j+1})).
    """
    f = u.field
    weights = g.weights()
    return [_pair(f, m, weights)
            for m in _moments(f, u.i_jets, u.a_jets, order)]


def extract_jets(pairings, basis, order, i0=None):
    """Recover the orbit jets from pairings against a jet basis.

    ``pairings[b]`` lists the coefficients (units of 2*pi) produced with
    ``basis[b]``.  The solve is triangular in the level p = j + l: the new
    unknowns {a_{jl} : j + l = p} and I_{p+1} enter the h^p slice exactly
    linearly, as the unit moment at zeta^l and as i a_00 at zeta^{p+1}
    (I_{p+1}^2 first appears at h^{2p}); the known part is the h^p moments
    of the jets recovered so far.  I_0 is invisible to the coefficients (it
    sits in the e^{iI_0/h} prefactor) and is taken from ``i0``.
    """
    f = basis[0].field
    if len(pairings) != len(basis):
        raise SchemaError("one pairing row per basis element required")
    base = basis[0].base_point
    for g in basis[1:]:
        if not f.close(g.base_point, base):
            raise SchemaError("all basis jets must share the base point I'(0)")
    if len(basis) < order + 2:
        raise RankDeficiencyError(
            f"basis deficiency: level {order} needs at least {order + 2} "
            f"independent jets, have {len(basis)}"
        )

    i_jets = [i0 if i0 is not None else f.zero, base]
    a_jets = {}
    weights = [g.weights() for g in basis]

    for p in range(order + 1):
        known = _moments(f, i_jets, a_jets, p)[p]
        columns = [{l: f.one} for l in range(p + 1)]
        if p:
            columns.append({p + 1: f.i * a_jets[(0, 0)]})
        rows = [[_pair(f, col, w) for col in columns] for w in weights]
        rhs = [pairings[b][p] - _pair(f, known, w)
               for b, w in enumerate(weights)]
        sol, _res = solve_lstsq(f, rows, rhs)
        for l in range(p + 1):
            if not f.is_zero(sol[l]):
                a_jets[(p - l, l)] = sol[l]
        if p:
            im = f.to_complex(sol[p + 1]).imag
            if abs(im) > 1e-9:
                raise MathError(
                    f"inconsistent pairings: recovered I_{p + 1} has "
                    f"imaginary part {im:.3e}"
                )
            val = sol[p + 1]
            if not f.exact:
                # drop the rounding residue the test above allows, which the
                # 1e-12 reality check of OrbitExpansion would refuse
                val = (val + f.conj(val)) * f.inv(f.from_int(2))
            i_jets.append(val)
        else:
            if _vanishes(f, a_jets.get((0, 0), f.zero)):
                raise MathError(
                    "inconsistent pairings: recovered a_0(0) = 0 violates "
                    "the nonvanishing-amplitude hypothesis"
                )
    return OrbitExpansion(f, i_jets, a_jets)


class KPairingBundle:
    """Per-k smeared data: pairings of the k-labeled term with f' jets."""

    __slots__ = ("k_label", "basis", "pairings", "i0")

    def __init__(self, k_label, basis, pairings, i0=None):
        self.k_label = k_label
        self.basis = basis
        self.pairings = pairings
        self.i0 = i0


def traces_from_pairings(bundles, order, phase=None, z_order=None,
                         h_order=None):
    """Convert k-labeled smeared pairings into trace-power expansions.

    The k-labeled term of the smeared trace equals, after integration by
    parts, (k+1)^{-1} times the f'-pairing of the (k+1)-st trace power;
    this routine undoes the (k+1)^{-1} factor and relabels, assembling a
    TraceData whose action series is the common I(z)/k of the bundles and
    whose Maslov indices are 0.
    """
    if not bundles:
        raise SchemaError("no pairing bundles given")
    f = bundles[0].basis[0].field
    seen = set()
    orbits = {}
    for b in bundles:
        if b.k_label in seen:
            raise SchemaError(f"duplicate k label {b.k_label}")
        seen.add(b.k_label)
        k_out = b.k_label + 1
        if k_out < 1:
            raise SchemaError("k labels must be >= 0")
        orb = extract_jets(b.pairings, b.basis, order, i0=b.i0)
        factor = f.from_int(k_out)
        scaled = {key: factor * v for key, v in orb.a_jets.items()}
        orbits[k_out] = OrbitExpansion(f, orb.i_jets, scaled, validate=False)
    k_max = max(orbits)
    for k in range(1, k_max + 1):
        if k not in orbits:
            raise SchemaError(f"missing pairing bundle for trace power {k}")
    # common primitive action: I_jets(k) = k * action_jets
    n_z = z_order if z_order is not None else order
    n_h = h_order if h_order is not None else order
    action_terms = {}
    for k, orb in orbits.items():
        inv_k = f.inv(f.from_int(k))
        for m, c in enumerate(orb.i_jets):
            v = c * inv_k
            key = ((), m, 0)
            if key in action_terms:
                if not f.close(action_terms[key], v):
                    raise MathError(
                        f"pairing bundles disagree on the action at z^{m}"
                    )
            elif m <= n_z:
                action_terms[key] = v
    action = MultiSeries(f, 0, Orders(0, n_z, 0), action_terms)
    coefficients = {}
    for k, orb in orbits.items():
        terms = {}
        for (j, l), c in orb.a_jets.items():
            if j <= n_h and l <= n_z:
                terms[((), l, j)] = c
        coefficients[k] = MultiSeries(f, 0, Orders(0, n_z, n_h), terms)
    phase = phase if phase is not None else f.zero
    return TraceData(f, k_max, action, {}, phase, coefficients)
