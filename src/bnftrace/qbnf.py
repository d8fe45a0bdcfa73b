"""Quantum Birkhoff normal form data and the forward trace engine.

The normal form data is the pair (mu(z), F(iota, z; h)): classified
exponents with their z-jets, plus a truncated series F whose h^0 part is
O(iota^2).  Writing G = <iota, mu(z)> + F, the k-th power trace expands as

    tr U(z)^k = e^{ikS(z)/h} e^{-ik f0(z)} *
                exp(-ik sum_{j>=1} h^j f_j(z, i k^{-1} d/dmu))
                prod_j (1/2) csch(k mu_j / 2) |_{mu = mu(z)},

where f_j(z, y) = sum_{l + |alpha| = j+1} (F_l coefficient of iota^alpha) y^alpha
regroups F and f0(z) = F_1(z, 0).  :func:`trace_power` expands the
exponential of the (nilpotent) operator part and applies the resulting
polynomial differential operators to the csch product along mu(z).

The csch side does not depend on F, only on the blocks, the mu-jets, the
z-order and the pole tolerance, and it is a product over blocks:
d^alpha prod_j (1/2)csch(k mu_j/2) = prod_j d^{alpha_j} (1/2)csch(k mu_j/2).
Every derivative it needs is a Taylor coefficient of (1/2)csch(k mu/2) at
mu_j(0), which does not depend on the jets.  A :class:`TraceEngine` holds
the csch side of one set of blocks: per (k, j) the table of those
coefficients (:class:`~bnftrace.hypcalc.CschTaylor`), grown on demand, so
a value at mu(0) is a product of table entries.  Along the jets
delta_j(z) = mu_j(z) - mu_j(0) the block factor is
d^a (1/2)csch(k mu_j(z)/2) = sum_b d^{a+b} (1/2)csch(k mu_j(0)/2)
delta_j(z)^b / b!, and per jet state the engine keeps the powers of the
jets, the block factors per (k, j, a) and their products over j per
(k, alpha).  The caches live as long as the engine:
:func:`make_trace_data` uses one for all powers, and the recovery one for
every stage and its self-check, so no evaluation is repeated within it;
it also keeps each :func:`trace_power` result, for an equal normal form.

The F side does not depend on k.  With X = sum_{j>=1} h^j f_j(z, y),
exp(-ik X) = sum_m ((-ik)^m / m!) X^m, and likewise for the z-dependent
phase, so each normal form computes the constant phase and the powers of
X and of f0(z) - f0(0) once per (N_z, N_h) (:meth:`QuantumBNF.trace_side`),
and every k only scales and adds them.  The csch side is computed once
per engine, the F side once per normal form and orders.
:func:`make_trace_data` and the recovery's self-check take the whole
expansion from :func:`trace_power`.  A recovery stage (h^j, z^m) reads
coefficients at h^j, which depend on nothing of higher order, so
:func:`trace_layer` forms the h^j layer of exp(-ik X) alone and convolves
it with the z-phase, with no series product, through the kernel
trace_power runs on, and it also gives the part that F terms of weight
j + 1 add to that layer, linearly.  An engine serves every z-order up to
its own, so the stages share it.

Phase conventions: the oscillatory prefactor e^{ikS(z)/h} is never mixed
into the h-expansion (the action series travels as metadata), and the
constant scalar phase e^{-ik f0(0)} is likewise factored out and stored in
``phase`` -- it is transcendental on the rational backend, and keeping it
symbolic is what makes the rational round trip bit-exact.  The z-dependent
part of the phase, exp(-ik (f0(z) - f0(0))), has polynomial coefficients
and is multiplied into the stored series.
"""

from . import hypcalc
from .blocks import ELLIPTIC, require_nonresonant
from .errors import MathError, SchemaError
from .hypcalc import DEFAULT_POLE_TOL
from .series import MultiSeries, Orders, powers


class QuantumBNF:
    """The data (mu(z), F(iota, z; h)).

    ``mu_jets`` are z-series for mu_j(z) - mu_j(0) (zero constant term);
    the constants live in ``blocks`` as half-exponentials.
    """

    __slots__ = ("field", "blocks", "mu_jets", "F", "_trace_sides")

    def __init__(self, blocks, mu_jets, F, validate=True):
        self.field = blocks.field
        self.blocks = blocks
        self.mu_jets = list(mu_jets)
        self.F = F
        self._trace_sides = {}
        if validate:
            self._validate()

    @property
    def n(self):
        return self.blocks.n

    def _validate(self):
        f = self.field
        if len(self.mu_jets) != self.n:
            raise SchemaError(
                f"expected {self.n} mu jets, got {len(self.mu_jets)}"
            )
        for jet in self.mu_jets:
            if jet.n_actions != 0:
                raise SchemaError("mu jets must be plain z-series")
            if not f.is_zero(jet.constant_term()):
                raise SchemaError(
                    "mu jets carry the z-dependence above mu(0); "
                    "constant terms belong to the blocks"
                )
        if self.F.n_actions != self.n:
            raise SchemaError(
                f"F has {self.F.n_actions} action slots, blocks have {self.n}"
            )
        for (alpha, _m, l), _c in self.F.terms.items():
            if l == 0 and sum(alpha) < 2:
                raise SchemaError(
                    "h^0 part of F must be O(iota^2): "
                    f"offending term iota^{alpha}"
                )

    def f_series(self, n_h, n_z):
        """Regroup F into sum_j h^j f_j(z, y) = F(h y, z; h)/h.

        The iota slots of the result hold y-powers.  Terms with
        l + |alpha| - 1 > n_h are dropped; products inside the exponential
        can still reach y-degree 2 n_h, hence the wide iota budget.
        """
        f = self.field
        orders = Orders(2 * n_h + 2, n_z, n_h)
        terms = {}
        for (alpha, m, l), c in self.F.terms.items():
            j = l + sum(alpha) - 1
            if j < 0:
                raise SchemaError("F violates the O(iota^2) normalization")
            if j > n_h or m > n_z:
                continue
            terms[(alpha, m, j)] = c
        return MultiSeries(f, self.n, orders, terms)

    def trace_side(self, n_z, n_h):
        """The k-independent F side of :func:`trace_power` at orders
        (n_z, n_h), built on first use and kept for the instance's life.

        Returns ``(phase, x_powers, f0_powers)``: the constant phase
        f0(0), and the powers [1, X, X^2, ...] of the operator part
        X = sum_{j>=1} h^j f_j(z, y) and of f0plus = f0(z) - f0(0), each up
        to the first power that truncates to zero.
        """
        side = self._trace_sides.get((n_z, n_h))
        if side is None:
            side = self._build_trace_side(n_z, n_h)
            self._trace_sides[(n_z, n_h)] = side
        return side

    def _build_trace_side(self, n_z, n_h):
        f = self.field
        fs = self.f_series(n_h, n_z)
        # split off f_0(z): the h^0 layer, which must be y-independent
        f0_terms = {}
        for (alpha, m, l), c in fs.terms.items():
            if l == 0:
                if sum(alpha) != 0:
                    raise SchemaError(
                        "h^0 layer of F(hy,z;h)/h must be y-independent; "
                        "the QuantumBNF is malformed"
                    )
                f0_terms[((), m, 0)] = c
        # full order budget so later products do not truncate the h direction
        f0 = MultiSeries(f, 0, Orders(0, n_z, n_h), f0_terms)
        phase = f0.constant_term()
        f0plus = f0 - MultiSeries.scalar(f, 0, f0.orders, phase)
        x_terms = {key: c for key, c in fs.terms.items() if key[2] >= 1}
        X = MultiSeries(f, self.n, fs.orders, x_terms)
        return phase, powers(X), powers(f0plus)

    def close_to(self, other, tol=None):
        if self.n != other.n or self.blocks.tags != other.blocks.tags:
            return False
        f = self.field
        ok = all(
            f.close(a, b, tol)
            for a, b in zip(self.blocks.exp_half, other.blocks.exp_half)
        )
        ok = ok and all(
            a.close_to(b, tol) for a, b in zip(self.mu_jets, other.mu_jets)
        )
        return ok and self.F.close_to(other.F, tol)


class TracePower:
    """Result of one trace_power call: stored series plus phase metadata.

    The represented trace is  e^{ikS(z)/h} * e^{-ik phase} * coeffs(z, h).
    """

    __slots__ = ("k", "phase", "coeffs")

    def __init__(self, k, phase, coeffs):
        self.k = k
        self.phase = phase
        self.coeffs = coeffs

    def __repr__(self):
        return f"<TracePower k={self.k} phase={self.phase!r}>"


class TraceData:
    """Per-power trace expansions with action and Maslov metadata."""

    __slots__ = ("field", "k_max", "action", "maslov", "phase", "coefficients")

    def __init__(self, field, k_max, action, maslov, phase, coefficients):
        self.field = field
        self.k_max = k_max
        self.action = action
        self.maslov = {int(k): int(v) % 4 for k, v in maslov.items()}
        self.phase = phase
        self.coefficients = dict(coefficients)
        self._validate()

    def _validate(self):
        if self.k_max < 1:
            raise SchemaError("k_max must be >= 1")
        if self.action.n_actions != 0:
            raise SchemaError("action must be a plain z-series")
        f = self.field
        for (_a, _m, _l), c in self.action.terms.items():
            try:
                im = f.to_complex(c).imag
            except OverflowError:
                raise SchemaError(f"action coefficient {c!r} is beyond the "
                                  "double range") from None
            if abs(im) > 1e-12:
                raise SchemaError(f"action series must be real, found Im={im}")
        for k in range(1, self.k_max + 1):
            if k not in self.coefficients:
                raise SchemaError(f"missing trace coefficients for k={k}")
            # the recovery reads every power at k = 1's orders
            orders = self.coefficients[k].orders, self.coefficients[1].orders
            if orders[0] != orders[1]:
                raise SchemaError(f"trace coefficients for k={k} have "
                                  "{}, those for k=1 {}".format(*orders))

    def orders(self):
        s = self.coefficients[1]
        return Orders(0, s.orders.z, s.orders.h)


class LeadingTerm:
    """Geometric leading term: series plus the symbolic oscillatory factor."""

    __slots__ = ("series", "k", "maslov", "oscillatory")

    def __init__(self, series, k, maslov):
        self.series = series
        self.k = k
        self.maslov = maslov
        self.oscillatory = f"exp(i*{k}*I(z)/h)"

    def __repr__(self):
        return f"<LeadingTerm k={self.k} x {self.oscillatory}>"


def _check_trace_orders(bnf, orders):
    n_z, n_h = orders
    For = bnf.F.orders
    if n_h > For.h:
        raise SchemaError(
            f"trace h-order {n_h} exceeds F truncation h<={For.h}"
        )
    if n_h + 1 > For.iota:
        raise SchemaError(
            f"trace h-order {n_h} needs F iota-order >= {n_h + 1}, have {For.iota}"
        )
    if n_z > For.z:
        raise SchemaError(
            f"trace z-order {n_z} exceeds F truncation z<={For.z}"
        )


class TraceEngine:
    """The F-independent csch side of the trace expansion for one set of
    blocks, up to z-order ``n_z`` (see the module docstring), cached for
    the engine's lifetime.
    """

    def __init__(self, blocks, n_z, pole_tol=DEFAULT_POLE_TOL):
        self.field = blocks.field
        self.exp_half = list(blocks.exp_half)
        self.n_z = n_z
        self.pole_tol = pole_tol
        self._tables = {}
        self._jet_caches = {}
        self.trace_powers = {}

    def serves(self, blocks, n_z, pole_tol):
        """True when the engine was built for these blocks and pole
        tolerance, at z-order ``n_z`` or above: its series then hold every
        term up to ``n_z``."""
        return (blocks.field is self.field and n_z <= self.n_z
                and pole_tol == self.pole_tol
                and list(blocks.exp_half) == self.exp_half)

    def _derivatives(self, k, j, p):
        """d^q (1/2)csch(k mu_j/2) at mu_j(0), listed for q = 0..p at
        least."""
        table = self._tables.get((k, j))
        if table is None:
            table = self._tables[(k, j)] = hypcalc.CschTaylor(
                self.field, self.exp_half[j], k, self.pole_tol)
        return table.grow(p).d

    def value_at_mu0(self, k, alpha):
        """d^alpha prod_j (1/2)csch(k mu_j/2) at mu(0): a product of table
        entries."""
        v = self.field.one
        for j, a in enumerate(alpha):
            v = v * self._derivatives(k, j, a)[a]
        return v

    def along(self, mu_jets):
        """The caches of :meth:`zseries` along ``mu_jets``, made on first
        use: per block the powers delta_j^b / b! of its jet at the engine's
        z-order, and the block factors and products formed so far.  A
        forward call looks them up once."""
        key = tuple(tuple(sorted(jet.terms.items())) for jet in mu_jets)
        caches = self._jet_caches.get(key)
        if caches is None:
            f, orders = self.field, Orders(0, self.n_z, 0)
            scaled = [[p.scale(f.factorial_inv(b)) for b, p in
                       enumerate(powers(MultiSeries(f, 0, orders, jet.terms)))]
                      for jet in mu_jets]
            caches = self._jet_caches[key] = (scaled, {}, {})
        return caches

    def zseries(self, k, alpha, jets):
        """z-series of d^alpha prod_j (1/2)csch(k mu_j/2) along mu(z), for
        the jets whose caches :meth:`along` gave.  Block j's factor is
        sum_b d^{alpha_j + b} (1/2)csch(k mu_j(0)/2) delta_j(z)^b / b!."""
        scaled, factors, products = jets
        s = products.get((k, alpha))
        if s is None:
            for j, a in enumerate(alpha):
                factor = factors.get((k, j, a))
                if factor is None:
                    d = self._derivatives(k, j, a + len(scaled[j]) - 1)
                    factor = scaled[j][0].scale(d[a])
                    for b in range(1, len(scaled[j])):
                        factor = factor + scaled[j][b].scale(d[a + b])
                    factors[(k, j, a)] = factor
                s = factor if j == 0 else s * factor
            products[(k, alpha)] = s
        return s


def trace_power(bnf, k, orders, pole_tol=DEFAULT_POLE_TOL, engine=None):
    """Expansion of tr U(z)^k to the given (N_z, N_h) orders.

    Returns a :class:`TracePower`; see the module docstring for the exact
    phase convention.  ``engine`` is a :class:`TraceEngine` built for the
    blocks of ``bnf`` at z-order N_z or above; without it a throwaway one
    is used.  The engine's memo keys it by k, orders, F's and jets' terms.
    """
    engine = _checked_engine(bnf, k, orders, pole_tol, engine)
    key = (k, tuple(orders),
           *(tuple(sorted(s.terms.items())) for s in [bnf.F, *bnf.mu_jets]))
    tp = engine.trace_powers.get(key)
    if tp is None:
        phase, pz, applied = _forward(bnf, k, orders, engine)
        f = bnf.field
        series_orders = Orders(0, *orders)
        coeffs = (MultiSeries(f, 0, series_orders, applied)
                  * MultiSeries(f, 0, series_orders, pz))
        tp = engine.trace_powers[key] = TracePower(k, phase, coeffs)
    return tp


def trace_coefficient(bnf, k, m, j, pole_tol=DEFAULT_POLE_TOL, engine=None):
    """The z^m h^j coefficient of ``trace_power(bnf, k, (m, j)).coeffs``:
    the last entry of :func:`trace_layer` at (m, j)."""
    return trace_layer(bnf, k, (m, j), pole_tol, engine)[m]


def trace_layer(bnf, k, orders, pole_tol=DEFAULT_POLE_TOL, engine=None,
                added=None):
    """The z^0..z^{N_z} coefficients at h^{N_h} of
    ``trace_power(bnf, k, orders).coeffs``, as a list.

    The z-phase exp(-ik f0plus) has z-terms only, so the z^m coefficient is
    sum_{m2} pz_{m2} A_{m-m2}, where A is the h^{N_h} layer of the operator
    exponential applied to the csch product: only that layer is formed,
    and no series product is taken.  ``engine`` is as for
    :func:`trace_power`.

    ``added`` maps (alpha, m) to x for F terms x iota^alpha z^m of weight
    N_h + 1 >= 2 that ``bnf`` lacks; the result is then what they add to
    the layer.  They enter exp(-ik X) at h^{N_h} only linearly, through X:
    as (-ik) x (i/k)^{|alpha|} z^m d^alpha prod_j (1/2)csch(k mu_j/2).
    """
    n_z, layer = orders
    engine = _checked_engine(bnf, k, orders, pole_tol, engine)
    _phase, pz, applied = _forward(bnf, k, orders, engine, layer, added)
    return [sum((c * applied[key] for ((), m2, _l), c in pz.items()
                 if (key := ((), m - m2, layer)) in applied), bnf.field.zero)
            for m in range(n_z + 1)]


def _checked_engine(bnf, k, orders, pole_tol, engine):
    """``engine`` (or a new one) once k, orders and engine are checked."""
    if k < 1:
        raise SchemaError("k must be a positive integer")
    _check_trace_orders(bnf, orders)
    if engine is None:
        return TraceEngine(bnf.blocks, orders[0], pole_tol)
    if not engine.serves(bnf.blocks, orders[0], pole_tol):
        raise SchemaError(
            "trace engine was built for other blocks or pole tolerance, or "
            "a lower z-order"
        )
    return engine


def _forward(bnf, k, orders, engine, layer=None, added=None):
    """The kernel of :func:`trace_power` and :func:`trace_layer`.

    Returns ``(phase, pz, applied)``: the constant phase f0(0), the terms
    of the z-phase exp(-ik f0plus), and the terms ((), m, l) of the
    operator exponential exp(-ik sum_j h^j f_j(z, i k^{-1} d/dmu)) applied
    to prod_j (1/2)csch(k mu_j/2) along mu(z).  With ``layer`` = l only
    the h^l layer of the operator is formed and applied, or with
    ``added`` that layer's part in them (see :func:`trace_layer`).
    """
    n_z, n_h = orders
    jets = engine.along(bnf.mu_jets)
    f = bnf.field
    phase, x_powers, f0_powers = bnf.trace_side(n_z, n_h)
    minus_ik = -(f.i * f.from_int(k))
    # operator part exp(-ik X) and z-dependent scalar phase exp(-ik f0plus)
    op = (_exp_from_powers(x_powers, minus_ik, layer) if added is None else
          {(a, m, layer): minus_ik * x for (a, m), x in added.items()})
    pz = _exp_from_powers(f0_powers, minus_ik)

    # apply the operator monomials to the csch product along mu(z)
    ik_inv = f.i * f.inv(f.from_int(k))
    ik_pow = {}
    applied = {}
    for (alpha, m, l), c in op.items():
        da = sum(alpha)
        if da and da not in ik_pow:
            ik_pow[da] = ik_inv**da
        factor = c * ik_pow[da] if da else c
        for ((), m2, _), ec in engine.zseries(k, alpha, jets).terms.items():
            mm = m + m2
            if mm > n_z:
                continue
            key = ((), mm, l)
            v = factor * ec
            applied[key] = applied[key] + v if key in applied else v
    return phase, pz, applied


def _exp_from_powers(s_powers, t, layer=None):
    """The terms of exp(t s) = sum_p (t^p / p!) s^p from ``s_powers`` =
    :func:`~bnftrace.series.powers`(s), merged by key: scalings and sums
    only.  With ``layer`` = l, only the terms of h-order l."""
    f = s_powers[0].field
    out = {}
    w = tp = f.one
    for p, power in enumerate(s_powers):
        if p:
            tp = tp * t
            w = tp * f.factorial_inv(p)
        for key, c in power.terms.items():
            if layer is None or key[2] == layer:
                v = w * c
                out[key] = out[key] + v if key in out else v
    return out


def leading_term(action, maslov_nu, blocks, k, n_z, mu_jets=None):
    """Leading geometric amplitude  e^{i nu pi/2} I'(z) / |det(dkappa^k - 1)|^{1/2}.

    The determinant magnitude factorizes over blocks as
    prod_j |2 sinh(k mu_j(z)/2)|, and its reciprocal is the engine's
    z-series of prod_j (1/2)csch(k mu_j/2) (no series division).  The e^{ikI(z)/h} factor stays
    symbolic on the returned object.  ``mu_jets`` optionally supplies the
    z-dependence of the exponents; default is a z-independent orbit.
    """
    if k == 0:
        raise SchemaError("k must be nonzero")
    kk = abs(int(k))
    f = blocks.field
    orders = Orders(0, n_z, 0)
    engine = TraceEngine(blocks, n_z)
    if mu_jets is None:
        mu_jets = [MultiSeries.zero(f, 0, orders)] * blocks.n
    try:
        csch = engine.zseries(kk, (0,) * blocks.n, engine.along(mu_jets))
    except MathError as exc:
        raise MathError(
            f"degenerate orbit: |2 sinh(k mu_j/2)| below tolerance at k={k}"
        ) from exc
    # the product is positive over hyperbolic blocks and complex hyperbolic
    # pairs; on an elliptic block (1/2)csch(ik theta/2) =
    # -i/(2 sin(k theta/2)), and i sign(sin) restores 1/(2|sin|)
    unit = f.i ** (int(maslov_nu) % 4)
    for tag, E in zip(blocks.tags, blocks.exp_half):
        if tag == ELLIPTIC:
            s2 = f.to_complex(E**kk - f.inv(E**kk))  # 2i sin(k theta/2)
            unit = unit * f.i * f.from_int(1 if s2.imag > 0 else -1)
    iprime = MultiSeries(f, 0, orders, action.derive("z").terms)
    return LeadingTerm(csch.scale(unit) * iprime, k, int(maslov_nu) % 4)


def make_trace_data(bnf, action, maslov, k_max, orders,
                    pole_tol=DEFAULT_POLE_TOL, resonance_tol=1e-8, engine=None):
    """Bundle trace_power outputs for k = 1..k_max into a TraceData.

    The blocks must be nonresonant through sum |k_j| <= 10.  All powers
    share one :class:`TraceEngine`: ``engine`` if given (it must serve
    ``bnf``), else a new one.
    """
    if k_max < 1:
        raise SchemaError("k_max must be >= 1")
    require_nonresonant(bnf.blocks, 10, resonance_tol)
    if engine is None:
        engine = TraceEngine(bnf.blocks, orders[0], pole_tol)
    coefficients = {}
    phase = None
    for k in range(1, k_max + 1):
        tp = trace_power(bnf, k, orders, pole_tol, engine=engine)
        coefficients[k] = tp.coeffs
        phase = tp.phase
    maslov = {k: maslov.get(k, 0) if isinstance(maslov, dict) else maslov[k]
              for k in range(1, k_max + 1)}
    return TraceData(bnf.field, k_max, action, maslov, phase, coefficients)
