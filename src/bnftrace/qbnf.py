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
A :class:`TraceEngine` holds it for one such mu-jet state: per (k, j) the
powers coth^d (1/2)csch along mu_j(z), per (k, j, a) the block factor
d^a (1/2)csch(k mu_j/2) (:func:`~bnftrace.hypcalc.csch_block`) as a
z-series along mu_j(z) and as a value at mu_j(0), and per (k, alpha) the
product of the z-series over j.  The caches live as long as the engine:
:func:`make_trace_data` uses one for all powers, and the recovery one per
mu-jet state, so no evaluation is repeated within it.

The F side does not depend on k.  With X = sum_{j>=1} h^j f_j(z, y),
exp(-ik X) = sum_m ((-ik)^m / m!) X^m, and likewise for the z-dependent
phase, so each normal form computes the constant phase and the powers of
X and of f0(z) - f0(0) once per (N_z, N_h) (:meth:`QuantumBNF.trace_side`),
and every k only scales and adds them.  The csch side is computed once
per engine, the F side once per normal form and orders.
:func:`make_trace_data` and the recovery's self-check take the whole
expansion from :func:`trace_power`.  A recovery stage (h^j, z^m) reads one
coefficient, which depends on nothing of higher order, so
:func:`trace_coefficient` computes only that one at the stage's orders
(m, j): it forms the h^j layer of exp(-ik X) alone and convolves it with
the z-phase, with no series product, through the kernel trace_power runs
on.  An engine serves every z-order up to its own, so the stages share it.

Phase conventions: the oscillatory prefactor e^{ikS(z)/h} is never mixed
into the h-expansion (the action series travels as metadata), and the
constant scalar phase e^{-ik f0(0)} is likewise factored out and stored in
``phase`` -- it is transcendental on the rational backend, and keeping it
symbolic is what makes the rational round trip bit-exact.  The z-dependent
part of the phase, exp(-ik (f0(z) - f0(0))), has polynomial coefficients
and is multiplied into the stored series.
"""

from . import hypcalc
from .blocks import require_nonresonant
from .errors import MathError, SchemaError
from .hypcalc import DEFAULT_POLE_TOL
from .series import MultiSeries, Orders


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
        return phase, _powers(X), _powers(f0plus)

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

    def __init__(self, field, k_max, action, maslov, phase, coefficients,
                 validate=True):
        self.field = field
        self.k_max = k_max
        self.action = action
        self.maslov = {int(k): int(v) % 4 for k, v in maslov.items()}
        self.phase = phase
        self.coefficients = dict(coefficients)
        if validate:
            self._validate()

    def _validate(self):
        if self.k_max < 1:
            raise SchemaError("k_max must be >= 1")
        if self.action.n_actions != 0:
            raise SchemaError("action must be a plain z-series")
        f = self.field
        for (_a, _m, _l), c in self.action.terms.items():
            im = f.to_complex(c).imag
            if abs(im) > 1e-12:
                raise SchemaError(f"action series must be real, found Im={im}")
        for k in range(1, self.k_max + 1):
            if k not in self.coefficients:
                raise SchemaError(f"missing trace coefficients for k={k}")

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
    """The F-independent csch side of the trace expansion for one mu-jet
    state (see the module docstring), cached for the engine's lifetime.
    """

    def __init__(self, blocks, mu_jets, n_z, pole_tol=DEFAULT_POLE_TOL):
        self.field = blocks.field
        self.n = blocks.n
        self.exp_half = list(blocks.exp_half)
        self.mu_jets = list(mu_jets)
        self.n_z = n_z
        self.pole_tol = pole_tol
        self._half = self.field.inv(self.field.from_int(2))
        self._t_powers = {}
        self._block_series = {}
        self._block_values = {}
        self._series = {}

    def serves(self, blocks, mu_jets, n_z, pole_tol):
        """True when the engine was built for this state, at z-order
        ``n_z`` or above: its series then hold every term up to ``n_z``."""
        return (blocks.field is self.field and n_z <= self.n_z
                and pole_tol == self.pole_tol
                and list(blocks.exp_half) == self.exp_half
                and list(mu_jets) == self.mu_jets)

    def _block_zseries(self, k, j, a):
        s = self._block_series.get((k, j, a))
        if s is None:
            tp = self._t_powers.get((k, j))
            if tp is None:
                T, C = hypcalc.coth_csch_series(
                    self.field, self.exp_half[j], self.mu_jets[j], k,
                    self.n_z, self.pole_tol)
                tp = self._t_powers[(k, j)] = (T, [C.scale(self._half)])
            T, powers = tp
            while len(powers) <= a:
                powers.append(powers[-1] * T)
            s = hypcalc.csch_block(self.field, k, a, t_powers=powers)
            self._block_series[(k, j, a)] = s
        return s

    def _block_value(self, k, j, a):
        v = self._block_values.get((k, j, a))
        if v is None:
            v = hypcalc.csch_block(self.field, k, a,
                                   exp_half=self.exp_half[j],
                                   pole_tol=self.pole_tol)
            self._block_values[(k, j, a)] = v
        return v

    def zseries(self, k, alpha):
        """z-series of d^alpha prod_j (1/2)csch(k mu_j/2) along mu(z)."""
        s = self._series.get((k, alpha))
        if s is None:
            s = self._block_zseries(k, 0, alpha[0])
            for j in range(1, self.n):
                s = s * self._block_zseries(k, j, alpha[j])
            self._series[(k, alpha)] = s
        return s

    def value_at_mu0(self, k, alpha):
        """d^alpha prod_j (1/2)csch(k mu_j/2) at mu(0)."""
        v = self._block_value(k, 0, alpha[0])
        for j in range(1, self.n):
            v = v * self._block_value(k, j, alpha[j])
        return v


def trace_power(bnf, k, orders, pole_tol=DEFAULT_POLE_TOL, engine=None):
    """Expansion of tr U(z)^k to the given (N_z, N_h) orders.

    Returns a :class:`TracePower`; see the module docstring for the exact
    phase convention.  ``engine`` is a :class:`TraceEngine` built for the
    blocks and mu-jets of ``bnf`` at z-order N_z or above; without it a
    throwaway one is used.
    """
    phase, pz, applied = _forward(bnf, k, orders, pole_tol, engine)
    f = bnf.field
    series_orders = Orders(0, *orders)
    coeffs = (MultiSeries(f, 0, series_orders, applied)
              * MultiSeries(f, 0, series_orders, pz))
    return TracePower(k, phase, coeffs)


def trace_coefficient(bnf, k, m, j, pole_tol=DEFAULT_POLE_TOL, engine=None):
    """The z^m h^j coefficient of ``trace_power(bnf, k, (m, j)).coeffs``.

    The z-phase exp(-ik f0plus) has z-terms only, so the coefficient is
    sum_{m2} pz_{m2} A_{m-m2}, where A is the h^j layer of the operator
    exponential applied to the csch product: only that layer is formed,
    and no series product is taken.  ``engine`` is as for
    :func:`trace_power`.
    """
    _phase, pz, applied = _forward(bnf, k, (m, j), pole_tol, engine, layer=j)
    total = bnf.field.zero
    for ((), m2, _l), c in pz.items():
        a = applied.get(((), m - m2, j))
        if a is not None:
            total = total + c * a
    return total


def _forward(bnf, k, orders, pole_tol, engine, layer=None):
    """The kernel of :func:`trace_power` and :func:`trace_coefficient`.

    Returns ``(phase, pz, applied)``: the constant phase f0(0), the terms
    of the z-phase exp(-ik f0plus), and the terms ((), m, l) of the
    operator exponential exp(-ik sum_j h^j f_j(z, i k^{-1} d/dmu)) applied
    to prod_j (1/2)csch(k mu_j/2) along mu(z).  With ``layer`` = l only
    the h^l layer of the operator is formed and applied.
    """
    if k < 1:
        raise SchemaError("k must be a positive integer")
    n_z, n_h = orders
    _check_trace_orders(bnf, orders)
    if engine is None:
        engine = TraceEngine(bnf.blocks, bnf.mu_jets, n_z, pole_tol)
    elif not engine.serves(bnf.blocks, bnf.mu_jets, n_z, pole_tol):
        raise SchemaError(
            "trace engine was built for other blocks, mu-jets or pole "
            "tolerance, or a lower z-order"
        )
    f = bnf.field
    phase, x_powers, f0_powers = bnf.trace_side(n_z, n_h)
    minus_ik = -(f.i * f.from_int(k))
    # operator part exp(-ik X) and z-dependent scalar phase exp(-ik f0plus)
    op = _exp_from_powers(x_powers, minus_ik, layer)
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
        for ((), m2, _), ec in engine.zseries(k, alpha).terms.items():
            mm = m + m2
            if mm > n_z:
                continue
            key = ((), mm, l)
            v = factor * ec
            applied[key] = applied[key] + v if key in applied else v
    return phase, pz, applied


def _powers(s):
    """[1, s, s^2, ...] up to the first power that truncates to zero, for
    a series with zero constant term (at most as many steps as
    ``MultiSeries.exp_series`` takes)."""
    out = [MultiSeries.scalar(s.field, s.n_actions, s.orders, s.field.one)]
    for _ in range(sum(s.orders)):
        p = out[-1] * s
        if p.is_zero():
            break
        out.append(p)
    return out


def _exp_from_powers(powers, t, layer=None):
    """The terms of exp(t s) = sum_p (t^p / p!) s^p from ``powers`` =
    :func:`_powers`(s), merged by key: scalings and sums only.  With
    ``layer`` = l, only the terms of h-order l."""
    f = powers[0].field
    out = {}
    w = tp = f.one
    for p, power in enumerate(powers):
        if p:
            tp = tp * t
            w = tp * f.factorial_inv(p)
        for key, c in power.terms.items():
            if layer is None or key[2] == layer:
                v = w * c
                out[key] = out[key] + v if key in out else v
    return out


def leading_term(action, maslov_nu, blocks, k, n_z, tol=DEFAULT_POLE_TOL,
                 mu_jets=None):
    """Leading geometric amplitude  e^{i nu pi/2} I'(z) / |det(dkappa^k - 1)|^{1/2}.

    The determinant magnitude factorizes over blocks as
    prod_j |2 sinh(k mu_j(z)/2)|, and every reciprocal factor is produced
    as a csch series (no series division).  The e^{ikI(z)/h} factor stays
    symbolic on the returned object.  ``mu_jets`` optionally supplies the
    z-dependence of the exponents; default is a z-independent orbit.
    """
    if k == 0:
        raise SchemaError("k must be nonzero")
    kk = abs(int(k))
    f = blocks.field
    orders = Orders(0, n_z, 0)

    half = f.inv(f.from_int(2))

    def half_csch(j):
        delta = mu_jets[j] if mu_jets is not None else None
        try:
            _T, C = hypcalc.coth_csch_series(f, blocks.exp_half[j], delta,
                                             kk, n_z, tol)
        except MathError as exc:
            raise MathError(
                f"degenerate orbit: |2 sinh(k mu_{j}/2)| below tolerance at k={k}"
            ) from exc
        return C.scale(half)

    result = MultiSeries.scalar(f, 0, orders, f.i ** (int(maslov_nu) % 4))
    j = 0
    while j < blocks.n:
        tag = blocks.tags[j]
        C = half_csch(j)
        if tag == "elliptic":
            # (1/2)csch(ik theta/2) = -i/(2 sin(k theta/2)); restore the
            # positive real magnitude 1/(2|sin|)
            E = blocks.exp_half[j]
            s2 = f.to_complex(E**kk - f.inv(E**kk))  # 2i sin(k theta/2)
            sign = 1 if s2.imag > 0 else -1
            result = result * C.scale(f.i * f.from_int(sign))
            j += 1
        elif tag == "real_hyperbolic":
            result = result * C
            j += 1
        else:  # complex hyperbolic pair: the pair product is already |.|^2
            result = result * C * half_csch(j + 1)
            j += 2
    iprime = MultiSeries(f, 0, orders, action.derive("z").terms)
    return LeadingTerm(result * iprime, k, int(maslov_nu) % 4)


def make_trace_data(bnf, action, maslov, k_max, orders,
                    pole_tol=DEFAULT_POLE_TOL, resonance_order=10,
                    resonance_tol=1e-8, engine=None):
    """Bundle trace_power outputs for k = 1..k_max into a TraceData.

    All powers share one :class:`TraceEngine`: ``engine`` if given (it must
    serve ``bnf``), else a new one.
    """
    if k_max < 1:
        raise SchemaError("k_max must be >= 1")
    require_nonresonant(bnf.blocks, resonance_order, resonance_tol)
    if engine is None:
        engine = TraceEngine(bnf.blocks, bnf.mu_jets, orders[0], pole_tol)
    coefficients = {}
    phase = None
    for k in range(1, k_max + 1):
        tp = trace_power(bnf, k, orders, pole_tol, engine=engine)
        coefficients[k] = tp.coeffs
        phase = tp.phase
    maslov = {k: maslov.get(k, 0) if isinstance(maslov, dict) else maslov[k]
              for k in range(1, k_max + 1)}
    return TraceData(bnf.field, k_max, action, maslov, phase, coefficients)
