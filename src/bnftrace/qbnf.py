"""Quantum Birkhoff normal form data and the forward trace engine.

The normal form data is the pair (mu(z), F(iota, z; h)): classified
exponents with their z-jets, plus a truncated series F whose h^0 part is
O(iota^2).  Writing G = <iota, mu(z)> + F, the k-th power trace expands as

    tr U(z)^k = e^{ikS(z)/h} e^{-ik f0(z)} *
                exp(-ik sum_{j>=1} h^j f_j(z, i k^{-1} d/dmu))
                prod_j (1/2) csch(k mu_j / 2) |_{mu = mu(z)},

where f_j(z, y) = sum_{l + |alpha| = j+1} (F_l coefficient of iota^alpha) y^alpha
regroups F and f0(z) = F_1(z, 0).  :func:`trace_powers` expands the
exponential of the (nilpotent) operator part and applies the resulting
polynomial differential operators to the csch product along mu(z).

The csch side does not depend on F, only on the blocks, the mu-jets and
the z-order, and it is a product over blocks:
d^alpha prod_j (1/2)csch(k mu_j/2) = prod_j d^{alpha_j} (1/2)csch(k mu_j/2).
Every derivative it needs is a Taylor coefficient of (1/2)csch(k mu/2) at
mu_j(0), which does not depend on the jets.  A :class:`TraceEngine` holds
the csch side of one set of blocks for one tuple of powers ks, fixed
when it is built: per block one table of those coefficients
(:class:`~bnftrace.hypcalc.CschTaylor`), which lists each order over ks
and grows on demand in the order, so a value at mu(0) is a product of
table entries.  Along the jets delta_j(z) = mu_j(z) - mu_j(0) the block
factor is d^a (1/2)csch(k mu_j(z)/2) = sum_b d^{a+b} (1/2)csch(k mu_j(0)/2)
delta_j(z)^b / b!, and per jet state the engine keeps the powers of the
jets, the block factors per (j, a) and their products over each prefix
of alpha, each formed only up to the highest z-order a forward has read:
a term z^m d^alpha reads the csch side to z-order N_z - m.  The caches
live as long as the engine: the recovery uses one for every stage and
its self-check, and it also keeps the expansions of its powers, for an
equal normal form, and the recovery's factored stage matrices.  The
engine is the one holder of what a forward runs at: the trace functions
read their powers from it.

The F side does not depend on k.  With X = sum_{j>=1} h^j f_j(z, y),
exp(-ik X) = sum_m ((-ik)^m / m!) X^m, and likewise for the z-dependent
phase, so each forward splits F(h y, z; h)/h into the constant phase
f0(0), f0plus = f0(z) - f0(0) and X, forms the powers of X once, and the
powers k only scale and add them.  The engine keeps the z-phase
exp(-ik f0plus) by N_z and the terms of f0plus, which the ``added``
deflations of one h-order share with that layer's forward.

One forward pass serves the engine's powers ks: every coefficient it
forms is a list over ks, each entry a sum of products for that power
alone, formed by ``field.sums()``: on a float field in the order of
MultiSeries sums and products (the first term stored, later ones added),
on the rational field exactly, reduced once.  Only the final series drop
zero coefficients: an intermediate one that is zero stays in its list,
where per-power MultiSeries arithmetic would drop it, which can move
only the sign of a zero part of a float result.
:func:`trace_powers` gives the whole expansion of each power, with the
constant phase that they share,
and :func:`make_trace_data` and the recovery's self-check take it in one
call over all powers.  A recovery stage (h^j, z^m) reads coefficients at
h^j, which depend on nothing of higher order, so :func:`trace_layers`
forms the h^j layer of exp(-ik X) alone and convolves it with the
z-phase, with no series product, through the same kernel, into the
engine's rows, one per z-order listed over the powers, and it also
gives the part that F terms of weight j + 1 add to that layer, linearly,
above their own z-order.  :func:`trace_power` is the one-power case, on
an engine of its own.  An engine serves every z-order up to its own, so
the stages share it.

Phase conventions: the oscillatory prefactor e^{ikS(z)/h} is never mixed
into the h-expansion (the action series travels as metadata), and the
constant scalar phase e^{-ik f0(0)} is likewise factored out and stored in
``phase`` -- it is transcendental on the rational backend, and keeping it
symbolic is what makes the rational round trip bit-exact.  The z-dependent
part of the phase, exp(-ik (f0(z) - f0(0))), has polynomial coefficients
and is multiplied into the stored series.
"""

from itertools import repeat
from operator import mul

from . import hypcalc
from .blocks import require_nonresonant
from .errors import SchemaError
from .series import MultiSeries, Orders, powers


class QuantumBNF:
    """The data (mu(z), F(iota, z; h)).

    ``mu_jets`` are z-series for mu_j(z) - mu_j(0) (zero constant term);
    the constants live in ``blocks`` as half-exponentials.
    """

    __slots__ = ("field", "blocks", "mu_jets", "F")

    def __init__(self, blocks, mu_jets, F):
        self.field = blocks.field
        self.blocks = blocks
        self.mu_jets = list(mu_jets)
        self.F = F
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
            if self.coefficients[k].n_actions != 0:
                raise SchemaError(f"trace coefficients for k={k} must be "
                                  "a plain z-series")
            # the recovery reads every power at k = 1's orders
            orders = self.coefficients[k].orders, self.coefficients[1].orders
            if orders[0] != orders[1]:
                raise SchemaError(f"trace coefficients for k={k} have "
                                  "{}, those for k=1 {}".format(*orders))

    def orders(self):
        s = self.coefficients[1]
        return Orders(0, s.orders.z, s.orders.h)


class TraceEngine:
    """The F-independent csch side of the trace expansion for one set of
    blocks and one tuple of powers ``ks``, up to z-order ``n_z`` (see the
    module docstring), cached for the engine's lifetime, with the
    per-power constants -ik and (i/k)^d listed over ``ks``.  Its dicts
    ``z_phases`` and ``trace_powers`` keep the z-phases and the expansions
    that its forwards made, and ``systems`` the factored stage matrices of
    :func:`~bnftrace.recover.recover_polynomial`, by alpha set.
    """

    def __init__(self, blocks, ks, n_z):
        self.ks = tuple(ks)
        if not self.ks or min(self.ks) < 1:
            raise SchemaError("k must be a positive integer")
        if blocks.n < 1:
            raise SchemaError("n must be >= 1")
        f = self.field = blocks.field
        self.exp_half = list(blocks.exp_half)
        self.n_z = n_z
        self._tables = {}
        self._jet_caches = {}
        self.z_phases = {}
        self.trace_powers = {}
        self.systems = {}
        self.minus_ik = [-(f.i * f.from_int(k)) for k in self.ks]
        self._ik_inv = [f.i * f.inv(f.from_int(k)) for k in self.ks]
        self._ik_powers = {}

    def serves(self, blocks, n_z):
        """True when the engine was built for these blocks at z-order
        ``n_z`` or above: its series then hold every term up to ``n_z``."""
        return (blocks.field is self.field and n_z <= self.n_z
                and list(blocks.exp_half) == self.exp_half)

    def ik_power(self, d):
        """(i/k)^d listed over the engine's powers, formed once per d."""
        v = self._ik_powers.get(d)
        if v is None:
            v = self._ik_powers[d] = [x**d for x in self._ik_inv]
        return v

    def _derivatives(self, j, p):
        """Block j's d^q (1/2)csch(k mu_j/2) at mu_j(0), q = 0..p at least,
        each listed over the engine's powers (its table, made on first use)."""
        table = self._tables.get(j)
        if table is None:
            table = self._tables[j] = hypcalc.CschTaylor(
                self.field, self.exp_half[j], self.ks)
        return table.grow(p).d

    def at_mu0(self, alpha):
        """d^alpha prod_j (1/2)csch(k mu_j/2) at mu(0), listed over the
        engine's powers: per power a product of table entries."""
        v = [self.field.one] * len(self.ks)
        for j, a in enumerate(alpha):
            v = list(map(mul, v, self._derivatives(j, a)[a]))
        return v

    def along(self, mu_jets):
        """The caches of :meth:`zseries` along ``mu_jets``, made on first
        use: per block the powers delta_j^b / b! of its jet at the engine's
        z-order, and the block factors and partial products, each formed
        once per jet state, up to the highest z-order a forward has read.
        A forward call looks them up once."""
        key = tuple(tuple(sorted(jet.terms.items())) for jet in mu_jets)
        caches = self._jet_caches.get(key)
        if caches is None:
            f, orders = self.field, Orders(0, self.n_z, 0)
            scaled = [[p.scale(f.factorial_inv(b)) for b, p in
                       enumerate(powers(MultiSeries(f, 0, orders, jet.terms)))]
                      for jet in mu_jets]
            caches = self._jet_caches[key] = (scaled, {}, {})
        return caches

    def zseries(self, alpha, jets, top=None):
        """z-series of d^alpha prod_j (1/2)csch(k mu_j/2) along mu(z) to
        z-order ``top`` (the engine's if None), as a dict from z-order to
        the list of its coefficients over the engine's powers, for the jets
        whose caches :meth:`along` gave.  Block j's factor is
        sum_b d^{alpha_j + b} (1/2)csch(k mu_j(0)/2) delta_j(z)^b / b!.
        Factors and the products over each prefix of ``alpha`` are formed
        once per jet state, up to the highest z-order read, and formed
        again when a call reads higher; the series keeps the keys, values
        and order of the engine's full-order series cut at ``top``."""
        top = self.n_z if top is None else top
        formed, s = self._product(alpha, jets, top)
        return s if formed == top else {m: v for m, v in s.items() if m <= top}

    def _product(self, alpha, jets, top):
        """``(order, series)``: the product of block j's factors at
        alpha_j over the blocks of ``alpha``, formed to z-order ``top`` or
        above, cached by ``alpha``."""
        scaled, factors, products = jets
        got = products.get(alpha)
        if got is not None and got[0] >= top:
            return got
        j, a = len(alpha) - 1, alpha[-1]
        factor = factors.get((j, a))
        if factor is None or factor[0] < top:
            # delta_j^b starts at z^b, so b <= top
            deltas = scaled[j][:top + 1]
            d = self._derivatives(j, a + len(deltas) - 1)
            sums = self.field.sums()
            for b, delta in enumerate(deltas):
                for ((), m, _l), c in delta.terms.items():
                    if m <= top:
                        sums.add(m, d[a + b], repeat(c))
            factor = factors[(j, a)] = (top, sums.result())
        if j:  # the product with the factors before, cut at top
            sums = self.field.sums()
            for m1, v1 in self._product(alpha[:-1], jets, top)[1].items():
                for m2, v2 in factor[1].items():
                    if m1 + m2 <= top:
                        sums.add(m1 + m2, v1, v2)
            factor = (top, sums.result())
        products[alpha] = factor
        return factor


def trace_powers(bnf, orders, engine):
    """Expansions of tr U(z)^k for the powers k of ``engine`` to the given
    (N_z, N_h) orders, as the pair ``(phase, {k: series})``: the constant
    phase f0(0), which all powers share, and per power the plain z, h
    series of its coefficients.

    See the module docstring for the exact phase convention.  ``engine``
    is a :class:`TraceEngine` built for the blocks of ``bnf`` at z-order
    N_z or above.  Its memo keeps the expansions by the orders, F's and
    the jets' terms, and a forward pass runs when it lacks them.
    """
    _check_engine(bnf, orders, engine)
    form = (tuple(orders),
            *(tuple(sorted(s.terms.items())) for s in [bnf.F, *bnf.mu_jets]))
    memo = engine.trace_powers.get(form)
    if memo is None:
        phase, pz, applied = _forward(bnf, orders, engine)
        n_z, n_h = orders
        sums = bnf.field.sums()
        for (_a, m1, l1), v1 in applied.items():
            for (_b, m2, l2), v2 in pz.items():
                if m1 + m2 <= n_z and l1 + l2 <= n_h:
                    sums.add(((), m1 + m2, l1 + l2), v1, v2)
        coeffs = sums.result()
        series_orders = Orders(0, n_z, n_h)
        memo = engine.trace_powers[form] = phase, {
            k: MultiSeries._make(bnf.field, 0, series_orders,
                                 {key: v[i] for key, v in coeffs.items()})
            for i, k in enumerate(engine.ks)}
    return memo


def trace_power(bnf, k, orders):
    """Expansion of tr U(z)^k to the given (N_z, N_h) orders: the one-power
    case of :func:`trace_powers`, on an engine of its own, as the pair
    ``(phase, series)``."""
    phase, series = trace_powers(bnf, orders,
                                 TraceEngine(bnf.blocks, (k,), orders[0]))
    return phase, series[k]


def trace_layers(bnf, orders, engine, added=None):
    """The z^0..z^{N_z} coefficients at h^{N_h} of the series
    ``trace_powers(bnf, orders, engine)`` gives the powers of ``engine``,
    as the engine's rows: per z-order, the list of them over
    ``engine.ks``.

    The z-phase exp(-ik f0plus) has z-terms only, so the z^m coefficient is
    sum_{m2} pz_{m2} A_{m-m2}, where A is the h^{N_h} layer of the operator
    exponential applied to the csch product: only that layer is formed,
    and no series product is taken.  ``engine`` is as for
    :func:`trace_powers`.

    ``added`` maps (alpha, m) to x for F terms x iota^alpha z^m of weight
    N_h + 1 >= 2 that ``bnf`` lacks; the result is then what they add to
    the layer, zero below the lowest z-order m among them.  They enter
    exp(-ik X) at h^{N_h} only linearly, through X: as
    (-ik) x (i/k)^{|alpha|} z^m d^alpha prod_j (1/2)csch(k mu_j/2).
    """
    n_z, layer = orders
    _check_engine(bnf, orders, engine)
    _phase, pz, applied = _forward(bnf, orders, engine, layer, added)
    sums = bnf.field.sums(from_zero=True)  # in the order of pz
    for m in range(n_z + 1):
        for ((), m2, _l), c in pz.items():
            if (key := ((), m - m2, layer)) in applied:
                sums.add(m, c, applied[key])
    done, zeros = sums.result(), [bnf.field.zero] * len(engine.ks)
    return [done.get(m, zeros) for m in range(n_z + 1)]


def _check_engine(bnf, orders, engine):
    """Refuse orders that ``bnf`` cannot give, then an ``engine`` that
    does not serve its blocks at z-order N_z."""
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
    if not engine.serves(bnf.blocks, n_z):
        raise SchemaError(
            "trace engine was built for other blocks or a lower z-order"
        )


def _forward(bnf, orders, engine, layer=None, added=None):
    """The kernel of :func:`trace_powers` and :func:`trace_layers`, for the
    engine's powers at once.

    Returns ``(phase, pz, applied)``: the constant phase f0(0), the terms
    of the z-phase exp(-ik f0plus), and the terms ((), m, l) of the
    operator exponential exp(-ik sum_j h^j f_j(z, i k^{-1} d/dmu)) applied
    to prod_j (1/2)csch(k mu_j/2) along mu(z), each term's coefficient
    listed over the engine's powers.  With ``layer`` = l only the h^l
    layer of the operator is formed and applied, or with ``added`` that
    layer's part in them (see :func:`trace_layers`).
    """
    n_z, n_h = orders
    f, minus_ik = bnf.field, engine.minus_ik
    # split F(h y, z; h)/h = sum_j h^j f_j(z, y): a term iota^alpha z^m h^l
    # goes to the layer j = l + |alpha| - 1, which F's O(iota^2) h^0 part
    # keeps >= 0, and j = 0 holds only alpha = 0: f0(z) = f0(0) + f0plus
    phase, f0plus, x_terms = f.zero, {}, {}
    for (alpha, m, l), c in bnf.F.terms.items():
        j = l + sum(alpha) - 1
        if j > n_h or m > n_z:
            continue
        if j:
            x_terms[(alpha, m, j)] = c
        elif m:
            f0plus[((), m, 0)] = c
        else:
            phase = c
    # operator part exp(-ik X); its powers reach y-degree 2 n_h at most,
    # inside X's iota budget
    if added is None:
        X = MultiSeries(f, bnf.n, Orders(2 * n_h + 2, n_z, n_h), x_terms)
        op = _exp_from_powers(powers(X), minus_ik, layer)
    else:
        op = {(a, m, layer): [t * x for t in minus_ik]
              for (a, m), x in added.items()}
    # z-dependent scalar phase exp(-ik f0plus), kept on the engine
    key = (n_z, tuple(f0plus.items()))
    pz = engine.z_phases.get(key)
    if pz is None:
        pz = engine.z_phases[key] = _exp_from_powers(
            powers(MultiSeries(f, 0, Orders(0, n_z, 0), f0plus)), minus_ik)
    jets = engine.along(bnf.mu_jets)

    # apply the operator monomials to the csch product along mu(z), which
    # the terms of each alpha read up to z-order n_z minus their lowest m
    top = {}
    for alpha, m, _l in op:
        top[alpha] = max(top.get(alpha, 0), n_z - m)
    sums = f.sums()
    for (alpha, m, l), c in op.items():
        da = sum(alpha)
        factor = list(map(mul, c, engine.ik_power(da))) if da else c
        for m2, ec in engine.zseries(alpha, jets, top[alpha]).items():
            if m + m2 <= n_z:
                sums.add(((), m + m2, l), factor, ec)
    return phase, pz, sums.result()


def _exp_from_powers(s_powers, ts, layer=None):
    """The terms of exp(t s) = sum_p (t^p / p!) s^p for each t of ``ts``,
    from ``s_powers`` = :func:`~bnftrace.series.powers`(s), merged by key,
    each coefficient listed over ``ts``: scalings and sums only.  With
    ``layer`` = l, only the terms of h-order l."""
    f = s_powers[0].field
    sums = f.sums()
    w = tp = [f.one] * len(ts)
    for p, power in enumerate(s_powers):
        if p:
            tp = list(map(mul, tp, ts))
            inv = f.factorial_inv(p)
            w = [x * inv for x in tp]
        for key, c in power.terms.items():
            if layer is None or key[2] == layer:
                sums.add(key, w, repeat(c))
    return sums.result()


def make_trace_data(bnf, action, maslov, k_max, orders, engine=None):
    """Bundle the :func:`trace_powers` of k = 1..k_max, from one forward
    pass, into a TraceData.

    ``maslov`` maps k to its Maslov index, 0 where it has none.  The
    blocks must be nonresonant through sum |k_j| <= 10.  All powers
    share one :class:`TraceEngine`: ``engine`` if given (it must serve
    ``bnf`` and be built for k = 1..k_max), else a new one.
    """
    if k_max < 1:
        raise SchemaError("k_max must be >= 1")
    require_nonresonant(bnf.blocks, 10)
    ks = tuple(range(1, k_max + 1))
    if engine is None:
        engine = TraceEngine(bnf.blocks, ks, orders[0])
    elif engine.ks != ks:
        raise SchemaError(f"trace engine was built for the powers "
                          f"{list(engine.ks)}, not k = 1..{k_max}")
    phase, coefficients = trace_powers(bnf, orders, engine)
    maslov = {k: maslov.get(k, 0) for k in range(1, k_max + 1)}
    return TraceData(bnf.field, k_max, action, maslov, phase, coefficients)
