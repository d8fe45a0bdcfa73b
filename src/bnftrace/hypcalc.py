"""Exact differential calculus on products of csch(k*mu_j/2)/2.

The object of interest is

    B_k(mu) = prod_{j=1..n} 1/(2 sinh(k mu_j / 2)),

the right-hand side of the trace identity, together with arbitrary
mu-derivatives of it.  Derivatives are carried symbolically: with
t_j = coth(k mu_j/2) one has

    d/dmu_j t_j = (k/2)(1 - t_j^2),
    d/dmu_j csch(k mu_j/2) = -(k/2) t_j csch(k mu_j/2),

so any derivative of B_k is (polynomial in t) * B_k and differentiation is
closed on :class:`CschExpression`.  Evaluation happens last, through the
half-exponentials E_j = exp(mu_j/2): every hyperbolic value is a Laurent
monomial in E_j, which keeps the rational fixtures (E_j rational) exact.

B_k is a product over blocks, so d^alpha B_k = prod_j d^{alpha_j}
(1/2)csch(k mu_j/2), and d^a (1/2)csch(k mu_j/2) at mu_j(0) is a! times a
Taylor coefficient there, which the same two rules give order by order
(:class:`CschTaylor`).  The trace engine is built on that table, and
:func:`coth_csch_series` composes it with a z-jet of mu_j.  The
n-variable calculus above serves the csch-derivative oracle and is the
reference the tests compare against.

The lattice sum of the geometric expansion

    B_k(mu) = sum_{m in N^n} exp(-<m + e0/2, k mu>),   Re mu_j > 0,

acts as the independent brute-force oracle: applying a polynomial
p(i k^{-1} d/dmu) under the sum pulls down p((m + e0/2)/i).
"""

import math

from .errors import ConvergenceError, PoleError, SchemaError
from .series import MultiSeries, Orders, powers

DEFAULT_POLE_TOL = 1e-9


class CschExpression:
    """A polynomial in t_j = coth(k mu_j/2) times the implicit base factor
    prod_j (1/2) csch(k mu_j / 2)."""

    __slots__ = ("field", "n", "k", "poly")

    def __init__(self, field, n, k, poly):
        if n < 1:
            raise SchemaError("need n >= 1")
        if k < 1:
            raise SchemaError("need k >= 1")
        self.field = field
        self.n = n
        self.k = k
        # prune zeros so polynomial equality is structural
        self.poly = {e: c for e, c in poly.items() if not field.is_zero(c)}

    def __repr__(self):
        return f"<CschExpression n={self.n} k={self.k} terms={len(self.poly)}>"


def csch_product(field, n, k):
    """The bare product prod_j (1/2) csch(k mu_j / 2)  (polynomial part 1)."""
    return CschExpression(field, n, k, {(0,) * n: field.one})


def apply_derivative(expr, j):
    """d/dmu_j of the represented function, as a new CschExpression."""
    if not 0 <= j < expr.n:
        raise SchemaError(f"variable index {j} out of range for n={expr.n}")
    f = expr.field
    kh = f.from_int(expr.k) * f.inv(f.from_int(2))  # k/2
    out = {}

    def add(exp, coeff):
        if exp in out:
            out[exp] = out[exp] + coeff
        else:
            out[exp] = coeff

    for exps, c in expr.poly.items():
        # chain rule on t_j: dp/dt_j * (k/2)(1 - t_j^2)
        d = exps[j]
        if d > 0:
            base = c * f.from_int(d) * kh
            lower = list(exps)
            lower[j] -= 1
            add(tuple(lower), base)
            higher = list(exps)
            higher[j] += 1
            add(tuple(higher), -base)
        # product rule on the csch factor: -(k/2) t_j * p
        up = list(exps)
        up[j] += 1
        add(tuple(up), -(c * kh))
    return CschExpression(f, expr.n, expr.k, out)


def apply_derivatives(expr, alpha):
    """Apply d/dmu_j alpha_j times for each j."""
    for j, a in enumerate(alpha):
        for _ in range(a):
            expr = apply_derivative(expr, j)
    return expr


def _sinh_cosh_from_exp_half(field, E, k, pole_tol):
    """2*sinh(k mu/2) and 2*cosh(k mu/2) from E = exp(mu/2)."""
    Ek = E**k
    Eki = field.inv(Ek)
    s2 = Ek - Eki
    c2 = Ek + Eki
    if field.exact:
        if field.is_zero(s2):
            raise PoleError(f"k*mu in 2*pi*i*Z: sinh(k mu/2) = 0 (E={E!r}, k={k})")
    elif field.abs(s2) < 2 * pole_tol:
        raise PoleError(
            f"|sinh(k mu/2)| = {field.abs(s2) / 2:.3e} below pole tolerance "
            f"{pole_tol:.1e} (k={k})"
        )
    return s2, c2


def eval_csch(expr, mu=None, exp_half=None, pole_tol=DEFAULT_POLE_TOL):
    """Evaluate the expression at numeric exponents.

    Either ``mu`` (complex values, floating backends) or ``exp_half``
    (field scalars E_j = exp(mu_j/2), any backend) must be given.
    """
    f = expr.field
    if exp_half is None:
        if mu is None:
            raise SchemaError("need mu or exp_half")
        exp_half = [f.exp(m * 0.5) for m in mu]
    if len(exp_half) != expr.n:
        raise SchemaError(f"expected {expr.n} exponents, got {len(exp_half)}")
    ts = []
    base = f.one
    for E in exp_half:
        s2, c2 = _sinh_cosh_from_exp_half(f, E, expr.k, pole_tol)
        ts.append(c2 * f.inv(s2))       # coth = cosh/sinh
        base = base * f.inv(s2)         # (1/2)csch = 1/(2 sinh) = 1/s2
    total = f.zero
    for exps, c in expr.poly.items():
        term = c
        for t, d in zip(ts, exps):
            for _ in range(d):
                term = term * t
        total = total + term
    return total * base


class CschTaylor:
    """Taylor coefficients t_p and c_p of coth(k mu/2) and (1/2)csch(k mu/2)
    in x = mu - mu0, grown on demand.

    The constant terms come from E0 = exp(mu0/2).  The two rules of the
    module docstring give the higher ones order by order,

        (p+1) t_{p+1} = (k/2) (1 - t^2)_p,
        (p+1) c_{p+1} = -(k/2) (t c)_p,

    whose right-hand sides need t and c only up to order p, so each order
    costs O(p) field operations.  ``d`` holds the derivatives
    d^p (1/2)csch(k mu/2) at mu0, which are p! c_p.
    """

    __slots__ = ("field", "t", "c", "d", "_kh")

    def __init__(self, field, E0, k, pole_tol):
        s2, c2 = _sinh_cosh_from_exp_half(field, E0, k, pole_tol)
        inv = field.inv(s2)  # (1/2)csch = 1/(2 sinh)
        self.field = field
        self._kh = field.from_int(k) * field.inv(field.from_int(2))
        self.t = [c2 * inv]
        self.c = [inv]
        self.d = [inv]

    def grow(self, p):
        """Extend the coefficients through order ``p``; returns ``self``."""
        f, t, c = self.field, self.t, self.c
        for q in range(len(c) - 1, p):
            sq = tc = f.zero
            for a in range(q + 1):
                sq = sq + t[a] * t[q - a]
                tc = tc + t[a] * c[q - a]
            w = self._kh * f.inv(f.from_int(q + 1))
            t.append(w * (f.one - sq if q == 0 else -sq))
            c.append(-(w * tc))
            self.d.append(c[-1] * f.from_int(math.factorial(q + 1)))
        return self


def coth_csch_series(field, E0, delta, k, n_z, pole_tol=DEFAULT_POLE_TOL):
    """z-series of coth(k mu(z)/2) and csch(k mu(z)/2).

    Returns ``(T, C)`` where ``T`` expands coth(k mu(z)/2) and ``C`` expands
    csch(k mu(z)/2), for mu(z) = mu(0) + delta(z) with delta(0) = 0 (no
    ``delta``: mu is constant), and E0 = exp(mu(0)/2).  Each is the
    :class:`CschTaylor` table at mu(0) composed with the powers of delta,
    T = sum_p t_p delta^p and C = 2 sum_p c_p delta^p; delta^p starts at
    z^p, so p <= n_z.
    """
    f = field
    if delta is not None and not f.is_zero(delta.constant_term()):
        raise SchemaError("delta jet must have zero constant term")
    orders = Orders(0, n_z, 0)
    deltas = powers(MultiSeries(f, 0, orders,
                                delta.terms if delta is not None else {}))
    table = CschTaylor(f, E0, k, pole_tol).grow(len(deltas) - 1)
    T = C = MultiSeries.zero(f, 0, orders)
    for dp, t, c in zip(deltas, table.t, table.c):
        T, C = T + dp.scale(t), C + dp.scale(c)
    return T, C.scale(f.from_int(2))


def eval_series_in_z(expr, exp_half0, deltas, n_z, pole_tol=DEFAULT_POLE_TOL):
    """Taylor-expand the expression in z along mu_j(z) = mu_j(0) + delta_j(z).

    ``exp_half0`` are the E_j = exp(mu_j(0)/2); ``deltas`` the jets above the
    constant (z-series with zero constant term, or None).  Each term
    c prod_j t_j^d_j becomes c prod_j T_j(z)^d_j, times the base product
    prod_j C_j(z)/2 (:func:`coth_csch_series`).  Returns a z-series.
    """
    f = expr.field
    if len(exp_half0) != expr.n:
        raise SchemaError(f"expected {expr.n} exponents, got {len(exp_half0)}")
    orders = Orders(0, n_z, 0)
    half = f.inv(f.from_int(2))
    base = MultiSeries.scalar(f, 0, orders, f.one)
    Ts = []
    for j, E in enumerate(exp_half0):
        d = deltas[j] if deltas is not None else None
        T, C = coth_csch_series(f, E, d, expr.k, n_z, pole_tol)
        Ts.append(T)
        base = base * C.scale(half)
    total = MultiSeries.zero(f, 0, orders)
    for exps, c in expr.poly.items():
        term = MultiSeries.scalar(f, 0, orders, c)
        for T, d in zip(Ts, exps):
            for _ in range(d):
                term = term * T
        total = total + term
    return total * base


def lattice_sum_oracle(poly, mu=None, exp_half=None, k=1, truncation=60,
                       field=None):
    """Brute-force partial sum of  sum_m p((m+e0/2)/i) exp(-<m+e0/2, k mu>).

    ``poly`` maps exponent tuples alpha to coefficients.  Requires
    Re mu_j > 0 for every j (caller regularizes elliptic exponents).  The
    tail beyond the box max(m_j) <= truncation is geometric in
    exp(-k min_j Re mu_j * truncation).
    """
    if k < 1:
        raise SchemaError(f"need k >= 1, got {k}")
    if truncation < 0:
        raise SchemaError(f"need truncation >= 0, got {truncation}")
    if exp_half is None:
        if mu is None:
            raise SchemaError("need mu or exp_half")
        if field is None:
            raise SchemaError("need the field when passing raw mu")
        exp_half = [field.exp(m * 0.5) for m in mu]
    f = field
    if f is None:
        raise SchemaError("field required")
    n = len(exp_half)
    for E in exp_half:
        mod2 = f.abs(E) if not f.exact else None
        if f.exact:
            if E.norm_sq() <= 1:
                raise ConvergenceError("Re mu_j <= 0: lattice sum diverges")
        elif mod2 <= 1.0:
            raise ConvergenceError("Re mu_j <= 0: lattice sum diverges")
    max_alpha = [0] * n
    for alpha in poly:
        if len(alpha) != n:
            raise SchemaError("polynomial arity does not match exponent count")
        for j, a in enumerate(alpha):
            max_alpha[j] = max(max_alpha[j], a)
    # per-axis tables: weight q^(2m+1) with q = E^-k, and argument powers
    minus_i_half = -f.i * f.inv(f.from_int(2))
    axis_w = []
    axis_arg = []  # axis_arg[j][m][a] = (-i(2m+1)/2)^a
    for j in range(n):
        q = f.inv(exp_half[j] ** k)
        w = []
        args = []
        cur = q
        q2 = q * q
        for m in range(truncation + 1):
            w.append(cur)
            cur = cur * q2
            y = minus_i_half * f.from_int(2 * m + 1)
            pows = [f.one]
            for _ in range(max_alpha[j]):
                pows.append(pows[-1] * y)
            args.append(pows)
        axis_w.append(w)
        axis_arg.append(args)

    total = f.zero
    idx = [0] * n
    while True:
        weight = f.one
        for j in range(n):
            weight = weight * axis_w[j][idx[j]]
        val = f.zero
        for alpha, c in poly.items():
            term = c
            for j, a in enumerate(alpha):
                if a:
                    term = term * axis_arg[j][idx[j]][a]
            val = val + term
        total = total + val * weight
        # advance odometer
        pos = 0
        while pos < n:
            idx[pos] += 1
            if idx[pos] <= truncation:
                break
            idx[pos] = 0
            pos += 1
        if pos == n:
            break
    return total
