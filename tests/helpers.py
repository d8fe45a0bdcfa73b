"""Shared fixture builders and independent oracles for the test suite."""

import cmath
import itertools
import math
import random

import numpy as np

from bnftrace.blocks import ELLIPTIC, REAL_HYPERBOLIC, SpectrumBlocks
from bnftrace.errors import ConvergenceError, SchemaError
from bnftrace.fields import FloatField, RationalField
from bnftrace.hypcalc import DEFAULT_POLE_TOL, _sinh_cosh_from_exp_half
from bnftrace.qbnf import QuantumBNF
from bnftrace.series import MultiSeries, Orders, zseries


def rt1():
    """The exact rational round-trip fixture:
    n=1, mu(z) = 2 ln 2 + z, F = (1/7) iota^2 + h((1/3) iota + 1/5),
    orders iota<=4, z<=3, h<=3."""
    F = RationalField()
    blocks = SpectrumBlocks(F, [REAL_HYPERBOLIC], [F.from_int(2)])
    jet = zseries(F, 3, {1: F.one})
    Fser = MultiSeries(F, 1, Orders(4, 3, 3), {
        ((2,), 0, 0): F.from_rational("1/7"),
        ((1,), 0, 1): F.from_rational("1/3"),
        ((0,), 0, 1): F.from_rational("1/5"),
    })
    bnf = QuantumBNF(blocks, [jet], Fser)
    action = zseries(F, 3, {1: F.one})
    return F, bnf, action


def n2_bnf():
    """The golden forward input: rh E=2 and elliptic E=(3+4i)/5,
    z-dependent jets, F coupling both actions with a z-dependent f0."""
    FR = RationalField()
    q = FR.from_rational
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC, ELLIPTIC],
                            [FR.from_int(2), q("3/5", "4/5")])
    jets = [zseries(FR, 3, {1: q("1/3")}),
            zseries(FR, 3, {1: q(0, "-1/2"), 2: q(0, "1/7")})]
    F = MultiSeries(FR, 2, Orders(4, 3, 3), {
        ((2, 0), 0, 0): q("1/7"),
        ((1, 1), 0, 0): q("-2/3"),
        ((0, 2), 1, 0): q("1/5"),
        ((1, 0), 0, 1): q("3/4"),
        ((0, 1), 2, 1): q("-1/9"),
        ((0, 0), 0, 1): q("2/9"),
        ((0, 0), 1, 1): q("-3/7"),
        ((2, 1), 0, 1): q("5/6"),
        ((1, 0), 1, 3): q("-1/2"),
    })
    return QuantumBNF(blocks, jets, F)


def mixed_float_fixture(seed, with_jets=False):
    """n=2 blocks (mu_1 = ln 3 hyperbolic, theta_2 = 1 elliptic, canonical
    order) with a random F of total degree <= 3 at orders (3, 2, 2)."""
    F = FloatField()
    rng = random.Random(seed)
    blocks = SpectrumBlocks(F, [REAL_HYPERBOLIC, ELLIPTIC],
                            [cmath.exp(0.5 * math.log(3)), cmath.exp(0.5j)])
    terms = {}
    for l in range(0, 3):
        for a1 in range(4):
            for a2 in range(4):
                deg = a1 + a2 + l
                if deg > 3 or deg < 1:
                    continue
                if l == 0 and a1 + a2 < 2:
                    continue
                terms[((a1, a2), 0, l)] = complex(
                    rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.3
                if rng.random() < 0.7:
                    terms[((a1, a2), 1, l)] = rng.uniform(-1, 1) * 0.2 + 0j
                    terms[((a1, a2), 2, l)] = rng.uniform(-1, 1) * 0.1 + 0j
    Fser = MultiSeries(F, 2, Orders(3, 2, 2), terms)
    if with_jets:
        jets = [zseries(F, 2, {1: 0.11 + 0j, 2: -0.05 + 0j}),
                zseries(F, 2, {1: 0.07j, 2: 0.02j})]
    else:
        jets = [zseries(F, 2), zseries(F, 2)]
    return F, QuantumBNF(blocks, jets, Fser)


def picard_coth_csch_series(field, E0, delta, k, n_z,
                            pole_tol=DEFAULT_POLE_TOL):
    """Reference for :func:`bnftrace.hypcalc.coth_csch_series`: the same
    (T, C) from Picard sweeps of the integral forms of
    t' = (k/2)(1 - t^2) delta' and c' = -(k/2) t c delta', n_z full
    series sweeps per function, each gaining one exact z-order."""
    f = field
    orders = Orders(0, n_z, 0)
    s2, c2 = _sinh_cosh_from_exp_half(f, E0, k, pole_tol)
    t0 = c2 * f.inv(s2)
    c0 = f.from_int(2) * f.inv(s2)
    one = MultiSeries.scalar(f, 0, orders, f.one)
    T = MultiSeries.scalar(f, 0, orders, t0)
    C = MultiSeries.scalar(f, 0, orders, c0)
    if delta is None or delta.is_zero() or n_z == 0:
        return T, C
    dp = MultiSeries(f, 0, orders, delta.terms)
    dprime = MultiSeries(f, 0, orders, dp.derive("z").terms)
    kh = f.from_int(k) * f.inv(f.from_int(2))

    def zintegrate(s):
        return MultiSeries(f, 0, orders, {
            ((), m + 1, 0): c * f.inv(f.from_int(m + 1))
            for ((), m, _l), c in s.terms.items() if m + 1 <= n_z})

    for _ in range(n_z):
        T = MultiSeries.scalar(f, 0, orders, t0) + zintegrate(
            (one - T * T).scale(kh) * dprime)
    for _ in range(n_z):
        C = MultiSeries.scalar(f, 0, orders, c0) + zintegrate(
            (T * C).scale(-kh) * dprime)
    return T, C


def random_hyperbolic_exp_half(field, n, rng, re_range=(0.5, 2.0)):
    out = []
    for _ in range(n):
        mu = rng.uniform(*re_range)
        out.append(field.exp(mu * 0.5))
    return out


def random_F_total_degree(field, n, rng, max_total=3, orders=(4, 0, 2),
                          scale=0.4):
    """Random F with l + |alpha| <= max_total, O(iota^2) at h^0, z-free."""
    terms = {}
    for l in range(0, max_total + 1):
        for alpha in _alphas(n, max_total - l):
            deg = sum(alpha) + l
            if deg < 1 or deg > max_total:
                continue
            if l == 0 and sum(alpha) < 2:
                continue
            terms[(alpha, 0, l)] = complex(rng.uniform(-1, 1),
                                           rng.uniform(-1, 1)) * scale
    return MultiSeries(field, n, Orders(*orders), terms)


def _alphas(n, max_deg):
    if n == 1:
        return [(a,) for a in range(max_deg + 1)]
    out = []
    for a1 in range(max_deg + 1):
        for a2 in range(max_deg + 1 - a1):
            out.append((a1, a2))
    return out


def brute_force_trace_coeffs(bnf, k, n_h, truncation=80):
    """Independent lattice-sum computation of the trace h-expansion at z=0.

    tr e^{-ikG/h} = sum_{m in N^n} e^{-k<m+e0/2, mu>} e^{-ik F(h y_m; h)/h}
    with y_m = (m + e0/2)/i, everything expanded in h with numpy -- no coth
    calculus, no f_j regrouping.  Returns coefficients *including* the
    constant phase factor e^{-ik f0(0)}.
    """
    f = bnf.field
    n = bnf.n
    E = [f.to_complex(x) for x in bnf.blocks.exp_half]
    grids = np.meshgrid(*[np.arange(truncation + 1)] * n, indexing="ij")
    y = [(-1j) * (g + 0.5) for g in grids]            # (m + 1/2)/i
    weight = np.ones_like(y[0], dtype=complex)
    for j in range(n):
        mu_j = 2 * cmath.log(E[j])
        weight = weight * np.exp(-(grids[j] + 0.5) * k * mu_j)
    # h-polynomial of F(h y; h)/h per lattice point
    g_layers = [np.zeros_like(weight) for _ in range(n_h + 1)]
    for (alpha, m, l), c in bnf.F.terms.items():
        if m != 0:
            continue
        j = l + sum(alpha) - 1
        if j > n_h:
            continue
        val = np.full_like(weight, f.to_complex(c))
        for jj, a in enumerate(alpha):
            if a:
                val = val * y[jj] ** a
        g_layers[j] = g_layers[j] + val
    mik = -1j * k
    # exp(mik * sum_j h^j g_j) = e^{mik g_0} * series in the nilpotent part
    coeffs = [np.exp(mik * g_layers[0])]
    nil = [mik * g for g in g_layers[1:]]             # h^1..h^{n_h} exponent
    series = [np.ones_like(weight)] + [np.zeros_like(weight)
                                       for _ in range(n_h)]
    power = [np.ones_like(weight)] + [np.zeros_like(weight)
                                      for _ in range(n_h)]
    fact = 1.0
    for m_ord in range(1, n_h + 1):
        new_power = [np.zeros_like(weight) for _ in range(n_h + 1)]
        for d1 in range(n_h + 1):
            for d2 in range(1, n_h + 1 - d1):
                new_power[d1 + d2] = new_power[d1 + d2] + power[d1] * nil[d2 - 1]
        power = new_power
        fact *= m_ord
        for d in range(n_h + 1):
            series[d] = series[d] + power[d] / fact
    out = []
    for d in range(n_h + 1):
        out.append(complex(np.sum(weight * coeffs[0] * series[d])))
    return out


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


def random_symplectic_2x2(rng):
    """Random element of Sp(2, R) = SL(2, R) via exp of a traceless matrix."""
    a = rng.uniform(-0.8, 0.8)
    b = rng.uniform(-0.8, 0.8)
    c = rng.uniform(-0.8, 0.8)
    A = np.array([[a, b], [c, -a]])
    from scipy.linalg import expm

    return expm(A)


def well_separated_mus(spec, rng, gap=0.3, tries=60):
    """Random exponents of the block kinds in ``spec`` (a complex
    hyperbolic entry gives a conjugate pair) whose 2^n half-sums
    <eps, mu>/2 lie at least ``gap`` apart; None after ``tries`` draws."""
    for _ in range(tries):
        mus = []
        for kind in spec:
            if kind == REAL_HYPERBOLIC:
                mus.append(complex(rng.uniform(0.4, 2.2)))
            elif kind == ELLIPTIC:
                mus.append(1j * rng.uniform(0.4, math.pi - 0.4))
            else:
                m = complex(rng.uniform(0.5, 1.8),
                            rng.uniform(0.4, math.pi - 0.4))
                mus.extend([m, m.conjugate()])
        n = len(mus)
        logs = []
        for eps in itertools.product((1, -1), repeat=n):
            logs.append(sum(e * m for e, m in zip(eps, mus)) / 2)
        ok = True
        for i in range(len(logs)):
            for j in range(i + 1, len(logs)):
                if abs(logs[i] - logs[j]) < gap:
                    ok = False
        if ok:
            return mus
    return None
