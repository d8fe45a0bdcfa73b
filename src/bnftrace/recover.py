"""The inverse engine: trace data back to the quantum normal form.

Stage 0 applies exponential analysis (Prony: Hankel system, annihilating
polynomial, companion roots) to the constant trace coefficients.  Writing
s_k = 1/a_{0k}(0), the model is the finite exponential sum

    s_k = sum_{eps in {+-1}^n} (prod_j eps_j) * lambda_eps^k,
    lambda_eps = exp(<eps, mu>/2 + i phi),

the expansion of e^{ik phi} prod_j 2 sinh(k mu_j/2).  The 2^n roots form a
multiplicative hypercube {c prod rho_j^{eps_j}}; sign patterns are matched
greedily against the fitted weights, every candidate assignment is checked
for hypercube consistency, and any surviving ambiguity is an error.

Later stages are finite linear systems: the z^m coefficient at h^j of the
stored trace differs from the same coefficient of the forward engine run
on the partially recovered normal form by an *exactly linear* expression
in the new unknowns (higher-order products always land at higher (j, m)).
The matrix entries are (i/k)^{|alpha|} d^alpha_mu prod (1/2)csch(k mu_j/2)
evaluated at mu(0); a finite k-set stands in for the k -> infinity
separation limit that guarantees generic solvability, so condition
numbers are reported rather than assumed.

The forward runs go through :class:`~bnftrace.qbnf.TraceEngine`, whose
caches (coth/csch z-series per k; derivative tower, its z-series along
mu(z) and its value at mu(0) per (k, alpha)) are valid for one mu-jet
state.  The jets change only in the (0, m) stages, so there is one engine
per (0, m) stage and one more shared by every later stage and the final
self-check; all of them share one set of derivative towers, and the
matrix entries above come from the same caches.  A caller may hand in an
engine it already has (the round trip passes its forward engine), and it
is used for every stage whose state it serves.
"""

import cmath
import itertools
import math

from . import hypcalc
from .blocks import (COMPLEX_HYPERBOLIC, ELLIPTIC, REAL_HYPERBOLIC,
                     SpectrumBlocks)
from .errors import (ConditioningError, FieldError, MathError,
                     RankDeficiencyError, SchemaError)
from .hypcalc import DEFAULT_POLE_TOL
from .linalg import poly_roots, solve_lstsq
from .qbnf import QuantumBNF, TraceEngine, trace_power
from .series import MultiSeries, Orders

# Tolerance for the combinatorial root-matching decisions.  It only has to
# separate genuinely distinct roots (pairwise gaps >= 0.3 in log scale in
# the supported regime) from Hankel-stage errors; the final numerical
# accuracy comes from the structured Gauss-Newton refit afterwards.
DEFAULT_MATCH_TOL = 1e-4


def _patterns(n):
    return list(itertools.product((1, -1), repeat=n))


def _sigma(eps):
    s = 1
    for e in eps:
        s *= e
    return s


class ExponentialSum:
    """Samples with their fitted exponential model (roots + sign weights)."""

    def __init__(self, field, samples, roots, assignment):
        self.field = field
        self.samples = dict(samples)
        self.roots = list(roots)
        self.assignment = dict(assignment)  # pattern -> root index

    def reconstruct(self, k):
        f = self.field
        total = f.zero
        for eps, idx in self.assignment.items():
            term = self.roots[idx] ** k
            total = total + (term if _sigma(eps) > 0 else -term)
        return total

    def residual(self):
        worst = 0.0
        for k, s in self.samples.items():
            rec = self.reconstruct(k)
            scale = max(1.0, self.field.abs(s))
            worst = max(worst, self.field.abs(rec - s) / scale)
        return worst


class FrequencyResult:
    __slots__ = ("blocks", "phi", "phi_value", "conditioning", "exp_sum")

    def __init__(self, blocks, phi, phi_value, conditioning, exp_sum):
        self.blocks = blocks          # canonical SpectrumBlocks
        self.phi = phi                # field scalar
        self.phi_value = phi_value    # complex, for display
        self.conditioning = conditioning
        self.exp_sum = exp_sum


def _prony(field, samples, r, residual_tol):
    """Annihilating-filter Prony on samples s_1..s_K with r frequencies."""
    K = len(samples)
    if K < 2 * r:
        raise RankDeficiencyError(
            f"Prony with {r} frequencies needs at least {2 * r} samples, "
            f"have {K}"
        )
    rows = [samples[t:t + r] for t in range(K - r)]
    rhs = [-samples[t + r] for t in range(K - r)]
    tail, cond, _res = solve_lstsq(field, rows, rhs,
                                   residual_tol=max(residual_tol, 1e-6))
    roots = poly_roots(field, tail)
    weights = _fit_weights(field, samples, roots, residual_tol)
    return roots, weights, cond


def _fit_weights(field, samples, roots, residual_tol):
    vrows = [[root ** k for root in roots] for k in range(1, len(samples) + 1)]
    weights, _wc, _wres = solve_lstsq(field, vrows, samples,
                                      residual_tol=max(residual_tol, 1e-6))
    return weights


def _repair_roots(field, samples, roots, weights, n, residual_tol):
    """Rebuild the root set from its reliable half and the cube structure.

    The weakest root's geometric track dies into the double-precision
    noise after a few samples, so the Hankel stage can trade it away
    (leaving spurious roots with near-zero fitted weight); but antipodal
    pairs multiply to the same c^2, and the strongest genuine roots are
    always well determined.  Keep the trusted top-magnitude half, estimate
    c^2 as the densest cluster of trusted pairwise products, and
    synthesize the missing antipodes as c^2 / lambda.
    """
    r = len(roots)
    trusted = [rt for rt, w in zip(roots, weights)
               if 0.4 <= field.abs(w) <= 2.5]
    if len(trusted) < r // 2:
        raise RankDeficiencyError(
            "root repair failed: fewer than half the roots carry a "
            "credible sign weight"
        )
    prods = []
    for i in range(len(trusted)):
        for j in range(i + 1, len(trusted)):
            prods.append(trusted[i] * trusted[j])
    best_cluster = None
    for p in prods:
        cluster = [q for q in prods if _close(field, p, q, 5e-2)]
        if best_cluster is None or len(cluster) > len(best_cluster):
            best_cluster = cluster
    if not best_cluster:
        raise RankDeficiencyError("root repair failed: no product cluster")
    c2 = best_cluster[0]
    for q in best_cluster[1:]:
        c2 = c2 + q
    c2 = c2 * field.inv(field.from_int(len(best_cluster)))
    top = sorted(trusted, key=lambda z: -field.abs(z))[: r // 2]
    repaired = list(top) + [c2 * field.inv(t) for t in top]
    new_weights = _fit_weights(field, samples, repaired, residual_tol)
    return repaired, new_weights


def _perfect_matchings(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i in range(len(rest)):
        for m in _perfect_matchings(rest[:i] + rest[i + 1:]):
            yield [(first, rest[i])] + m


def _close(field, a, b, tol):
    return field.abs(a - b) <= tol * max(1.0, field.abs(a), field.abs(b))


def _classify_exponent(field, q, tol):
    """Tag for e^mu = q under the block normalizations; raises otherwise."""
    qc = field.to_complex(q)
    mod = abs(qc)
    if field.exact and q.im == 0 and q.re < 0:
        raise MathError("negative real eigenvalue: outside the classification")
    if abs(mod - 1.0) <= tol:
        th = cmath.phase(qc)
        if not (tol < th < math.pi - tol):
            raise MathError(
                f"elliptic exponent with theta = {th:.6g} outside (0, pi): "
                "normalization violated or eigenvalue at +-1"
            )
        return ELLIPTIC
    if mod < 1.0:
        raise MathError(
            "recovered exponent with |e^mu| < 1: Re mu < 0 violates the "
            "hyperbolic normalization"
        )
    if abs(qc.imag) <= tol * mod:
        if qc.real < 0:
            raise MathError("negative real eigenvalue: outside the classification")
        return REAL_HYPERBOLIC
    return COMPLEX_HYPERBOLIC


def _principal_exp_half(field, q, tag, tol):
    """E = exp(mu/2) from q = exp(mu), principal branch.

    Safe because every normalized class has arg(q) in [0, pi)."""
    E = field.sqrt(q)
    ec = field.to_complex(E)
    if ec.real < -tol:
        E = -E
    return _snap_to_class(field, E, tag)


def _snap_to_class(field, E, tag):
    """A real hyperbolic E is real by its classification, so on a float
    field the rounding residue of its imaginary part is dropped."""
    if tag == REAL_HYPERBOLIC and not field.exact:
        return field.one * E.real
    return E


def _match_hypercube(field, roots, weights, n, tol, all_solutions=False,
                     use_weights=True):
    """Identify c = e^{i phi} and the exponents from the 2^n Prony roots.

    Returns (c, slots, assignment) where slots is a list of (tag, q, E).
    Every candidate passes three gates: antipodal pairing with a common
    product, sign-pattern weights, and half-exponential consistency
    t_eps = prod E_j^{eps_j}.  Multiple inequivalent survivors are an
    error, unless ``all_solutions`` asks for the list of candidates (used
    by the repair path, which validates them against the samples instead;
    it also disables the weight gate, meaningless on repaired roots).
    """
    r = 2 ** n
    pats = _patterns(n)
    solutions = []

    pair_candidates = []
    for matching in _perfect_matchings(list(range(r))):
        prods = [roots[i] * roots[j] for i, j in matching]
        if all(_close(field, prods[0], p, tol) for p in prods[1:]):
            pair_candidates.append(prods[0])
    if not pair_candidates:
        raise RankDeficiencyError(
            "root-matching failure: no antipodal pairing of the Prony roots"
        )
    seen_c2 = []
    c_candidates = []
    for c2 in pair_candidates:
        if any(_close(field, c2, s, tol) for s in seen_c2):
            continue
        seen_c2.append(c2)
        try:
            c = field.sqrt(c2)
        except FieldError:
            continue
        c_candidates.extend([c, -c])

    for c in c_candidates:
        cinv = field.inv(c)
        t = [rt * cinv for rt in roots]
        for ref in range(r):
            others = [i for i in range(r) if i != ref]
            for nbrs in itertools.permutations(others, n):
                q = [t[ref] * field.inv(t[b]) for b in nbrs]
                assign = {}
                used = set()
                ok = True
                for eps in pats:
                    pred = field.inv(t[ref])
                    for j, e in enumerate(eps):
                        if e > 0:
                            pred = pred * q[j]
                    sig = _sigma(eps)
                    found = None
                    for i in range(r):
                        if i in used:
                            continue
                        if use_weights:
                            w = field.to_complex(weights[i])
                            if w.real * sig <= 0 or abs(w - sig) > 0.5:
                                continue
                        if _close(field, t[i], pred, tol):
                            found = i
                            break
                    if found is None:
                        ok = False
                        break
                    assign[eps] = found
                    used.add(found)
                if not ok:
                    continue
                # classification + half-exponential consistency
                try:
                    slots = []
                    for qj in q:
                        tag = _classify_exponent(field, qj, tol)
                        slots.append((tag, qj, _principal_exp_half(field, qj, tag, tol)))
                except MathError:
                    continue
                good = True
                for eps in pats:
                    pred = field.one
                    for (tag, qj, Ej), e in zip(slots, eps):
                        pred = pred * (Ej if e > 0 else field.inv(Ej))
                    if not _close(field, t[assign[eps]], pred, tol):
                        good = False
                        break
                if good:
                    solutions.append((c, slots, assign))

    if not solutions:
        raise RankDeficiencyError(
            "root-matching failure: no sign-pattern assignment consistent "
            "with the fitted weights and normalizations"
        )

    def canon_key(sol):
        c, slots, _ = sol
        cc = field.to_complex(c)
        es = sorted(
            (round(field.to_complex(E).real, 6), round(field.to_complex(E).imag, 6))
            for _t, _q, E in slots
        )
        return (round(cc.real, 6), round(cc.imag, 6), tuple(es))

    groups = {}
    for s in solutions:
        groups.setdefault(canon_key(s), s)
    if all_solutions:
        return list(groups.values())
    if len(groups) > 1:
        raise RankDeficiencyError(
            f"ambiguous sign-pattern matching: {len(groups)} inequivalent "
            "assignments survive; refusing to choose silently"
        )
    return solutions[0]


def _polish_cube(field, samples, c, slots, max_iter=40):
    """Damped Gauss-Newton refit of (c, E_1..E_n) against the samples.

    Works in log parameters u = (log c, log E_j), where the structured
    model is lambda_eps^k = exp(k(u_0 + <eps, u>)); rows are weighted to
    relative size and steps are halved whenever they would not decrease
    the misfit, so the refit converges from the coarse (percent-level)
    starting points the repair path produces.  Float backend only.
    """
    import cmath as _cm

    import numpy as np

    n = len(slots)
    pats = _patterns(n)
    sigs = np.array([_sigma(eps) for eps in pats], dtype=float)
    eps_mat = np.array(pats, dtype=float)          # (2^n, n)
    s = np.array([field.to_complex(v) for v in samples], dtype=complex)
    K = len(s)
    kk = np.arange(1, K + 1)
    wgt = 1.0 / np.maximum(1.0, np.abs(s))
    u = np.array([_cm.log(field.to_complex(c))] +
                 [_cm.log(field.to_complex(E)) for _t, _q, E in slots],
                 dtype=complex)

    def model_and_jac(uvec):
        g = uvec[0] + eps_mat @ uvec[1:]           # (2^n,) log-roots
        powers = np.exp(np.outer(kk, g))           # (K, 2^n)
        model = powers @ sigs
        jac = np.zeros((K, n + 1), dtype=complex)
        base = powers * sigs[None, :] * kk[:, None]
        jac[:, 0] = base.sum(axis=1)
        jac[:, 1:] = base @ eps_mat
        return model, jac

    def misfit(uvec):
        g = uvec[0] + eps_mat @ uvec[1:]
        if np.max(kk[-1] * g.real) > 700:          # exp overflow guard
            return np.inf
        model = np.exp(np.outer(kk, g)) @ sigs
        return float(np.linalg.norm((model - s) * wgt))

    cur = misfit(u)
    for _ in range(max_iter):
        model, jac = model_and_jac(u)
        r = (model - s) * wgt
        try:
            delta, *_ = np.linalg.lstsq(jac * wgt[:, None], -(model - s) * wgt,
                                        rcond=1e-14)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(delta)):
            break
        step = 1.0
        improved = False
        for _halve in range(25):
            trial = u + step * delta
            m = misfit(trial)
            if m < cur:
                u = trial
                cur = m
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        if np.max(np.abs(step * delta)) < 1e-15:
            break
    new_c = field.one * complex(np.exp(u[0]))
    new_slots = []
    for j, (tag, _q, _E) in enumerate(slots):
        E = _snap_to_class(field, field.one * complex(np.exp(u[1 + j])), tag)
        new_slots.append((tag, E * E, E))
    return new_c, new_slots


def recover_frequencies(field, a0, n, tol=DEFAULT_MATCH_TOL,
                        residual_tol=1e-6):
    """Recover mu(0) and the common phase from the constant coefficients.

    ``a0`` maps k = 1..K to a_{0k}(0); requires K >= 2^{n+1} + 2.  Forms
    s_k = 1/a0(k) and runs the exponential analysis.  Returns a
    :class:`FrequencyResult` with canonically ordered blocks.
    """
    ks = sorted(a0)
    if ks != list(range(1, len(ks) + 1)):
        raise SchemaError("a0 must cover k = 1..K without gaps")
    K = len(ks)
    need = 2 ** (n + 1) + 2
    if K < need:
        raise RankDeficiencyError(
            f"frequency recovery for n={n} needs samples for k = 1..{need}, "
            f"have {K}"
        )
    samples = []
    for k in ks:
        v = a0[k]
        if field.is_zero(v) or (not field.exact and field.abs(v) < 1e-300):
            raise RankDeficiencyError(f"vanishing leading coefficient at k={k}")
        samples.append(field.inv(v))
    if all(field.abs(s) == 0 for s in samples):
        raise RankDeficiencyError("constant zero samples: rank-deficient")

    # The double-precision Hankel stage can degenerate when the root
    # magnitudes spread over many decades (the weakest antipode's signal
    # then sits below machine epsilon in all but the first few samples).
    # In that case rerun it in extended precision, and if the root set is
    # still structurally broken, repair it from the reliable half plus the
    # antipodal product; the structured refit restores full accuracy.
    plain_double = not field.exact and getattr(field, "_mp", None) is None
    try:
        roots, weights, cond = _prony(field, samples, 2 ** n, residual_tol)
        retry = plain_double and cond > 1e12
    except RankDeficiencyError:
        if not plain_double:
            raise
        retry = True
        roots = weights = None
        cond = float("inf")
    if retry:
        from .fields import FloatField

        mpf = FloatField(precision=240)
        mp_samples = [mpf.one * field.to_complex(s) for s in samples]
        mroots, mweights, _mpcond = _prony(mpf, mp_samples, 2 ** n,
                                           residual_tol)
        roots = [complex(r) for r in mroots]
        weights = [complex(w) for w in mweights]

    def _build(c, slots, assign, rts):
        if plain_double:
            c, slots = _polish_cube(field, samples, c, slots)
            pats = _patterns(n)
            rts = []
            assign = {}
            for idx, eps in enumerate(pats):
                v = c
                for (_t, _q, E), e in zip(slots, eps):
                    v = v * (E if e > 0 else field.inv(E))
                rts.append(v)
                assign[eps] = idx
        exp_sum = ExponentialSum(field, dict(zip(ks, samples)), rts, assign)
        res = exp_sum.residual()
        if res > residual_tol:
            raise RankDeficiencyError(
                f"inconsistent samples: exponential model residual {res:.3e}"
            )
        return c, slots, exp_sum

    try:
        c, slots, assign = _match_hypercube(field, roots, weights, n, tol)
        c, slots, exp_sum = _build(c, slots, assign, roots)
    except RankDeficiencyError:
        if not plain_double:
            raise
        # Structural repair: rebuild the root set from its trustworthy
        # half, enumerate loosely-consistent assignments, and let the
        # structured refit against all samples arbitrate.  Two surviving
        # inequivalent refits would be a genuine ambiguity.
        roots, weights = _repair_roots(field, samples, roots, weights, n,
                                       residual_tol)
        candidates = _match_hypercube(field, roots, weights, n,
                                      max(tol, 2e-1), all_solutions=True,
                                      use_weights=False)
        survivors = []
        for cand in candidates:
            try:
                survivors.append(_build(*cand, roots))
            except (RankDeficiencyError, MathError, FieldError,
                    ZeroDivisionError, OverflowError, ValueError):
                continue
        if not survivors:
            raise RankDeficiencyError(
                "root repair failed: no candidate assignment reproduces "
                "the samples"
            )
        keys = {
            tuple(sorted((round(field.to_complex(E).real, 8),
                          round(field.to_complex(E).imag, 8))
                         for _t, _q, E in s[1]))
            for s in survivors
        }
        if len(keys) > 1:
            raise RankDeficiencyError(
                "ambiguous repair: several inequivalent exponent sets "
                "reproduce the samples"
            )
        c, slots, exp_sum = survivors[0]

    # group complex hyperbolic slots into conjugate pairs, canonical order
    ch = [s for s in slots if s[0] == COMPLEX_HYPERBOLIC]
    rh = [s for s in slots if s[0] == REAL_HYPERBOLIC]
    el = [s for s in slots if s[0] == ELLIPTIC]
    pairs = []
    pool = list(ch)
    while pool:
        tag, q, E = pool.pop(0)
        qc = field.to_complex(q)
        partner = None
        for i, (t2, q2, E2) in enumerate(pool):
            if _close(field, q2, field.conj(q), tol):
                partner = i
                break
        if partner is None:
            raise RankDeficiencyError(
                "complex hyperbolic exponent without conjugate partner"
            )
        t2, q2, E2 = pool.pop(partner)
        if qc.imag > 0:
            pairs.append(((tag, q, E), (t2, field.conj(q), field.conj(E))))
        else:
            pairs.append(((t2, q2, E2), (tag, field.conj(q2), field.conj(E2))))
    pairs.sort(key=lambda p: (field.abs(p[0][1]),
                              cmath.phase(field.to_complex(p[0][1]))))
    rh.sort(key=lambda s: field.to_complex(s[1]).real)
    el.sort(key=lambda s: cmath.phase(field.to_complex(s[1])))

    tagged = []
    for a, b in pairs:
        tagged.append((a[0], a[2]))
        tagged.append((b[0], b[2]))
    tagged.extend((t, E) for t, _q, E in rh)
    tagged.extend((t, E) for t, _q, E in el)
    blocks = SpectrumBlocks.from_exp_half(field, tagged)

    # phase: c = e^{i phi}
    if field.exact:
        if not (c == field.one):
            raise FieldError(
                "nonzero Prony phase is not exactly representable on the "
                "rational backend; use the float backend or the TraceData "
                "phase convention"
            )
        phi = field.zero
        phi_value = 0.0
    else:
        cc = field.to_complex(c)
        phi_value = complex(-1j * cmath.log(cc))
        if abs(phi_value.imag) < 1e-12:
            phi_value = phi_value.real
        if abs(phi_value) < 1e-13:  # sub-roundoff estimate: exact zero
            phi_value = 0.0
            phi = field.zero
        else:
            phi = field.one * phi_value
    return FrequencyResult(blocks, phi, phi_value, cond, exp_sum)


def recover_polynomial(field, values, exp_half, max_degree=None,
                       alpha_set=None, k_set=None, residual_tol=1e-8,
                       cond_gate=None, engine=None):
    """Solve for the coefficients a_alpha of p from the values of
    p(i k^{-1} d/dmu) prod_j (1/2)csch(k mu_j/2) at mu(0), over k in k_set.

    ``engine`` is a :class:`~bnftrace.qbnf.TraceEngine` at these
    ``exp_half``; the matrix entries then come from its cached towers and
    values, else from a throwaway set of towers.
    """
    n = len(exp_half)
    if engine is None:
        towers = hypcalc.CschTowers(field, n)

        def entry(k, alpha):
            return hypcalc.eval_csch(towers.get(k, alpha), exp_half=exp_half)
    elif list(exp_half) != engine.exp_half:
        raise SchemaError("trace engine was built for other exponents")
    else:
        entry = engine.value_at_mu0
    if alpha_set is None:
        if max_degree is None:
            raise SchemaError("need max_degree or alpha_set")
        alpha_set = [
            a for a in itertools.product(range(max_degree + 1), repeat=n)
            if sum(a) <= max_degree
        ]
    alpha_set = [tuple(a) for a in alpha_set]
    if k_set is None:
        k_set = sorted(values)
    if len(k_set) < len(alpha_set):
        raise RankDeficiencyError(
            f"{len(alpha_set)} unknown coefficients need at least "
            f"{len(alpha_set)} trace powers, have {len(k_set)}"
        )
    rows, rhs = [], []
    for k in k_set:
        ik_inv = field.i * field.inv(field.from_int(k))
        row = []
        for alpha in alpha_set:
            d = entry(k, alpha)
            da = sum(alpha)
            row.append(d * ik_inv ** da if da else d)
        rows.append(row)
        rhs.append(values[k])
    sol, cond, _res = solve_lstsq(field, rows, rhs, residual_tol=residual_tol)
    if cond_gate is not None and cond > cond_gate:
        raise ConditioningError(
            f"recovery system condition number {cond:.3e} exceeds the gate "
            f"{cond_gate:.1e}"
        )
    return dict(zip(alpha_set, sol)), cond


class RecoveryReport:
    """Outcome of recover_qbnf: the normal form plus diagnostics."""

    __slots__ = ("recovered", "residuals", "max_residual", "conditioning",
                 "normalization_notes", "failed")

    def __init__(self, recovered, residuals, max_residual, conditioning,
                 normalization_notes, failed):
        self.recovered = recovered
        self.residuals = residuals
        self.max_residual = max_residual
        self.conditioning = conditioning
        self.normalization_notes = normalization_notes
        self.failed = failed

    def __repr__(self):
        state = "FAILED" if self.failed else "ok"
        return (f"<RecoveryReport {state} max_residual={self.max_residual:.3e} "
                f"max_cond={max(self.conditioning.values()):.3e}>")


def recover_qbnf(tdata, n, orders=None, tol=1e-8, cond_gate=1e8,
                 match_tol=DEFAULT_MATCH_TOL, pole_tol=DEFAULT_POLE_TOL,
                 engine=None):
    """Full order-by-order recovery of (mu(z), F) from TraceData.

    Follows the staged scheme: Prony on the constant coefficients, then at
    each (h^j, z^m) the residual against the forward engine run on the
    partially recovered data is linear in the new unknowns.  The recovered
    F covers the trace-order-limited set l + |alpha| <= N_h + 1.

    ``engine`` is an optional :class:`~bnftrace.qbnf.TraceEngine` already
    built for some state, such as the forward engine of a round trip; the
    stages whose state it serves use it instead of a new one.
    """
    f = tdata.field
    t_orders = tdata.orders()
    n_z, n_h = t_orders.z, t_orders.h
    if orders is None:
        orders = Orders(n_h + 1, n_z, n_h)
    else:
        orders = Orders(*orders)
    if orders.z > n_z or orders.h > n_h:
        raise SchemaError(
            f"target orders {tuple(orders)} exceed trace orders "
            f"(z<={n_z}, h<={n_h})"
        )
    notes = []
    conditioning = {}

    # -- Stage 0: frequencies and phase constant -------------------------
    a0 = {k: tdata.coefficients[k].get((), 0, 0)
          for k in range(1, tdata.k_max + 1)}
    freq = recover_frequencies(f, a0, n, tol=match_tol, residual_tol=max(tol, 1e-8))
    blocks = freq.blocks
    conditioning["prony"] = freq.conditioning
    f00 = tdata.phase + freq.phi
    if not f.is_zero(freq.phi):
        notes.append(
            f"residual sample phase {freq.phi_value!r} folded into f00"
        )

    # rebase stored coefficients so their residual phase is zero: the
    # samples carried e^{-ik phi}, so multiplying by e^{+ik phi} strips it
    coeffs = {}
    for k in range(1, tdata.k_max + 1):
        c = tdata.coefficients[k]
        if f.is_zero(freq.phi):
            coeffs[k] = c
        else:
            coeffs[k] = c.scale(f.exp(f.i * f.from_int(k) * freq.phi))

    alpha0 = (0,) * n
    ks = list(range(1, tdata.k_max + 1))

    fhat_terms = {}
    if not f.is_zero(f00):
        fhat_terms[(alpha0, 0, 1)] = f00
    jet_terms = [dict() for _ in range(n)]

    def current_bnf():
        jets = [MultiSeries(f, 0, Orders(0, n_z, 0), jt) for jt in jet_terms]
        F = MultiSeries(f, n, orders, fhat_terms)
        return QuantumBNF(blocks, jets, F, validate=False)

    # one engine per mu-jet state (see the module docstring)
    if engine is not None and engine.field is f and engine.n == n:
        towers = engine.towers
    else:
        towers = hypcalc.CschTowers(f, n)
    latest = None

    def engine_for(bnf):
        nonlocal latest
        for e in (engine, latest):
            if e is not None and e.serves(bnf.blocks, bnf.mu_jets, n_z,
                                          pole_tol):
                return e
        latest = TraceEngine(bnf.blocks, bnf.mu_jets, n_z, pole_tol, towers)
        return latest

    def solve_stage(m, j, alphas):
        bnf = current_bnf()
        eng = engine_for(bnf)
        values = {}
        for k in ks:
            fwd = trace_power(bnf, k, (n_z, n_h), pole_tol, engine=eng).coeffs
            delta = coeffs[k].get((), m, j) - fwd.get((), m, j)
            values[k] = delta * f.inv(-(f.i * f.from_int(k)))
        sol, cond = recover_polynomial(
            f, values, blocks.exp_half, alpha_set=alphas, k_set=ks,
            residual_tol=max(tol, 1e-8), cond_gate=cond_gate, engine=eng,
        )
        conditioning[f"h{j}:z{m}"] = cond
        return sol

    # -- Stage (0, m): f_{0m} and the mu jets ---------------------------
    unit_alphas = []
    for j in range(n):
        a = [0] * n
        a[j] = 1
        unit_alphas.append(tuple(a))
    for m in range(1, n_z + 1):
        sol = solve_stage(m, 0, [alpha0] + unit_alphas)
        if not f.is_zero(sol[alpha0]):
            fhat_terms[(alpha0, m, 1)] = sol[alpha0]
        for j, ua in enumerate(unit_alphas):
            if not f.is_zero(sol[ua]):
                jet_terms[j][((), m, 0)] = sol[ua]

    # -- Stages (j, m), j >= 1: the f_{jm} polynomials -------------------
    for j in range(1, n_h + 1):
        lo = max(0, j + 1 - orders.h)
        hi = min(j + 1, orders.iota)
        alphas = [
            a for a in itertools.product(range(hi + 1), repeat=n)
            if lo <= sum(a) <= hi
        ]
        if not alphas:
            continue
        for m in range(0, orders.z + 1):
            sol = solve_stage(m, j, alphas)
            for alpha, val in sol.items():
                if not f.is_zero(val):
                    l = j + 1 - sum(alpha)
                    fhat_terms[(alpha, m, l)] = val

    recovered = current_bnf()
    recovered = QuantumBNF(recovered.blocks, recovered.mu_jets, recovered.F)

    # -- self check: forward the recovered data and compare --------------
    eng = engine_for(recovered)
    residuals = {}
    worst = 0.0
    for k in ks:
        fwd = trace_power(recovered, k, (n_z, n_h), pole_tol,
                          engine=eng).coeffs
        for m in range(n_z + 1):
            for j in range(n_h + 1):
                a = coeffs[k].get((), m, j)
                b = fwd.get((), m, j)
                dev = f.abs(a - b) / max(1.0, f.abs(a))
                residuals[(j, k, m)] = dev
                worst = max(worst, dev)
    failed = worst > (0 if f.exact else tol)
    if f.exact:
        failed = any(r != 0 for r in residuals.values())
    notes.append("blocks in canonical order: ch pairs, rh, elliptic")
    return RecoveryReport(recovered, residuals, worst, conditioning, notes,
                          failed)
