"""The inverse engine: trace data back to the quantum normal form.

Stage 0 applies exponential analysis (Prony: Hankel system, annihilating
polynomial, companion roots) to the constant trace coefficients.  Writing
s_k = 1/a_{0k}(0), the model is the finite exponential sum

    s_k = sum_{eps in {+-1}^n} sigma(eps) * lambda_eps^k,
    lambda_eps = c * prod_j E_j^{eps_j},  sigma(eps) = prod_j eps_j,

with c = e^{i phi} and E_j = exp(mu_j/2): the expansion of
e^{ik phi} prod_j 2 sinh(k mu_j/2).  The 2^n roots are the vertices of a
parallelotope, so they are read off by structure, not by search.  Roots
whose fitted weight is not near +-1 are dropped; two kept roots of
opposite weight differ in an odd number of coordinates, and their ratio,
oriented to the block normalization, is e^{mu_j} when they differ in
coordinate j alone.  Each generator thus labels 2^{n-1} edges, and the n
most frequent ratio classes are the generators; fewer classes or a tie at
rank n is an error that lists the classes.  c is the value most kept
roots agree on.  A damped Gauss-Newton refit of (c, E) against all
samples then restores the full accuracy of the fit's precision.

The fit runs on a float field, on one ladder of rungs: in doubles and
then at 240 bits for exact and double samples, at their own precision
for extended-precision ones.  A double Hankel solve with a condition
number above 1e12 passes to the next rung, as does a fit that fails or
that the field does not accept.  A float field accepts a fit whose
exponential-sum residual is within tolerance.  The exact field accepts a
fit that, rationalized in Q(i), meets every sample exactly; its Hankel
solve is exact (the reported condition number and the annihilating
polynomial).  When no rung is accepted the recovery refuses; it never
returns an inexact answer.

Later stages are finite linear systems: the z^m coefficient at h^j of the
stored trace differs from the same coefficient of the forward engine run
on the partially recovered normal form by an *exactly linear* expression
in the new unknowns (higher-order products always land at higher (j, m)).
The matrix entries are (i/k)^{|alpha|} d^alpha_mu prod (1/2)csch(k mu_j/2)
evaluated at mu(0); a finite k-set stands in for the k -> infinity
separation limit that guarantees generic solvability, so condition
numbers are reported rather than assumed.

The forward runs go through :class:`~bnftrace.qbnf.TraceEngine`, whose
per-block caches (coth/csch z-series per (k, j); each block factor
d^a (1/2)csch(k mu_j/2) as a z-series along mu_j(z)) are valid for one
mu-jet state.  The jets change only in the (0, m) stages, so there is one
engine per (0, m) stage and one more shared by every later stage and the
final self-check.  The matrix entries above are the constant terms of the
same block series.  They depend only on mu(0), the k-set and the alpha
set, not on the jets or the stage's right-hand side, so a recovery builds
and factors each distinct stage matrix once, from the first engine that
needs it, and every m-stage of that alpha set solves its own right-hand
side with the factorization, in order of m: stage (m, j) reads the terms
that stage (m - 1, j) found.  Each engine is built at the
full z-order and serves the lower orders (m, j) of the stages.  A stage
computes only the coefficient it reads
(:func:`~bnftrace.qbnf.trace_coefficient` at (m, j)); only the self-check
runs the whole expansion.  A caller may hand in an engine it already has
(the round trip passes its forward engine), and it is used for every
stage whose state it serves.
"""

import cmath
import itertools
import math
from fractions import Fraction
from operator import mul

from .blocks import (COMPLEX_HYPERBOLIC, ELLIPTIC, REAL_HYPERBOLIC,
                     SpectrumBlocks)
from .errors import (ConditioningError, FieldError, MathError,
                     RankDeficiencyError, SchemaError)
from .fields import FloatField
from .hypcalc import DEFAULT_POLE_TOL
from .linalg import factor_lstsq, poly_roots, solve_lstsq
from .qbnf import QuantumBNF, TraceEngine, trace_coefficient, trace_power
from .series import MultiSeries, Orders

# Relative tolerance of the stage-0 grouping decisions: the classes of edge
# ratios, the vote on c and the conjugate pairing.  It only has to separate
# genuinely distinct roots (pairwise gaps >= 0.3 in log scale in the
# supported regime) from Hankel-stage errors; the final numerical accuracy
# comes from the structured Gauss-Newton refit afterwards.
MATCH_TOL = 0.1
# Tolerance of the block-normalization decisions on a generator e^mu: the
# unit circle, the real axis and eigenvalues at +-1.  The strongest roots give
# each generator far more accurately; at MATCH_TOL these decisions would
# refuse a real hyperbolic mu below ~0.1 and an elliptic theta within 0.1 of
# 0 or pi.
NORMALIZATION_TOL = 1e-2
# Precision of the stage-0 fit that follows the double one for exact and
# double samples.
_RETRY_BITS = 240


def _patterns(n):
    return list(itertools.product((1, -1), repeat=n))


def _sigma(eps):
    s = 1
    for e in eps:
        s *= e
    return s


def _cube(field, c, exp_half):
    """The vertices c prod_j E_j^{eps_j}, keyed by sign pattern eps."""
    vertices = {}
    for eps in _patterns(len(exp_half)):
        v = c
        for E, e in zip(exp_half, eps):
            v = v * (E if e > 0 else field.inv(E))
        vertices[eps] = v
    return vertices


class ExponentialSum:
    """Samples with their fitted exponential model: the root of sign
    pattern eps is c prod_j E_j^{eps_j}, with weight sigma(eps)."""

    def __init__(self, field, samples, c, exp_half):
        self.field = field
        self.samples = dict(samples)
        self.roots = _cube(field, c, exp_half)

    def reconstruct(self, k):
        total = self.field.zero
        for eps, root in self.roots.items():
            term = root ** k
            total = total + (term if _sigma(eps) > 0 else -term)
        return total

    def residual(self):
        """Worst relative misfit over the samples; inf when a sample or the
        model is not finite (``max`` would pass over a NaN)."""
        worst = 0.0
        for k, s in self.samples.items():
            rec = self.reconstruct(k)
            scale = max(1.0, self.field.abs(s))
            err = self.field.abs(rec - s) / scale
            if not math.isfinite(err):
                return math.inf
            worst = max(worst, err)
        return worst


class FrequencyResult:
    __slots__ = ("blocks", "phi", "phi_value", "conditioning", "exp_sum")

    def __init__(self, blocks, phi, phi_value, conditioning, exp_sum):
        self.blocks = blocks          # canonical SpectrumBlocks
        self.phi = phi                # field scalar
        self.phi_value = phi_value    # complex, for display
        self.conditioning = conditioning
        self.exp_sum = exp_sum


def _hankel_tail(field, samples, r, tol):
    """The tail c_0..c_{r-1} of the monic polynomial annihilating r
    exponentials in the samples s_1..s_K, and its condition number."""
    K = len(samples)
    rows = [samples[t:t + r] for t in range(K - r)]
    rhs = [-samples[t + r] for t in range(K - r)]
    tail, cond, _res = solve_lstsq(field, rows, rhs, residual_tol=tol)
    return tail, cond


def _roots_and_weights(field, tail, samples, tol):
    """The tail polynomial's roots and their weights in the samples."""
    roots = poly_roots(field, tail)
    vrows = [[root ** k for root in roots] for k in range(1, len(samples) + 1)]
    weights, _wc, _wres = solve_lstsq(field, vrows, samples, residual_tol=tol)
    return roots, weights


def _close(field, a, b):
    return field.abs(a - b) <= MATCH_TOL * max(1.0, field.abs(a), field.abs(b))


def _count_into(field, classes, value, member):
    """Add ``member`` to the class of ``value`` in ``classes`` (a list of
    [representative, members]), opening a new class if none is close."""
    for cls in classes:
        if _close(field, cls[0], value):
            cls[1].add(member)
            return
    classes.append([value, {member}])


def _oriented(field, q):
    """q or 1/q, whichever meets the block normalization: |q| > 1, or
    arg q in (0, pi) on the unit circle."""
    qc = field.to_complex(q)
    if abs(abs(qc) - 1.0) <= NORMALIZATION_TOL:
        flip = qc.imag < 0
    else:
        flip = abs(qc) < 1.0
    return field.inv(q) if flip else q


def _classify_exponent(field, q):
    """Tag for e^mu = q under the block normalizations; raises otherwise."""
    qc = field.to_complex(q)
    mod = abs(qc)
    if abs(mod - 1.0) <= NORMALIZATION_TOL:
        th = cmath.phase(qc)
        if not (NORMALIZATION_TOL < th < math.pi - NORMALIZATION_TOL):
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
    if abs(qc.imag) <= NORMALIZATION_TOL * mod:
        if qc.real < 0:
            raise MathError("negative real eigenvalue: outside the classification")
        return REAL_HYPERBOLIC
    return COMPLEX_HYPERBOLIC


def _principal_exp_half(field, q, tag):
    """E = exp(mu/2) from q = exp(mu), principal branch (Re E >= 0).

    Safe because every normalized class has arg(q) in [0, pi)."""
    return _snap_to_class(field, field.sqrt(q), tag)


def _snap_to_class(field, E, tag):
    """A real hyperbolic E is real by its classification, so the rounding
    residue of its imaginary part is dropped."""
    if tag == REAL_HYPERBOLIC:
        return field.one * E.real
    return E


def _cube_from_roots(field, roots, weights, n):
    """Fit (c, tags, E) to the Prony roots c prod_j E_j^{eps_j}, on a float
    field (an exact recovery rationalizes the fit afterwards).

    Only roots whose fitted weight lies within 0.5 of +-1 are trusted.  Two
    trusted roots of opposite weight differ in an odd number of
    coordinates; their ratio, oriented to the block normalization, is
    q_j = E_j^2 when they differ in coordinate j alone, so each generator
    labels 2^{n-1} such edges and the n most frequent ratio classes are the
    generators.  c is then the value root / prod_j E_j^{eps_j} that a
    majority of the trusted roots agree on, over the eps whose sign
    sigma(eps) is the root's weight.
    """
    kept = [(root, sig) for root, w in zip(roots, weights) for sig in (1, -1)
            if field.abs(w - sig) <= 0.5]
    # strongest roots first, so each class is represented by its most
    # accurate ratio
    kept.sort(key=lambda rs: -field.abs(rs[0]))
    classes = []
    for i, (a, sa) in enumerate(kept):
        for j in range(i + 1, len(kept)):
            b, sb = kept[j]
            if sa != sb:
                _count_into(field, classes, _oriented(field, a * field.inv(b)),
                            (i, j))
    classes.sort(key=lambda cls: -len(cls[1]))
    if len(classes) < n or (len(classes) > n and
                            len(classes[n - 1][1]) == len(classes[n][1])):
        listing = ", ".join(f"{field.to_complex(q):.6g} x{len(members)}"
                            for q, members in classes)
        raise RankDeficiencyError(
            f"cannot single out {n} generators from the edge classes of "
            f"{len(kept)} trusted Prony roots (ratio x count): "
            f"{listing or 'none'}"
        )
    tags, exp_half = [], []
    for q, _members in classes[:n]:
        tag = _classify_exponent(field, q)
        tags.append(tag)
        exp_half.append(_principal_exp_half(field, q, tag))
    unit_cube = _cube(field, field.one, exp_half)
    votes = []
    for idx, (root, sig) in enumerate(kept):
        for eps, v in unit_cube.items():
            if _sigma(eps) == sig:
                _count_into(field, votes, root * field.inv(v), idx)
    c, voters = max(votes, key=lambda vote: len(vote[1]))
    if 2 * len(voters) <= len(kept):
        raise RankDeficiencyError(
            f"no phase constant shared by a majority of the {len(kept)} "
            f"trusted Prony roots: at most {len(voters)} agree"
        )
    return c, tags, exp_half


def _refit(field, samples, c, tags, exp_half, max_iter=40):
    """Damped Gauss-Newton refit of (c, E_1..E_n) against the samples
    s_1..s_K, on any float field.

    Each step solves the linearization, rows weighted to relative size,
    for the changes of the log parameters (log c, log E_j) by least
    squares (:func:`~bnftrace.linalg.solve_lstsq`), and multiplies c and
    each E_j by exp of its change; a step is halved until it decreases the
    misfit, so the refit converges from the coarse cube fit.  A refit that
    leaves the finite nonzero numbers is a RankDeficiencyError.
    """
    # per parameter (log c, log E_j), the sign of each root's term in the
    # derivative of sum_eps sigma(eps) lambda_eps^k, over k
    signs = list(zip(*([_sigma(eps)] + [_sigma(eps) * e for e in eps]
                       for eps in _patterns(len(exp_half)))))
    wgt = [1.0 / max(1.0, field.abs(s)) for s in samples]
    # a thousand units in the last place; a double's precision counts its
    # whole 64-bit format
    mantissa = 52 if field.precision <= 64 else field.precision
    resolution = 2.0 ** (10 - mantissa)

    def weighted(params, jacobian):
        """The weighted misfits w_k (model_k - s_k) and, if asked, the
        Jacobian rows w_k d model_k / d(log c, log E_1, .., log E_n)."""
        roots = list(_cube(field, params[0], params[1:]).values())
        powers = roots
        misfits, rows = [], []
        for k, (s, w) in enumerate(zip(samples, wgt), start=1):
            model = sum(map(mul, signs[0], powers), field.zero)
            misfits.append((model - s) * w)
            if jacobian:
                rows.append([model * (k * w)] + [
                    sum(map(mul, col, powers), field.zero) * (k * w)
                    for col in signs[1:]])
            powers = list(map(mul, powers, roots))
        return misfits, rows

    def norm(misfits):
        """The squared norm, at the field's precision."""
        return sum((v * field.conj(v)).real for v in misfits)

    params = [c] + list(exp_half)
    misfits, rows = weighted(params, True)
    cur = norm(misfits)
    for _ in range(max_iter):
        try:
            delta, _cond, _res = solve_lstsq(
                field, rows, [-v for v in misfits], residual_tol=math.inf)
        except RankDeficiencyError:
            break
        size = max(field.abs(d) for d in delta)
        if not 0 < size < math.inf:
            break
        # No parameter changes by more than a factor e.  Halving stops in
        # the linear regime, K |step delta| < 0.01, where a step that does
        # not decrease the misfit finds it at its floor.
        step = min(1.0, 1 / size)
        while True:
            trial = [v * field.exp(d * step) for v, d in zip(params, delta)]
            m = norm(weighted(trial, False)[0])
            if m < cur or step * size * len(samples) < 0.01:
                break
            step /= 2
        if not m < cur:
            break
        params, cur = trial, m
        if step * size < resolution:
            break
        misfits, rows = weighted(params, True)
    if not all(cmath.isfinite(field.to_complex(v)) and not field.is_zero(v)
               for v in params):
        raise RankDeficiencyError(f"stage-0 refit diverged: c, E = {params}")
    c, new_E = params[0], []
    for tag, E in zip(tags, params[1:]):
        if field.to_complex(E).real < 0:  # (c, E_j), (-c, -E_j): one cube
            E, c = -E, -c
        new_E.append(_snap_to_class(field, E, tag))
    return c, new_E


def _rungs(field):
    """The float fields that stage 0 fits in, each built when its turn
    comes: doubles and then 240 bits for exact or double samples, the
    field itself for extended-precision ones."""
    if not field.exact and field.precision > 64:
        yield field
    else:
        yield FloatField()
        yield FloatField(_RETRY_BITS)


def _in_field(field, fl, v):
    """The value ``v`` of the float field ``fl`` in ``field``: rounded on a
    float field; on the exact one the nearest Gaussian rational whose parts
    have denominators of at most 2^(bits/3), as a part p/q is found when the
    fit is off by less than about 1/(2 q bound)."""
    re, im = fl.format(v)
    if not field.exact:
        return field.parse(re, im)
    bound = 2 ** (fl.precision // 3)
    return field.from_rational(Fraction(re).limit_denominator(bound),
                               Fraction(im).limit_denominator(bound))


def _canonical_blocks(field, tags, exp_half):
    """Canonically ordered blocks.  Each complex hyperbolic principal
    member (Im E > 0) is paired with a member near its conjugate, which
    then becomes its exact conjugate."""
    tagged = [(t, E) for t, E in zip(tags, exp_half) if t != COMPLEX_HYPERBOLIC]
    ch = [E for t, E in zip(tags, exp_half) if t == COMPLEX_HYPERBOLIC]
    upper = [E for E in ch if field.to_complex(E).imag > 0]
    lower = [E for E in ch if field.to_complex(E).imag < 0]
    unpaired = RankDeficiencyError(
        "complex hyperbolic exponent without conjugate partner"
    )
    if len(upper) != len(lower):
        raise unpaired
    for E in upper:
        partner = [i for i, E2 in enumerate(lower)
                   if _close(field, E2, field.conj(E))]
        if not partner:
            raise unpaired
        del lower[partner[0]]
        tagged += [(COMPLEX_HYPERBOLIC, E),
                   (COMPLEX_HYPERBOLIC, field.conj(E))]
    blocks = SpectrumBlocks.from_exp_half(field, tagged)
    return blocks.reordered(blocks.canonical_order())


def recover_frequencies(field, a0, n, residual_tol=1e-6):
    """Recover mu(0) and the common phase from the constant coefficients.

    ``a0`` maps k = 1..K to a_{0k}(0); requires K >= 2^{n+1} + 2.  Forms
    s_k = 1/a0(k) and runs the exponential analysis (see the module
    docstring; on the exact field the result is verified exactly).
    Returns a :class:`FrequencyResult` with canonically ordered blocks.
    """
    if n < 1:
        raise SchemaError("n must be >= 1")
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

    tol = max(residual_tol, 1e-6)
    by_k = dict(zip(ks, samples))
    if field.exact:
        tail, cond = _hankel_tail(field, samples, 2 ** n, tol)
    for fl in _rungs(field):
        try:
            fit_samples = [fl.parse(*field.format(s)) for s in samples]
            if field.exact:
                fit_tail = [fl.parse(*field.format(t)) for t in tail]
            else:
                fit_tail, cond = _hankel_tail(fl, fit_samples, 2 ** n, tol)
                # root magnitudes spread over many decades: the weakest
                # roots' signal is lost to roundoff in doubles
                if fl.precision <= 64 and cond > 1e12:
                    raise ConditioningError(
                        f"Hankel condition number {cond:.3e} above 1e12")
            roots, weights = _roots_and_weights(fl, fit_tail, fit_samples, tol)
            c, tags, exp_half = _cube_from_roots(fl, roots, weights, n)
            c, exp_half = _refit(fl, fit_samples, c, tags, exp_half)
        # exact samples or powers beyond the double range fail that rung
        except (MathError, OverflowError) as exc:
            failure = f"the {fl.precision}-bit fit failed: {exc}"
            continue
        c, *exp_half = [_in_field(field, fl, v) for v in [c, *exp_half]]
        exp_sum = ExponentialSum(field, by_k, c, exp_half)
        if (all(exp_sum.reconstruct(k) == s for k, s in by_k.items())
                if field.exact else exp_sum.residual() <= residual_tol):
            break
        failure = (f"the {fl.precision}-bit fit c = {c!r}, E = {exp_half!r} "
                   f"misses the samples by {exp_sum.residual():.3e}")
    else:
        raise RankDeficiencyError(
            f"no {'exact ' if field.exact else ''}fit of the samples: "
            f"{failure}")
    blocks = _canonical_blocks(field, tags, exp_half)

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


def recover_polynomial(engine, values, alpha_set, residual_tol=1e-8,
                       cond_gate=None, systems=None):
    """Solve for the coefficients a_alpha, alpha in ``alpha_set``, of p from
    the values of p(i k^{-1} d/dmu) prod_j (1/2)csch(k mu_j/2) at mu(0),
    over the powers k of ``values``.

    The field, the exponents mu(0) and the matrix entries come from
    ``engine``, a :class:`~bnftrace.qbnf.TraceEngine`
    (:meth:`~bnftrace.qbnf.TraceEngine.value_at_mu0`).  ``cond_gate`` caps
    the condition number of a float solve; exact solves are not gated.

    The matrix is factored once and solved for this right-hand side
    (:func:`~bnftrace.linalg.factor_lstsq`).  ``systems`` is a dict that
    keeps the factored matrix of each (k-set, alpha set) across calls that
    share the field and mu(0), as the stages of one recovery do: a matrix
    found there is not built again, and one built here is stored there.
    The consistency or residual test, the gate and the returned condition
    number belong to each call.
    """
    field = engine.field
    alpha_set = [tuple(a) for a in alpha_set]
    k_set = sorted(values)
    if len(k_set) < len(alpha_set):
        raise RankDeficiencyError(
            f"{len(alpha_set)} unknown coefficients need at least "
            f"{len(alpha_set)} trace powers, have {len(k_set)}"
        )
    if systems is None:
        systems = {}
    key = (tuple(k_set), tuple(alpha_set))
    system = systems.get(key)
    if system is None:
        rows = []
        for k in k_set:
            ik_inv = field.i * field.inv(field.from_int(k))
            row = []
            for alpha in alpha_set:
                d = engine.value_at_mu0(k, alpha)
                da = sum(alpha)
                row.append(d * ik_inv ** da if da else d)
            rows.append(row)
        system = systems[key] = factor_lstsq(field, rows)
    sol, cond, _res = system.solve([values[k] for k in k_set],
                                   residual_tol=residual_tol)
    # an exact solve verifies every equation, so only float solves are gated
    if cond_gate is not None and not field.exact and cond > cond_gate:
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


def _h_cap(n_h):
    """The top h-power of the F that traces at h-order n_h recover: f00
    and the f0m are h^1 terms, which h-order 0 already fixes."""
    return max(n_h, 1)


def require_recoverable(bnf, n_z, n_h):
    """Refuse a normal form with a term that a recovery from traces at
    orders (n_z, n_h) does not solve for: an F term with
    l + |alpha| > n_h + 1, l > max(n_h, 1) or m > n_z, or a mu-jet term
    above z^n_z.  The first such term is named."""
    h_cap = _h_cap(n_h)
    scope = (f"at trace orders z<={n_z}, h<={n_h} the recovery solves for "
             f"the F terms with l + |alpha| <= {n_h + 1}, l <= {h_cap} and "
             f"z^m, m <= {n_z}, and the mu-jets up to z^{n_z}")
    for alpha, m, l in sorted(bnf.F.terms):
        if l + sum(alpha) > n_h + 1 or l > h_cap or m > n_z:
            raise SchemaError(
                f"roundtrip cannot recover the F term iota^{list(alpha)} "
                f"z^{m} h^{l}: {scope}"
            )
    for j, jet in enumerate(bnf.mu_jets):
        for _alpha, m, _l in sorted(jet.terms):
            if m > n_z:
                raise SchemaError(
                    f"roundtrip cannot recover the z^{m} term of mu-jet "
                    f"{j}: {scope}"
                )


def recover_qbnf(tdata, n, orders=None, tol=1e-8, cond_gate=1e8,
                 pole_tol=DEFAULT_POLE_TOL, engine=None):
    """Full order-by-order recovery of (mu(z), F) from TraceData.

    Follows the staged scheme: Prony on the constant coefficients, then at
    each (h^j, z^m) the residual against the forward engine run on the
    partially recovered data is linear in the new unknowns.  That
    coefficient depends only on terms of lower (z, h) order, so each stage
    computes it alone at its own orders (m, j); only the self-check runs
    the whole forward expansion at the full trace orders, and it also
    compares the constant phase of the recovered form with the traces'.
    The recovered F covers the trace-order-limited set l + |alpha| <= N_h + 1
    and is bounded at h <= max(N_h, 1): at N_h = 0 the f00 and f0m terms
    of stage 0 and the (0, m) stages are h^1 terms.

    ``engine`` is an optional :class:`~bnftrace.qbnf.TraceEngine` already
    built for some state, such as the forward engine of a round trip; the
    stages whose state it serves use it instead of a new one.
    """
    if n < 1:
        raise SchemaError("n must be >= 1")
    f = tdata.field
    t_orders = tdata.orders()
    n_z, n_h = t_orders.z, t_orders.h
    h_cap = _h_cap(n_h)
    if orders is None:
        orders = Orders(n_h + 1, n_z, h_cap)
    else:
        orders = Orders(*orders)
    if orders.z > n_z or orders.h > h_cap:
        raise SchemaError(
            f"target orders {tuple(orders)} exceed trace orders "
            f"(z<={n_z}, h<={h_cap})"
        )
    notes = []
    conditioning = {}

    # -- Stage 0: frequencies and phase constant -------------------------
    a0 = {k: tdata.coefficients[k].get((), 0, 0)
          for k in range(1, tdata.k_max + 1)}
    freq = recover_frequencies(f, a0, n, residual_tol=max(tol, 1e-8))
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

    # one engine per mu-jet state and one factored matrix per alpha set
    # (see the module docstring)
    latest = None
    systems = {}

    def engine_for(bnf):
        nonlocal latest
        for e in (engine, latest):
            if e is not None and e.serves(bnf.blocks, bnf.mu_jets, n_z,
                                          pole_tol):
                return e
        latest = TraceEngine(bnf.blocks, bnf.mu_jets, n_z, pole_tol)
        return latest

    def solve_stage(m, j, alphas):
        bnf = current_bnf()
        eng = engine_for(bnf)
        values = {}
        for k in ks:
            fwd = trace_coefficient(bnf, k, m, j, pole_tol, engine=eng)
            delta = coeffs[k].get((), m, j) - fwd
            values[k] = delta * f.inv(-(f.i * f.from_int(k)))
        sol, cond = recover_polynomial(eng, values, alphas,
                                       residual_tol=max(tol, 1e-8),
                                       cond_gate=cond_gate, systems=systems)
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
        tp = trace_power(recovered, k, (n_z, n_h), pole_tol, engine=eng)
        fwd = tp.coeffs
        for m in range(n_z + 1):
            for j in range(n_h + 1):
                a = coeffs[k].get((), m, j)
                b = fwd.get((), m, j)
                dev = f.abs(a - b) / max(1.0, f.abs(a))
                residuals[(j, k, m)] = dev
                worst = max(worst, dev)
    # the constant phase, against the traces' phase with the residual
    # sample phase folded in, as the coefficients above were rebased by it
    limit = 0 if f.exact else tol
    dev = f.abs(tp.phase - f00) / max(1.0, f.abs(f00))
    if dev > limit:
        notes.append(f"recovered constant phase {tp.phase!r} differs from "
                     f"the traces' phase {f00!r}")
    worst = max(worst, dev)
    failed = worst > limit
    notes.append("blocks in canonical order: ch pairs, rh, elliptic")
    return RecoveryReport(recovered, residuals, worst, conditioning, notes,
                          failed)
