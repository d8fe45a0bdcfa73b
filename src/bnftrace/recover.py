"""The inverse engine: trace data back to the quantum normal form.

The normal form is G = <iota, mu(z)> + F(iota, z; h), and it is recovered
order by order.  Stage 0 finds mu(0) and the constant phase by exponential
analysis (Prony: Hankel system, annihilating polynomial, companion roots)
of the constant trace coefficients.  Writing s_k = 1/a_{0k}(0), the model
is the finite exponential sum

    s_k = sum_{eps in {+-1}^n} sigma(eps) * lambda_eps^k,
    lambda_eps = c * prod_j E_j^{eps_j},  sigma(eps) = prod_j eps_j,

with c = e^{i phi} and E_j = exp(mu_j/2): the expansion of
e^{ik phi} prod_j 2 sinh(k mu_j/2).  The 2^n roots are the vertices of a
parallelotope, so they are read off by structure, not by search.  Roots
whose fitted weight is not near +-1 are dropped; two kept roots of
opposite weight differ in an odd number of coordinates, and their ratio,
q or 1/q as :func:`~bnftrace.blocks.oriented` chooses, is e^{mu_j} when
they differ in coordinate j alone.  Each generator thus labels 2^{n-1}
edges, and the n most frequent ratio classes are the generators; fewer
classes or a tie at rank n is an error that lists the classes.  c is the
value most kept roots agree on.  A damped Gauss-Newton refit of (c, E)
against all samples then restores the full accuracy of the fit's
precision.  Block types, pairs and order are :mod:`~bnftrace.blocks`' rules.

Stage 0 finds n too.  A Hankel system of 2^n such terms is consistent
at r = 2^n and no smaller r (Kronecker), so for n = 1, 2, .. while
K >= 2^(n+1) + 2 it probes the Hankel system of r = 2^n in the samples'
field; an inconsistent one skips n, as does a failed exact one.  The fit
then runs on a float field, on a ladder of rungs: the samples' own
precision, whose Hankel solve is the probe, or doubles for exact ones,
then 240 bits for exact and double samples.  A double Hankel solve with
a condition number above 1e12 passes to the next rung, as does a fit that
fails or that the field does not accept.  The field judges a fit by its
misfits model_k - s_k: a float field accepts it when every relative
misfit is within tolerance (a NaN never is), the exact field when the
fit, rationalized in Q(i), meets every sample exactly.  The exact Hankel
solve gives the reported condition number and the annihilating
polynomial.  The first accepted fit gives n.  With none the recovery
refuses, naming the failure at the least n fitted; it never returns an
inexact answer.  The phase phi = -i log c is taken in the field: it is
zero, and its imaginary part is dropped, below the resolution at which
the refit stops.  On the exact field c must be 1.

The later stages solve for the coefficients of G, one stage per (h^j, z^m)
in the order of :func:`plan`.  With iota weighing like h, stage (j, m)
finds the terms iota^alpha z^m of G of weight j + 1: the F term
iota^alpha z^m h^{j+1-|alpha|} for lo <= |alpha| <= j + 1 (lo keeps the
h-power within the recovered F),
except that at j = 0 an iota-linear coefficient is the z^m term of a
mu-jet.  The z^m coefficient at h^j of the stored trace differs from the
same coefficient of the forward engine run on the partially recovered
normal form by an *exactly linear* expression in these unknowns
(higher-order products always land at higher (j, m)).  The matrix
entries are (i/k)^{|alpha|} d^alpha_mu prod (1/2)csch(k mu_j/2)
evaluated at mu(0); a finite k-set stands in for the k -> infinity
separation limit that guarantees generic solvability, so condition
numbers are reported rather than assumed.  A float stage is refused when
cond * u, u the field's unit roundoff, exceeds the recovery tolerance: a
least-squares solve is off by up to about that (Higham, ch. 20).

The forward runs go through one :class:`~bnftrace.qbnf.TraceEngine` for
the recovered blocks and k = 1..K, shared by every stage and the final
self-check: its Taylor tables at mu(0) do not depend on the jets, which
change only in the j = 0 stages, and it keeps its z-series per jet state.
The matrix entries above are products of the same table entries, a
column per alpha (:meth:`~bnftrace.qbnf.TraceEngine.at_mu0`).  They
depend only on mu(0), the k-set and the alpha set, not on the jets or the
stage's right-hand side, so the engine keeps the factored stage matrix of
each alpha set, built once, and every m-stage of an h-order j solves its
own right-hand side with it, in order of m: stage (j, m) reads the terms
that stage (j, m - 1) found.  The engine is built at the full z-order and
serves the lower orders (m, j) of the stages.  Every forward runs over
all K powers at once, and the stages read its layout: a row per z-order,
listed over the powers.  A j = 0 stage computes only its own layer
(:func:`~bnftrace.qbnf.trace_layers` at (m, 0)), as the jet terms it
finds enter nonlinearly.  From j = 1 on, the weight-(j + 1) terms enter
the h^j layer only linearly, through (-ik) X, so each h-order runs one
layer forward, and each stage adds the rows its terms give above its own
z-order, exactly.  Only the self-check runs the whole expansion
(:func:`~bnftrace.qbnf.trace_powers`), and on the exact field it compares
exactly.  A caller may hand in an engine
it already has (the round trip passes its forward engine), and it is used
if it serves the recovered blocks and 1..K: an exact round trip's
self-check then reads the forwards the engine kept.
"""

import cmath
import itertools
import math
from collections import namedtuple
from fractions import Fraction
from operator import add, mul

from .blocks import (REAL_HYPERBOLIC, canonical_blocks, classify, oriented,
                     pair_conjugates)
from .errors import (ConditioningError, FieldError, MathError,
                     RankDeficiencyError, SchemaError)
from .fields import FloatField, nan_max
from .linalg import factor_lstsq, poly_roots, resolution, solve_lstsq, unit
from .qbnf import QuantumBNF, TraceEngine, trace_layers, trace_powers
from .series import MultiSeries, Orders

# Relative tolerance of the stage-0 grouping decisions: the classes of edge
# ratios and the vote on c.  It only has to separate genuinely distinct roots
# (pairwise gaps >= 0.3 in log scale in the supported regime) from
# Hankel-stage errors; the final numerical accuracy comes from the structured
# Gauss-Newton refit afterwards.
MATCH_TOL = 0.1
# Tolerance that stage 0 passes to the normalization rules of blocks.py on a
# generator e^mu: the unit circle, the real axis, eigenvalues at +-1 and the
# conjugate pairs.  The strongest roots give
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


def _root_powers(field, c, exp_half):
    """Per k = 1, 2, ..., the powers lambda_eps^k of the roots
    c prod_j E_j^{eps_j}, in sign-pattern order, by running products."""
    roots = list(_cube(field, c, exp_half).values())
    powers = roots
    while True:
        yield powers
        powers = list(map(mul, powers, roots))


def _misfits(field, samples, c, exp_half):
    """model_k - s_k over the samples s_1..s_K, the model being the
    exponential sum of the roots c prod_j E_j^{eps_j}, weights sigma(eps)."""
    signs = [_sigma(eps) for eps in _patterns(len(exp_half))]
    return [sum(map(mul, signs, powers), field.zero) - s
            for s, powers in zip(samples, _root_powers(field, c, exp_half))]


class FrequencyResult:
    __slots__ = ("blocks", "phi", "phi_value", "conditioning")

    def __init__(self, blocks, phi, phi_value, conditioning):
        self.blocks = blocks          # canonical SpectrumBlocks
        self.phi = phi                # field scalar
        self.phi_value = phi_value    # complex, or float if real, for display
        self.conditioning = conditioning


def _hankel(field, samples, r):
    """The factored Hankel system of r exponentials in the samples s_1..s_K
    and its right-hand side, solved by their annihilator's tail."""
    K = len(samples)
    return (factor_lstsq(field, [samples[t:t + r] for t in range(K - r)]),
            [-samples[t + r] for t in range(K - r)])


def _roots_and_weights(field, tail, samples, tol):
    """The tail polynomial's roots and their weights in the samples."""
    roots = poly_roots(field, tail)
    vrows = [[root ** k for root in roots] for k in range(1, len(samples) + 1)]
    weights, _res = solve_lstsq(field, vrows, samples, residual_tol=tol)
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
    coordinates; their ratio, oriented (:func:`~bnftrace.blocks.oriented`),
    is q_j = E_j^2 when they differ in coordinate j alone, so each generator
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
                q = a * field.inv(b)
                if not oriented(field.to_complex(q), NORMALIZATION_TOL):
                    q = field.inv(q)
                _count_into(field, classes, q, (i, j))
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
        tag = classify(field.to_complex(q), NORMALIZATION_TOL)
        tags.append(tag)
        # the principal branch, Re E >= 0: every oriented class has arg q
        # in [0, pi)
        exp_half.append(_snap_to_class(field, field.sqrt(q), tag))
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


def _refit(field, samples, c, tags, exp_half):
    """Damped Gauss-Newton refit of (c, E_1..E_n) against the samples
    s_1..s_K, on any float field.

    Each step solves the linearization, rows weighted to relative size,
    for the changes of the log parameters (log c, log E_j) by least
    squares (:func:`~bnftrace.linalg.solve_lstsq`), and multiplies c and
    each E_j by exp of its change; a step is halved until it decreases the
    misfit, so the refit converges from the coarse cube fit, in at most 40
    steps.  It stops once every weighted misfit is within 16 units in the
    last place: a step from there fits the samples' rounding, which moves
    a parameter they barely determine (c/E at E = 10^24/7) off a fit that
    an exact tail got right.  A refit that leaves the finite nonzero
    numbers is a RankDeficiencyError.
    """
    # per parameter (log c, log E_j), the sign of each root's term in the
    # derivative of sum_eps sigma(eps) lambda_eps^k, over k
    signs = list(zip(*([_sigma(eps)] + [_sigma(eps) * e for e in eps]
                       for eps in _patterns(len(exp_half)))))
    wgt = [1.0 / max(1.0, field.abs(s)) for s in samples]

    def weighted(params):
        """The weighted misfits w_k (model_k - s_k)."""
        return [v * w for v, w in
                zip(_misfits(field, samples, params[0], params[1:]), wgt)]

    def jacobian(params):
        """The rows w_k d model_k / d(log c, log E_1, .., log E_n)."""
        return [[sum(map(mul, col, powers), field.zero) * (k * w)
                 for col in signs]
                for k, (w, powers) in enumerate(
                    zip(wgt, _root_powers(field, params[0], params[1:])),
                    start=1)]

    def norm(misfits):
        """The squared norm, at the field's precision."""
        return sum((v * field.conj(v)).real for v in misfits)

    params = [c] + list(exp_half)
    misfits = weighted(params)
    cur = norm(misfits)
    for _ in range(40):
        if max(field.abs(v) for v in misfits) < resolution(field) / 64:
            break
        try:
            delta, _res = solve_lstsq(
                field, jacobian(params), [-v for v in misfits],
                residual_tol=math.inf)
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
            trial_misfits = weighted(trial)
            m = norm(trial_misfits)
            if m < cur or step * size * len(samples) < 0.01:
                break
            step /= 2
        if not m < cur:
            break
        params, misfits, cur = trial, trial_misfits, m
        if step * size < resolution(field):
            break
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
    comes: the samples' own float field, or doubles for exact samples,
    and then 240 bits for exact or double samples."""
    yield FloatField() if field.exact else field
    if field.exact or field.precision <= 64:
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


def _fit(field, samples, residual_tol):
    """The first fit (c, tags, E) of n = 1, 2, .. blocks that a rung
    accepts, and its Hankel system (see the module docstring)."""
    tol, K, failure = max(residual_tol, 1e-6), len(samples), ""
    for n in itertools.count(1):
        need = plan(n, 0, 0).stages[0].need
        if need > K:
            raise RankDeficiencyError(
                f"no {'exact ' if field.exact else ''}fit of the samples"
                f"{failure}; n = {n} needs the trace powers k = 1..{need}, "
                f"have {K}")
        try:  # the probe
            system, rhs = _hankel(field, samples, 2 ** n)
            tail = system.solve(rhs, residual_tol=tol)[0]
        except RankDeficiencyError as exc:
            if field.exact or system.full_rank:
                continue
            tail = exc  # only rank-deficient: refused on its own rung
        for fl in _rungs(field):
            try:
                fit_samples = [fl.parse(*field.format(s)) for s in samples]
                if fl is not field and not field.exact:
                    system, rhs = _hankel(fl, fit_samples, 2 ** n)
                    tail = system.solve(rhs, residual_tol=tol)[0]
                if isinstance(tail, MathError):
                    raise tail
                fit_tail = ([fl.parse(*field.format(t)) for t in tail]
                            if field.exact else tail)
                # root magnitudes spread over many decades: the weakest
                # roots' signal is lost to roundoff in doubles
                if (not field.exact and fl.precision <= 64
                        and system.cond > 1e12):
                    raise ConditioningError(f"Hankel condition number "
                                            f"{system.cond:.3e} above 1e12")
                roots, weights = _roots_and_weights(fl, fit_tail, fit_samples,
                                                    tol)
                c, tags, exp_half = _cube_from_roots(fl, roots, weights, n)
                c, exp_half = _refit(fl, fit_samples, c, tags, exp_half)
            # exact samples or powers beyond the double range fail that rung
            except (MathError, OverflowError) as exc:
                last = f"the {fl.precision}-bit fit failed: {exc}"
                continue
            c, *exp_half = [_in_field(field, fl, v) for v in [c, *exp_half]]
            misfits = _misfits(field, samples, c, exp_half)
            if field.exact and all(map(field.is_zero, misfits)):
                return c, tags, exp_half, system
            rel = [field.abs(v) / max(1.0, field.abs(s))
                   for v, s in zip(misfits, samples)]
            # a NaN misfit fails the test and counts as the largest
            if not field.exact and all(e <= residual_tol for e in rel):
                return c, tags, exp_half, system
            last = (f"the {fl.precision}-bit fit c = {c!r}, E = "
                    f"{exp_half!r} misses the samples by {nan_max(rel):.3e}")
        failure = failure or f": at n = {n}, {last}"


def recover_frequencies(field, a0, residual_tol=1e-6):
    """Recover n, mu(0) and the common phase from the constant coefficients.

    ``a0`` maps k = 1..K to a_{0k}(0); requires K >= 6.  Forms
    s_k = 1/a0(k) and runs the exponential analysis (see the module
    docstring; on the exact field the result is verified exactly).
    Returns a :class:`FrequencyResult` with canonically ordered blocks.
    """
    ks = sorted(a0)
    if ks != list(range(1, len(ks) + 1)):
        raise SchemaError("a0 must cover k = 1..K without gaps")
    samples = []
    for k in ks:
        v = a0[k]
        if field.is_zero(v) or not field.is_finite(field.inv(v)):
            raise RankDeficiencyError(f"vanishing leading coefficient at k={k}")
        samples.append(field.inv(v))
    if all(field.abs(s) == 0 for s in samples):
        raise RankDeficiencyError("constant zero samples: rank-deficient")

    c, tags, exp_half, system = _fit(field, samples, residual_tol)
    units = pair_conjugates(field, zip(tags, exp_half), NORMALIZATION_TOL)
    blocks, _perm = canonical_blocks(field, units)

    # phase: c = e^{i phi}
    if field.exact:
        if c != field.one:
            raise FieldError(
                "nonzero Prony phase is not exactly representable on the "
                "rational backend; use the float backend or the TraceData "
                "phase convention"
            )
        phi = field.zero
    else:
        phi = -field.i * field.log(c)
        floor = resolution(field)
        if abs(phi.imag) < floor:
            phi = field.one * phi.real
        if field.abs(phi) < floor:
            phi = field.zero
    phi_value = field.to_complex(phi)
    if phi_value.imag == 0:
        phi_value = phi_value.real
    return FrequencyResult(blocks, phi, phi_value, system.cond)


def recover_polynomial(engine, values, alpha_set, residual_tol=1e-8):
    """Solve for the coefficients a_alpha, alpha in ``alpha_set``, of p from
    the values of p(i k^{-1} d/dmu) prod_j (1/2)csch(k mu_j/2) at mu(0),
    a list over the powers k of ``engine``.

    The field, mu(0), the powers and the matrix columns come from
    ``engine``, a :class:`~bnftrace.qbnf.TraceEngine`
    (:meth:`~bnftrace.qbnf.TraceEngine.at_mu0`).  The matrix is factored
    once per alpha set and engine (:func:`~bnftrace.linalg.factor_lstsq`)
    and kept in ``engine.systems``, so the stages of a recovery that share
    the engine solve their right-hand sides with it.  The consistency or
    residual test and the returned condition number belong to each call.
    """
    alpha_set = tuple(map(tuple, alpha_set))
    if len(values) != len(engine.ks):
        raise SchemaError(f"{len(values)} values, but the trace engine "
                          f"serves the powers {list(engine.ks)}")
    system = engine.systems.get(alpha_set)
    if system is None:
        columns = []
        for alpha in alpha_set:
            da, col = sum(alpha), engine.at_mu0(alpha)
            columns.append(list(map(mul, col, engine.ik_power(da))) if da
                           else col)
        system = engine.systems[alpha_set] = factor_lstsq(
            engine.field, list(zip(*columns)))
    sol, _res = system.solve(values, residual_tol=residual_tol)
    return dict(zip(alpha_set, sol)), system.cond


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


class Stage(namedtuple("Stage", "name kind n j m lo")):
    """A stage of a recovery :func:`plan`: 'prony', an (h^j, z^m) stage of
    kind 'jets' (j = 0) or 'F', which solves for the terms of G of weight
    j + 1 at z^m with |alpha| >= lo, or the 'self-check'."""

    __slots__ = ()

    @property
    def alphas(self):
        """The alpha set, built when asked; an h^0 stage lists the columns
        1, iota_1, .., iota_n first, as the jets."""
        alphas = [a for a in itertools.product(range(self.j + 2),
                                               repeat=self.n)
                  if self.lo <= sum(a) <= self.j + 1]
        if self.kind == "jets":
            alphas.sort(key=lambda a: a[::-1])
        return alphas

    @property
    def need(self):
        """The K of the powers k = 1..K the stage needs: 2^(n+1) + 2 for
        Prony, one per unknown of an (h^j, z^m) stage, counted by binomials,
        none for the self-check."""
        if self.kind == "prony":
            return 2 ** (self.n + 1) + 2
        if self.kind == "self-check":
            return 0
        below = math.comb(self.lo - 1 + self.n, self.n) if self.lo else 0
        return math.comb(self.j + 1 + self.n, self.n) - below


class Plan(namedtuple("Plan", "h_cap stages")):
    """The stages in the order they run, and the top h-power h_cap of the
    recovered F."""

    __slots__ = ()

    def covers(self, degree, m, l):
        """Whether a stage solves for a term iota^alpha z^m h^l of G with
        |alpha| = ``degree``: f00 is Prony's."""
        j = l + degree - 1
        return (j, m, l) == (0, 0, 1) or any(
            (s.j, s.m) == (j, m) and s.lo <= degree
            for s in self.stages[1:-1])

    def require(self, K):
        """Refuse K powers if a stage needs more, naming the first stage
        that needs the most; K < 1 is an input error."""
        if K < 1:
            raise SchemaError("k_max must be >= 1")
        top = max(self.stages, key=lambda s: s.need)
        if top.need > K:
            raise RankDeficiencyError(f"stage {top.name} needs the trace "
                                      f"powers k = 1..{top.need}, have {K}")


def plan(n, n_z, n_h):
    """The :class:`Plan` of a recovery of n blocks from traces at orders
    (n_z, n_h).  Its F covers l + |alpha| <= n_h + 1 and h <= max(n_h, 1):
    at n_h = 0 the f00 and f0m of Prony and the h^0 stages are h^1
    terms."""
    if n < 1:
        raise SchemaError("n must be >= 1")
    h_cap = max(n_h, 1)
    return Plan(h_cap, [Stage("prony", "prony", n, 0, 0, 0)] + [
        Stage(f"h{j}:z{m}", "F" if j else "jets", n, j, m,
              max(0, j + 1 - h_cap))
        for j in range(n_h + 1) for m in range(0 if j else 1, n_z + 1)
    ] + [Stage("self-check", "self-check", n, 0, 0, 0)])


def require_recoverable(bnf, n_z, n_h, k_max):
    """Refuse, naming the first one, a term of ``bnf`` that no stage of
    the :func:`plan` at orders (n_z, n_h) solves for, then a short k_max."""
    p = plan(bnf.n, n_z, n_h)
    terms = [(f"F term iota^{list(alpha)} z^{m} h^{l}", sum(alpha), m, l)
             for alpha, m, l in sorted(bnf.F.terms)]
    terms += [(f"z^{m} term of mu-jet {j}", 1, m, 0)
              for j, jet in enumerate(bnf.mu_jets)
              for _, m, _ in sorted(jet.terms)]
    for what, degree, m, l in terms:
        if not p.covers(degree, m, l):
            raise SchemaError(f"roundtrip cannot recover the {what}: no "
                              "stage of the recovery at trace orders "
                              f"z<={n_z}, h<={n_h} solves for it")
    p.require(k_max)


def recover_qbnf(tdata, tol=1e-8, engine=None):
    """Full order-by-order recovery of (mu(z), F) from TraceData.

    Runs the stages of :func:`plan` for the n that stage 0 finds (see the
    module docstring), after checking K against it.  The self-check also
    compares the constant phase of the recovered form with the traces'.

    ``engine`` is an optional :class:`~bnftrace.qbnf.TraceEngine` already
    built, such as the forward engine of a round trip; if it serves the
    recovered blocks and the powers 1..k_max, every stage and the
    self-check use it, otherwise one new engine.
    """
    f = tdata.field
    t_orders = tdata.orders()
    n_z, n_h = t_orders.z, t_orders.h
    notes = []

    # -- Stage 0: frequencies and phase constant -------------------------
    ks = tuple(range(1, tdata.k_max + 1))
    a0 = {k: tdata.coefficients[k].get((), 0, 0) for k in ks}
    freq = recover_frequencies(f, a0, residual_tol=max(tol, 1e-8))
    blocks, n = freq.blocks, freq.blocks.n
    # stage 0 runs no forward, so K is still checked before any
    p = plan(n, n_z, n_h)
    p.require(tdata.k_max)
    conditioning = {p.stages[0].name: freq.conditioning}
    f00 = tdata.phase + freq.phi
    if not f.is_zero(freq.phi):
        notes.append(
            f"residual sample phase {freq.phi_value!r} folded into f00"
        )

    # rebase stored coefficients so their residual phase is zero: the
    # samples carried e^{-ik phi}, so multiplying by e^{+ik phi} strips it;
    # listed over the powers, as the engine's rows are
    coeffs = [tdata.coefficients[k] for k in ks]
    if not f.is_zero(freq.phi):
        coeffs = [c.scale(f.exp(f.i * f.from_int(k) * freq.phi))
                  for k, c in zip(ks, coeffs)]
    fhat_terms = {}
    if not f.is_zero(f00):
        fhat_terms[((0,) * n, 0, 1)] = f00
    jet_terms = [dict() for _ in range(n)]

    def current_bnf():
        jets = [MultiSeries(f, 0, Orders(0, n_z, 0), jt) for jt in jet_terms]
        F = MultiSeries(f, n, Orders(n_h + 1, n_z, p.h_cap), fhat_terms)
        return QuantumBNF(blocks, jets, F)

    # one engine for every stage and the self-check, which keeps one
    # factored matrix per alpha set (see the module docstring)
    if engine is None or engine.ks != ks or not engine.serves(blocks, n_z):
        engine = TraceEngine(blocks, ks, n_z)
    # the stage values are (stored - forward) / (-ik)
    inv_minus_ik = list(map(f.inv, engine.minus_ik))

    # -- Stages (j, m): the coefficients of G of weight j + 1 ------------
    for stage in p.stages[1:-1]:
        j, m = stage.j, stage.m
        # an h^0 stage runs its own layer; from j = 1 on, the first stage
        # of each h-order runs one layer forward, which each stage deflates
        if not (j and m):
            bnf = current_bnf()
            rows = trace_layers(bnf, (n_z if j else m, j), engine)
        values = [(c.get((), m, j) - v) * w
                  for c, v, w in zip(coeffs, rows[m], inv_minus_ik)]
        sol, cond = recover_polynomial(engine, values, stage.alphas,
                                       max(tol, 1e-8))
        conditioning[stage.name] = cond
        # an exact solve verifies every equation
        if not (f.exact or cond * unit(f) <= tol):
            raise ConditioningError(
                f"stage {stage.name} has condition number {cond:.3e}, which "
                f"times the {f.precision}-bit unit roundoff "
                f"{unit(f):.3e} exceeds the tolerance {tol:.1e}")
        found = {}
        for alpha, val in sol.items():
            if f.is_zero(val):
                continue
            if j == 0 and sum(alpha) == 1:  # the z^m term of a mu-jet
                jet_terms[alpha.index(1)][((), m, 0)] = val
            else:
                fhat_terms[(alpha, m, j + 1 - sum(alpha))] = val
                found[(alpha, m)] = val
        if j and found and m < n_z:  # they add only above z^m
            added = trace_layers(bnf, (n_z, j), engine, added=found)
            rows[m + 1:] = [list(map(add, a, b))
                            for a, b in zip(rows[m + 1:], added[m + 1:])]

    recovered = current_bnf()

    # -- self check: forward the recovered data and compare --------------
    # On the exact field any difference fails, also one whose size rounds
    # to 0 as a double; a float deviation fails above tol, or as a NaN.
    def off(a, b, dev):
        return a != b if f.exact else not dev <= tol

    residuals = {}
    failed = False
    phase, fwds = trace_powers(recovered, (n_z, n_h), engine)
    for k, c in zip(ks, coeffs):
        for m in range(n_z + 1):
            for j in range(n_h + 1):
                a, b = c.get((), m, j), fwds[k].get((), m, j)
                dev = (0.0 if f.exact and a == b
                       else f.abs(a - b) / max(1.0, f.abs(a)))
                residuals[(j, k, m)] = dev
                failed = failed or off(a, b, dev)
    # the constant phase, against the traces' phase with the residual
    # sample phase folded in, as the coefficients above were rebased by it
    dev = f.abs(phase - f00) / max(1.0, f.abs(f00))
    if off(phase, f00, dev):
        notes.append(f"recovered constant phase {phase!r} differs from "
                     f"the traces' phase {f00!r}")
        failed = True
    worst = nan_max([*residuals.values(), dev])
    notes.append("blocks in canonical order: ch pairs, rh, elliptic")
    return RecoveryReport(recovered, residuals, worst, conditioning, notes,
                          failed)
