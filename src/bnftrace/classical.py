"""Classical Birkhoff normal forms for polynomial symplectic maps.

Conventions (fixed here once; the related sign choices are documented on
the functions that use them):

* Hamilton field H_p = sum d_xi p d_x - d_x p d_xi, so "rotation by theta"
  means [[cos t, -sin t], [sin t, cos t]], which is exp H_q for the
  quadratic q = theta (x^2 + xi^2)/2 ... = <iota, mu> with mu = i theta
  and iota = i (x^2 + xi^2)/2.
* Complexified coordinates per block: elliptic a = x + i xi,
  b = (i x + xi)/2; real hyperbolic a = x, b = xi; complex hyperbolic
  pair a1 = x1 - i x2, b1 = (xi1 + i xi2)/2, a2 = conj a1, b2 = conj b1.
  In all cases the linear part acts diagonally (a_j -> lambda_j a_j,
  b_j -> b_j / lambda_j), the actions are iota_j = a_j b_j, and the
  quadratic generator is exactly <iota, mu>.  The block type of
  lambda_j = e^{mu_j} is :func:`bnftrace.blocks.classify`, the rule the
  recovery uses.
* The normal form Hamiltonian is reported in those complexified actions;
  for blocks without a complex hyperbolic part the equivalent real twist
  coefficients (iota_real = (x^2+xi^2)/2 elliptic, x xi hyperbolic) are
  also provided, with the elliptic linear coefficient -theta.

Elliptic blocks whose symplectic (Krein) orientation is reversed -- the
e^{i theta} eigenvector has positive symplectic area -- cannot be brought
to the standard block with theta in (0, pi); they are rejected rather than
silently renormalized.

The eigendecomposition of the linear part is
:func:`bnftrace.linalg.eigenpairs`, Hessenberg reduction and shifted
complex QR in pure Python on doubles; the inverse of the symplectic change
of variables is its signed transpose, which is exact.
"""

import cmath
import math
from operator import mul

from .blocks import (COMPLEX_HYPERBOLIC, ELLIPTIC, REAL_HYPERBOLIC,
                     canonical_blocks, classify, exp_half_of, principal,
                     require_nonresonant)
from .errors import MathError, SchemaError, SmallDenominatorError
from .fields import FloatField, nan_max
from .linalg import eigenpairs
from .phasepoly import (MAX_DEGREE, Degree, PhasePoly, PolyMap, exp_ham,
                        exponents, iota_poly_to_phase, monomial)

DEFAULT_TOL = 1e-9


class TaylorMap:
    """Polynomial symplectic map near a fixed point at the origin.

    Components are polynomials in (x_1..x_n, xi_1..xi_n) with zero
    constant term; symplecticity is enforced through degree-1 of the
    Jacobian identity D^T J D = J (exactly on exact fields, within 1e-8
    otherwise).  A ``PhasePoly`` component of this field, arity and degree
    is kept as it is; any other is rebuilt, truncated at ``degree``.
    """

    __slots__ = ("field", "n", "degree", "pmap")

    def __init__(self, field, n, degree, components, validate=True):
        if degree >= MAX_DEGREE:  # the normal form reaches degree + 1
            raise SchemaError(f"map degree {degree} is above the limit "
                              f"{MAX_DEGREE - 1} of the monomial keys")
        comps = []
        for c in components:
            if not isinstance(c, PhasePoly):
                c = PhasePoly(field, 2 * n, degree, c)
            elif (c.field is not field or c.arity != 2 * n
                  or c.degree != degree):
                c = PhasePoly(field, 2 * n, degree, {
                    exponents(k, c.nvars): v for k, v in c.terms.items()})
            comps.append(c)
        self.field = field
        self.n = n
        self.degree = degree
        self.pmap = PolyMap(field, n, degree, comps)
        if validate:
            zero_e = monomial((0,) * (2 * n))
            for i, c in enumerate(comps):
                if zero_e in c.terms:
                    raise SchemaError(
                        f"component {i} has a nonzero constant term: "
                        "the fixed point must sit at the origin"
                    )
            res = self.symplectic_residual()
            if field.exact:
                if res != 0:
                    raise SchemaError("map is not symplectic (exact check)")
            elif not res <= 1e-8:  # a NaN residual is refused too
                raise SchemaError(
                    f"map is not symplectic: Jacobian residual {res:.3e}"
                )

    def symplectic_residual(self):
        """Largest coefficient of D^T J D - J through degree - 1, NaN if
        any coefficient is NaN.

        The Jacobian entries are bounded at degree - 1, which they fit, so
        their products form no term that the check would throw away.
        """
        f = self.field
        n, nv = self.n, 2 * self.n
        top = self.degree - 1
        bound = Degree(top)
        D = [[PhasePoly._make(f, nv, bound, comp.derive(j).terms)
              for j in range(nv)] for comp in self.pmap.comps]
        worst = 0
        for i in range(nv):
            for j in range(i + 1, nv):
                acc = PhasePoly.zero(f, nv, top)
                for k in range(n):
                    acc = acc + D[k][i] * D[k + n][j] - D[k + n][i] * D[k][j]
                target = f.zero
                if j == i + n:
                    target = f.one
                acc = acc - PhasePoly.scalar(f, nv, top, target)
                if f.exact:
                    if not acc.is_zero():
                        return 1
                else:
                    worst = nan_max([worst, acc.max_coeff_abs()])
        return worst

    def linear_matrix_complex(self):
        """The linear part as rows of complex doubles."""
        return [[self.field.to_complex(x) for x in row]
                for row in self.pmap.linear_matrix()]

    def __repr__(self):
        return f"<TaylorMap n={self.n} degree={self.degree}>"


def _omega(u, v):
    """The symplectic form u^T J v, J = [[0, I], [-I, 0]], bilinear."""
    n = len(u) // 2
    return sum(map(mul, u[:n], v[n:])) - sum(map(mul, u[n:], v[:n]))


def _symplectic_defect(cols):
    """The largest entry of M^T J M - J, M the matrix of columns
    ``cols``."""
    n = len(cols) // 2
    return max(abs(_omega(ci, cj) - (j == i + n) + (i == j + n))
               for i, ci in enumerate(cols) for j, cj in enumerate(cols))


def _signed_transpose(C):
    """-J C^T J, by rows, which is C^-1 when C keeps J: entry (r, c) is
    C[c'][r'], with ' swapping x_k and xi_k, negated when exactly one of
    r, c is a xi slot.  It is exact on every field."""
    nv = len(C)
    n = nv // 2
    swap = list(range(n, nv)) + list(range(n))
    return [[C[swap[c]][swap[r]] if (r < n) == (c < n)
             else -C[swap[c]][swap[r]] for c in range(nv)] for r in range(nv)]


def _realify(v, tol):
    """The real parts of the unit eigenvector v, whose largest entry
    :func:`~bnftrace.linalg.eigenpairs` makes real, if the imaginary parts
    are below tol."""
    if max(abs(t.imag) for t in v) > tol:
        raise MathError("real eigenvalue with genuinely complex eigenvector")
    return [t.real for t in v]


def _claim(vals, used, w, tol):
    """The index of the unused eigenvalue nearest w, now marked used."""
    best, bestd = None, None
    for i, v in enumerate(vals):
        if used[i]:
            continue
        d = abs(v - w)
        if bestd is None or d < bestd:
            best, bestd = i, d
    if best is None or bestd > tol * max(1.0, abs(w)):
        raise MathError(
            f"defective eigenvalue structure: no partner near {w:.6g}"
        )
    used[best] = True
    return best


def _symplectic_eigenbasis(M, tol):
    """Classify eigenvalues, each block at its principal eigenvalue
    (:func:`~bnftrace.blocks.principal`), which claims the other members of
    its pair or quadruple.  Returns the units (tag, mu, (x-columns,
    xi-columns)) of the real symplectic basis T with T^{-1} M T in standard
    block form, one per elliptic or real hyperbolic block and per complex
    hyperbolic pair, mu of a pair its principal member's."""
    try:
        M = [[float(x) for x in row] for row in M]
    except TypeError:
        raise SchemaError("need a 2n x 2n matrix") from None
    nv = len(M)
    if not nv or nv % 2 or any(len(row) != nv for row in M):
        raise SchemaError("need a 2n x 2n matrix")
    if not all(math.isfinite(x) for row in M for x in row):
        raise SchemaError("matrix has a non-finite entry")
    scale = max(abs(x) for row in M for x in row)
    sym_res = _symplectic_defect(list(zip(*M)))
    if not sym_res <= tol * max(1.0, scale ** 2):
        raise SchemaError(f"matrix is not symplectic: residual {sym_res:.3e}")
    vals, vecs = eigenpairs(M)
    used = [False] * nv
    units = []
    for i, lam in enumerate(vals):
        # classify refuses eigenvalues at +-1
        if used[i] or not principal(lam, tol):
            continue
        tag = classify(lam, tol)
        used[i] = True
        v = vecs[i]
        if tag == ELLIPTIC:
            _claim(vals, used, lam.conjugate(), tol)
            s = _omega([t.real for t in v], [t.imag for t in v])
            if abs(s) < tol:
                raise MathError("defective elliptic pair: zero symplectic area")
            if s > 0:
                raise MathError(
                    "elliptic block with reversed Krein orientation: its "
                    "generator angle lies outside (0, pi); not representable "
                    "under the theta in (0, pi) normalization"
                )
            w = [t / math.sqrt(-s) for t in v]
            units.append((tag, complex(0.0, cmath.phase(lam)),
                          ([[t.real for t in w]], [[-t.imag for t in w]])))
        elif tag == REAL_HYPERBOLIC:
            j = _claim(vals, used, 1.0 / lam.real, tol)
            vp = _realify(v, 1e-7)
            vm = _realify(vecs[j], 1e-7)
            s = _omega(vp, vm)
            if abs(s) < tol:
                raise MathError("defective hyperbolic pair: zero pairing")
            units.append((tag, math.log(lam.real),
                          ([vp], [[t / s for t in vm]])))
        else:
            _claim(vals, used, lam.conjugate(), tol)
            u = vecs[_claim(vals, used, 1.0 / lam, tol)]
            _claim(vals, used, (1.0 / lam).conjugate(), tol)
            g = _omega(v, u) / 2.0
            if abs(g) < tol:
                raise MathError("defective complex hyperbolic quadruple")
            u = [t / g for t in u]
            units.append((tag, cmath.log(lam),
                          ([[t.real for t in v], [t.imag for t in v]],
                           [[t.real for t in u], [-t.imag for t in u]])))
    if not all(used):
        raise MathError("defective eigenvalue structure: unmatched eigenvalues")
    return units


def _standard_basis(field, units):
    """The blocks of the eigenbasis ``units`` on ``field``, in canonical
    order (:func:`~bnftrace.blocks.canonical_blocks`), and T, by rows, the
    units' columns in that order."""
    blocks, perm = canonical_blocks(
        field, [(tag, exp_half_of(field, mu)) for tag, mu, _cols in units])
    xcols, xicols = [], []
    for p in perm:
        xs, xis = units[p][2]
        xcols.extend(xs)
        xicols.extend(xis)
    res = _symplectic_defect(xcols + xicols)
    if res > 1e-6:
        raise MathError(
            f"eigenbasis failed symplectic normalization: residual {res:.3e}"
        )
    return blocks, [list(row) for row in zip(*xcols, *xicols)]


def classify_eigenvalues(M):
    """SpectrumBlocks of a real symplectic matrix (eq-style classification),
    given by rows, on the double field.

    Raises SchemaError on a non-finite entry and on non-symplectic input,
    and MathError on eigenvalues at +-1, negative real eigenvalues,
    defective structure and reversed-Krein elliptic blocks.
    """
    return _standard_basis(FloatField(),
                           _symplectic_eigenbasis(M, DEFAULT_TOL))[0]


def linear_normalize(tmap):
    """Bring the linear part to the standard block form.

    Returns (normalized TaylorMap, T, blocks) with T, by rows, the real
    symplectic matrix of the change of variables, normalized = T^{-1} o
    kappa o T, and the SpectrumBlocks of the same eigendecomposition.  T
    and the exponents come from the double eigendecomposition of the
    linear part, so they carry double accuracy on every float field; T^{-1}
    is T's signed transpose.
    """
    f = tmap.field
    if f.exact:
        raise SchemaError(
            "linear_normalize runs the numeric eigendecomposition and needs "
            "the float backend"
        )
    M = [[x.real for x in row] for row in tmap.linear_matrix_complex()]
    blocks, T = _standard_basis(f, _symplectic_eigenbasis(M, DEFAULT_TOL))
    tm, tmi = (PolyMap.from_linear(f, tmap.n, tmap.degree,
                                   [[f.one * complex(x) for x in row]
                                    for row in rows])
               for rows in (T, _signed_transpose(T)))
    conj = tmi.compose(tmap.pmap.compose(tm))
    out = TaylorMap(f, tmap.n, tmap.degree, conj.comps, validate=False)
    return out, T, blocks


class BNFResult:
    """Normal form data: blocks, p = <iota, mu> + R(iota), generators.

    ``p_complex`` maps iota multi-indices (complexified actions
    iota_j = a_j b_j) to coefficients; linear entries equal mu_j.
    ``conditioning`` is the smallest |lambda^M - 1| divided by during the
    normalization.  ``residual`` is the final defect of
    kappa = Lambda o exp H_R at the truncation degree.
    """

    __slots__ = ("blocks", "p_complex", "generators", "conditioning",
                 "residual")

    def __init__(self, blocks, p_complex, generators, conditioning,
                 residual):
        self.blocks = blocks
        self.p_complex = p_complex
        self.generators = generators
        self.conditioning = conditioning
        self.residual = residual

    def real_twist_coefficients(self):
        """p in the real actions iota_real = (x^2 + xi^2)/2 elliptic, x xi
        real hyperbolic; the elliptic linear coefficient becomes -theta.
        The inverse of :func:`iota_real_to_complex`."""
        return _elliptic_rescaled(self.blocks.tags, self.p_complex,
                                  self.blocks.field.i)

    def __repr__(self):
        return (f"<BNFResult n={self.blocks.n} terms={len(self.p_complex)} "
                f"min_denom={self.conditioning:.3e} residual={self.residual:.3e}>")


def _complexification(field, tags, degree):
    """(C, C^-1) as PolyMaps: w_complex = C(w_real), in the complexified
    coordinates of the module docstring.

    C keeps the bracket ({a_j, b_j} = {x_j, xi_j}), so C^-1 is its signed
    transpose -J C^T J.
    """
    n = len(tags)
    nv = 2 * n
    one = field.one
    i_ = field.i
    half = field.inv(field.from_int(2))
    C = [[field.zero] * nv for _ in range(nv)]
    j = 0
    while j < n:
        x, xi = j, n + j
        if tags[j] == ELLIPTIC:
            C[x][x], C[x][xi] = one, i_                # a
            C[xi][x], C[xi][xi] = i_ * half, half      # b
            j += 1
        elif tags[j] == REAL_HYPERBOLIC:
            C[x][x] = C[xi][xi] = one
            j += 1
        else:  # ch pair on real slots (j, j+1)
            C[x][x], C[x][x + 1] = one, -i_                  # a1
            C[x + 1][x], C[x + 1][x + 1] = one, i_           # a2
            C[xi][xi], C[xi][xi + 1] = half, i_ * half       # b1
            C[xi + 1][xi], C[xi + 1][xi + 1] = half, -i_ * half  # b2
            j += 2
    return (PolyMap.from_linear(field, n, degree, C),
            PolyMap.from_linear(field, n, degree, _signed_transpose(C)))


def _lambda_slots(field, blocks):
    lams = [E * E for E in blocks.exp_half]
    return lams + [field.inv(l) for l in lams]


def _snap_linear_to_diagonal(pmap, lam_slots):
    """Replace the linear part by the exact diagonal; residual must be
    small, and not NaN."""
    f = pmap.field
    nv = 2 * pmap.n
    worst = 0.0
    comps = []
    for i, comp in enumerate(pmap.comps):
        terms = dict(comp.terms)
        for jv in range(nv):
            e = [0] * nv
            e[jv] = 1
            e = monomial(e)
            cur = terms.pop(e, f.zero)
            want = lam_slots[i] if jv == i else f.zero
            worst = nan_max([worst, f.abs(cur - want)])
            if not f.is_zero(want):
                terms[e] = want
        comps.append(PhasePoly._make(f, nv, comp.bound, terms))
    if not worst <= 1e-7:
        raise MathError(
            f"linear part is not the expected diagonal: residual {worst:.3e}"
        )
    return PolyMap(f, pmap.n, pmap.degree, comps)


def birkhoff_normal_form(tmap, iota_degree, small_denominator_tol=1e-8,
                         blocks=None):
    """Degree-by-degree Lie normalization to kappa = exp H_p + O(degree+).

    At map degree d the residual against Lambda o exp H_R is cancelled by a
    generator chi of degree d+1: nonresonant monomial coefficients are
    divided by (lambda^M - 1), resonant ones (functions of iota alone)
    extend R.  Each generator coefficient is over-determined (one estimate
    per map component); disagreement -- i.e. a non-symplectic input --
    is an error.  The target exp H_R is rebuilt only when R changes, and
    both directions of each conjugation come from one Lie series.  At the
    top degree d = D the generator has degree D+1 and truncates to zero,
    so that step only extends R (its empty generator is still listed).

    With ``blocks`` given, the map is taken to be in standard block form
    with those blocks: the numeric eigendecomposition is skipped and the
    map is processed field-generically, which keeps rational fixtures
    exact.  Without, ``linear_normalize`` finds the blocks and normalizes
    the map (float fields only).
    """
    f = tmap.field
    n = tmap.n
    D = tmap.degree
    if iota_degree < 1:
        raise SchemaError("iota_degree must be >= 1")
    if D < 2 * iota_degree - 1:
        raise SchemaError(
            f"map degree {D} cannot determine R through iota^{iota_degree}; "
            f"need degree >= {2 * iota_degree - 1}"
        )
    if blocks is not None:
        normalized = tmap
    elif f.exact:
        raise SchemaError(
            "the numeric eigendecomposition needs the float backend; "
            "pass the blocks of a map in standard block form for exact "
            "fixtures"
        )
    else:
        normalized, _transform, blocks = linear_normalize(tmap)
    require_nonresonant(blocks, 2 * iota_degree, small_denominator_tol)

    Cmap, Cimap = _complexification(f, blocks.tags, D)
    kc = Cmap.compose(normalized.pmap.compose(Cimap))
    lam_slots = _lambda_slots(f, blocks)
    kc = _snap_linear_to_diagonal(kc, lam_slots)
    lam_inv = [f.inv(l) for l in lam_slots]

    def defect(pm):
        """Lambda^{-1} o pm - exp H_R, for the current R."""
        comps = [c.scale(lam_inv[i]) for i, c in enumerate(pm.comps)]
        return PolyMap(f, n, D, comps).sub(target)

    R_terms = {}
    # exp H_R, rebuilt only when a degree extends R
    target = _twist_flow(f, n, D, R_terms)
    generators = []
    min_denom = math.inf

    def lam_power(M):
        v = f.one
        for l, e in zip(lam_slots, M):
            if e:
                v = v * l ** e
        return v

    def consistent(values, what):
        """The mean of one coefficient's estimates, which must agree:
        exactly on an exact field, where the mean is their common value,
        and to 1e-6 relative otherwise."""
        ref = total = values[0]
        for v in values[1:]:
            if not (v == ref if f.exact else
                    f.abs(v - ref) <= 1e-6 * max(1.0, f.abs(ref))):
                raise MathError(
                    f"inconsistent generator estimates for {what} (spread "
                    f"{f.abs(v - ref):.3e}): input map is not symplectic "
                    "to this degree"
                )
            total = total + v
        return total * f.inv(f.from_int(len(values)))

    for d in range(2, D + 1):
        eps_d = [c.degree_part(d) for c in defect(kc).comps]
        # collect chi-monomial estimates; chi has degree d+1
        chi_est = {}
        rho_est = {}
        for i in range(2 * n):
            part = i + n if i < n else i - n
            for K, c in eps_d[i].terms.items():
                M = list(exponents(K, 2 * n))
                M[part] += 1
                M = tuple(M)
                if M[:n] == M[n:]:
                    # resonant: absorb into R; the H_rho component carries
                    # the iota exponent of the incremented slot
                    bucket = rho_est.setdefault(M[:n], [])
                else:
                    denom = lam_power(M) - f.one
                    dn = f.abs(denom)
                    if dn < small_denominator_tol:
                        kvec = [M[j] - M[n + j] for j in range(n)]
                        raise SmallDenominatorError(
                            f"small denominator |e^<k,mu> - 1| = {dn:.3e} "
                            f"for k={kvec}", witness=tuple(kvec),
                        )
                    min_denom = min(min_denom, dn)
                    c = c * f.inv(denom)
                    bucket = chi_est.setdefault(M, [])
                est = c * f.inv(f.from_int(M[part]))
                bucket.append(-est if i >= n else est)
        rho = {m: consistent(v, f"iota^{m}") for m, v in rho_est.items()}
        chi = {M: consistent(v, f"w^{M}") for M, v in chi_est.items()}
        for m, c in rho.items():
            R_terms[m] = R_terms.get(m, f.zero) + c
            if f.is_zero(R_terms[m]):
                del R_terms[m]
        if rho:
            target = _twist_flow(f, n, D, R_terms)
        if chi:
            chi_poly = PhasePoly(f, 2 * n, D, chi)
            generators.append(chi_poly)
            # at d = D chi has degree D + 1 and truncates to zero: its
            # conjugation is the identity; else exp H_chi has identity
            # linear part, so kc keeps its exact diagonal
            if not chi_poly.is_zero():
                fwd, bwd = exp_ham(chi_poly, n, D, inverse=True)
                kc = bwd.compose(kc.compose(fwd))

    residual = nan_max(c.max_coeff_abs() for c in defect(kc).comps)

    p_complex = {}
    if not f.exact:
        # linear part <iota, mu>; exact backends carry mu via the blocks
        for j, mu in enumerate(blocks.mu()):
            m = [0] * n
            m[j] = 1
            p_complex[tuple(m)] = f.one * mu
    for m, c in R_terms.items():
        if sum(m) <= iota_degree:
            p_complex[m] = c
    return BNFResult(blocks, p_complex, generators, min_denom, residual)


def _twist_flow(field, n, degree, iota_terms):
    """exp H_R for R in the complexified actions, as a PolyMap of degree
    ``degree``.  R's phase polynomial is bound at degree + 1, not at
    ``degree``: the flow of an iota^m term with 2|m| = degree + 1 still
    has terms of degree ``degree``."""
    if not iota_terms:
        return PolyMap.identity(field, n, degree)
    return exp_ham(iota_poly_to_phase(field, n, degree + 1, iota_terms), n,
                   degree)


def normal_form_flow(blocks, iota_terms, degree):
    """Time-1 flow of p = <iota, mu> + R as a TaylorMap in real coordinates.

    ``iota_terms`` gives R in the complexified actions (|m| >= 2).  Since
    {<iota,mu>, R} = 0 the flow factors as Lambda o exp H_R, both closed
    under truncation; used to build fixtures independently of the
    normalizer's degree loop.
    """
    f = blocks.field
    n = blocks.n
    for m in iota_terms:
        if sum(m) < 2:
            raise SchemaError("R must be O(iota^2)")
    Cmap, Cimap = _complexification(f, blocks.tags, degree)
    lam_slots = _lambda_slots(f, blocks)
    Lam = PolyMap.from_linear(
        f, n, degree,
        [[lam_slots[i] if i == j else f.zero for j in range(2 * n)]
         for i in range(2 * n)],
    )
    mc = Lam.compose(_twist_flow(f, n, degree, iota_terms))
    mreal = Cimap.compose(mc.compose(Cmap))
    return TaylorMap(f, n, degree, mreal.comps, validate=False)


def _elliptic_rescaled(tags, coeffs, unit):
    """``coeffs`` with each iota^m scaled by unit^(sum of m over the
    elliptic slots): unit i takes complexified actions to the real ones,
    -i back.  Complex hyperbolic pairs have no real actions."""
    if COMPLEX_HYPERBOLIC in tags:
        raise SchemaError(
            "real actions are defined for elliptic/real-hyperbolic blocks only"
        )
    e_slots = [i for i, t in enumerate(tags) if t == ELLIPTIC]
    return {tuple(m): c * unit ** (sum(m[i] for i in e_slots) % 4)
            for m, c in coeffs.items()}


def iota_real_to_complex(tags, coeffs, field):
    """Convert R coefficients from real actions to complexified ones."""
    return _elliptic_rescaled(tags, coeffs, -field.i)
