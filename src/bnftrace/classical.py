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
  b_j -> a_j / lambda_j), the actions are iota_j = a_j b_j, and the
  quadratic generator is exactly <iota, mu>.
* The normal form Hamiltonian is reported in those complexified actions;
  for blocks without a complex hyperbolic part the equivalent real twist
  coefficients (iota_real = (x^2+xi^2)/2 elliptic, x xi hyperbolic) are
  also provided, with the elliptic linear coefficient -theta.

Elliptic blocks whose symplectic (Krein) orientation is reversed -- the
e^{i theta} eigenvector has positive symplectic area -- cannot be brought
to the standard block with theta in (0, pi); they are rejected rather than
silently renormalized.
"""

import cmath
import math

import numpy as np

from .blocks import (COMPLEX_HYPERBOLIC, ELLIPTIC, REAL_HYPERBOLIC,
                     SpectrumBlocks, nonresonance_witness)
from .errors import (MathError, ResonanceError, SchemaError,
                     SmallDenominatorError)
from .fields import FloatField
from .phasepoly import (Degree, PhasePoly, PolyMap, exp_ham,
                        iota_poly_to_phase)

DEFAULT_TOL = 1e-9


class TaylorMap:
    """Polynomial symplectic map near a fixed point at the origin.

    Components are polynomials in (x_1..x_n, xi_1..xi_n) with zero
    constant term; symplecticity is enforced through degree-1 of the
    Jacobian identity D^T J D = J (exactly on exact fields, within ``tol``
    otherwise).  A ``PhasePoly`` component of this field, arity and degree
    is kept as it is; any other is rebuilt, truncated at ``degree``.
    """

    __slots__ = ("field", "n", "degree", "pmap")

    def __init__(self, field, n, degree, components, validate=True,
                 tol=1e-8):
        comps = []
        for c in components:
            if not isinstance(c, PhasePoly):
                c = PhasePoly(field, 2 * n, degree, c)
            elif (c.field is not field or c.arity != 2 * n
                  or c.degree != degree):
                c = PhasePoly(field, 2 * n, degree, c.terms)
            comps.append(c)
        self.field = field
        self.n = n
        self.degree = degree
        self.pmap = PolyMap(field, n, degree, comps)
        if validate:
            zero_e = (0,) * (2 * n)
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
            elif res > tol:
                raise SchemaError(
                    f"map is not symplectic: Jacobian residual {res:.3e}"
                )

    def symplectic_residual(self):
        """Largest coefficient of D^T J D - J through degree - 1.

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
                    worst = max(worst, acc.max_coeff_abs())
        return worst

    def compose(self, other):
        return TaylorMap(self.field, self.n,
                         min(self.degree, other.degree),
                         self.pmap.compose(other.pmap).comps, validate=False)

    def eval(self, values):
        return self.pmap.eval(values)

    def linear_matrix_complex(self):
        rows = self.pmap.linear_matrix()
        return np.array(
            [[self.field.to_complex(x) for x in row] for row in rows],
            dtype=complex,
        )

    def __repr__(self):
        return f"<TaylorMap n={self.n} degree={self.degree}>"


def _J(n):
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def _omega(u, v, J):
    return complex(u @ J @ v)


def _realify(v, tol):
    idx = int(np.argmax(np.abs(v)))
    w = v / (v[idx] / abs(v[idx]))
    if np.max(np.abs(w.imag)) > tol * max(1.0, np.max(np.abs(w.real))):
        raise MathError("real eigenvalue with genuinely complex eigenvector")
    return w.real


def _find_value(vals, used, w, tol):
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
    return best


def _symplectic_eigenbasis(M, tol):
    """Classify eigenvalues and build the real symplectic basis T with
    T^{-1} M T in standard block form.  Returns (units, T).

    units: list of ('e', theta, cols) / ('rh', lam, cols) /
    ('ch', lam, cols); cols are (x-columns, xi-columns).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
        raise SchemaError("need a 2n x 2n matrix")
    n = M.shape[0] // 2
    J = _J(n)
    sym_res = np.max(np.abs(M.T @ J @ M - J))
    if sym_res > max(tol, 1e-9) * max(1.0, np.max(np.abs(M)) ** 2):
        raise SchemaError(f"matrix is not symplectic: residual {sym_res:.3e}")
    vals, vecs = np.linalg.eig(M)
    for v in vals:
        if abs(v - 1) < tol:
            raise MathError("eigenvalue on the excluded set: lambda = 1")
        if abs(v + 1) < tol:
            raise MathError("eigenvalue on the excluded set: lambda = -1")
    used = [False] * (2 * n)
    units = []
    order = sorted(range(2 * n), key=lambda i: (-abs(vals[i]), -vals[i].imag))
    for i in order:
        if used[i]:
            continue
        lam = vals[i]
        if abs(abs(lam) - 1) < tol:  # elliptic pair
            if lam.imag < 0:
                continue  # handled through its conjugate
            used[i] = True
            j = _find_value(vals, used, lam.conjugate(), tol)
            used[j] = True
            theta = cmath.phase(lam)
            v = vecs[:, i]
            s = _omega(v.real, v.imag, J).real
            if abs(s) < tol:
                raise MathError("defective elliptic pair: zero symplectic area")
            if s > 0:
                raise MathError(
                    "elliptic block with reversed Krein orientation: its "
                    "generator angle lies outside (0, pi); not representable "
                    "under the theta in (0, pi) normalization"
                )
            w = v / math.sqrt(-s)
            units.append(("e", theta, ([w.real], [-w.imag])))
        elif abs(lam.imag) < tol * abs(lam):  # real pair
            lam_r = lam.real
            if lam_r < 0:
                raise MathError(
                    "negative real eigenvalue: outside the elliptic/"
                    "hyperbolic classification"
                )
            if abs(lam_r) < 1:
                continue  # partner of a lambda > 1 processed later
            used[i] = True
            j = _find_value(vals, used, 1.0 / lam_r, tol)
            used[j] = True
            vp = _realify(vecs[:, i], 1e-7)
            vm = _realify(vecs[:, j], 1e-7)
            s = _omega(vp, vm, J).real
            if abs(s) < tol:
                raise MathError("defective hyperbolic pair: zero pairing")
            units.append(("rh", lam_r, ([vp], [vm / s])))
        else:  # complex hyperbolic quadruple
            if abs(lam) < 1 or lam.imag < 0:
                continue
            used[i] = True
            j1 = _find_value(vals, used, lam.conjugate(), tol)
            used[j1] = True
            j2 = _find_value(vals, used, 1.0 / lam, tol)
            used[j2] = True
            j3 = _find_value(vals, used, (1.0 / lam).conjugate(), tol)
            used[j3] = True
            v = vecs[:, i]
            u = vecs[:, j2]
            g = _omega(v, u, J) / 2.0
            if abs(g) < tol:
                raise MathError("defective complex hyperbolic quadruple")
            u = u / g
            units.append(("ch", lam,
                          ([v.real, v.imag], [u.real, -u.imag])))
    if not all(used):
        raise MathError("defective eigenvalue structure: unmatched eigenvalues")

    def unit_key(u):
        kind, lam, _ = u
        if kind == "ch":
            return (0, abs(lam), cmath.phase(lam))
        if kind == "rh":
            return (1, lam, 0.0)
        return (2, lam, 0.0)

    units.sort(key=unit_key)
    xcols, xicols = [], []
    for _kind, _lam, (xs, xis) in units:
        xcols.extend(xs)
        xicols.extend(xis)
    T = np.column_stack(xcols + xicols)
    res = np.max(np.abs(T.T @ J @ T - J))
    if res > 1e-6:
        raise MathError(
            f"eigenbasis failed symplectic normalization: residual {res:.3e}"
        )
    return units, T


def _blocks_from_units(units, field):
    tagged = []
    for kind, lam, _cols in units:
        if kind == "e":
            tagged.append((ELLIPTIC, field.exp(0.5j * lam)))
        elif kind == "rh":
            tagged.append((REAL_HYPERBOLIC, field.exp(0.5 * math.log(lam))))
        else:
            mu = cmath.log(lam)
            tagged.append((COMPLEX_HYPERBOLIC, field.exp(mu / 2)))
            tagged.append((COMPLEX_HYPERBOLIC, field.exp(mu.conjugate() / 2)))
    return SpectrumBlocks.from_exp_half(field, tagged)


def classify_eigenvalues(M, tol=DEFAULT_TOL, field=None):
    """SpectrumBlocks of a real symplectic matrix (eq-style classification).

    Raises on non-symplectic input, eigenvalues at +-1, negative real
    eigenvalues, defective structure, and reversed-Krein elliptic blocks.
    """
    field = field or FloatField()
    units, _T = _symplectic_eigenbasis(M, tol)
    return _blocks_from_units(units, field)


def check_nonresonance(blocks, max_order, tol=1e-8):
    """Exhaustive search up to sum|k_j| <= max_order; (ok, witness)."""
    w = nonresonance_witness(blocks.mu(), max_order, tol)
    return (w is None), w


def linear_normalize(tmap, tol=DEFAULT_TOL):
    """Bring the linear part to the standard block form.

    Returns (normalized TaylorMap, T, blocks) with T the real symplectic
    matrix of the change of variables, normalized = T^{-1} o kappa o T,
    and the SpectrumBlocks of the same eigendecomposition.
    """
    f = tmap.field
    if f.exact:
        raise SchemaError(
            "linear_normalize runs the numeric eigendecomposition and needs "
            "the float backend"
        )
    M = tmap.linear_matrix_complex().real
    units, T = _symplectic_eigenbasis(M, tol)
    Tinv = np.linalg.inv(T)
    tm = PolyMap.from_linear(f, tmap.n, tmap.degree,
                             [[f.one * complex(x) for x in row] for row in T])
    tmi = PolyMap.from_linear(f, tmap.n, tmap.degree,
                              [[f.one * complex(x) for x in row] for row in Tinv])
    conj = tmi.compose(tmap.pmap.compose(tm))
    out = TaylorMap(f, tmap.n, tmap.degree, conj.comps, validate=False)
    return out, T, _blocks_from_units(units, f)


class BNFResult:
    """Normal form data: blocks, p = <iota, mu> + R(iota), generators.

    ``p_complex`` maps iota multi-indices (complexified actions
    iota_j = a_j b_j) to coefficients; linear entries equal mu_j.
    ``conditioning`` is the smallest |lambda^M - 1| divided by during the
    normalization.  ``residual`` is the final defect of
    kappa = Lambda o exp H_R at the truncation degree.
    """

    __slots__ = ("blocks", "p_complex", "generators", "conditioning",
                 "residual", "transform")

    def __init__(self, blocks, p_complex, generators, conditioning,
                 residual, transform):
        self.blocks = blocks
        self.p_complex = p_complex
        self.generators = generators
        self.conditioning = conditioning
        self.residual = residual
        self.transform = transform

    def real_twist_coefficients(self):
        """p in the real action convention (no complex hyperbolic blocks).

        iota_real = (x^2 + xi^2)/2 elliptic (coefficients pick up i^{sum of
        elliptic exponents}; the linear elliptic coefficient becomes
        -theta), x xi hyperbolic.
        """
        if any(t == COMPLEX_HYPERBOLIC for t in self.blocks.tags):
            raise SchemaError(
                "real twist display is defined for elliptic/real-hyperbolic "
                "blocks only"
            )
        f = self.blocks.field
        e_slots = [i for i, t in enumerate(self.blocks.tags) if t == ELLIPTIC]
        out = {}
        for m, c in self.p_complex.items():
            s = sum(m[i] for i in e_slots)
            out[m] = c * f.i ** (s % 4)
        return out

    def __repr__(self):
        return (f"<BNFResult n={self.blocks.n} terms={len(self.p_complex)} "
                f"min_denom={self.conditioning:.3e} residual={self.residual:.3e}>")


def _complexification(field, tags, degree):
    """(C, Cinv) as PolyMaps: w_complex = C(w_real)."""
    n = len(tags)
    nv = 2 * n
    zero = field.zero
    one = field.one
    i_ = field.i
    half = field.inv(field.from_int(2))
    C = [[zero] * nv for _ in range(nv)]
    Ci = [[zero] * nv for _ in range(nv)]
    j = 0
    while j < n:
        if tags[j] == ELLIPTIC:
            # a = x + i xi ; b = (i x + xi)/2 ; x = a/2 - i b ; xi = -i a/2 + b
            C[j][j] = one
            C[j][n + j] = i_
            C[n + j][j] = i_ * half
            C[n + j][n + j] = half
            Ci[j][j] = half
            Ci[j][n + j] = -i_
            Ci[n + j][j] = -i_ * half
            Ci[n + j][n + j] = one
            j += 1
        elif tags[j] == REAL_HYPERBOLIC:
            C[j][j] = one
            C[n + j][n + j] = one
            Ci[j][j] = one
            Ci[n + j][n + j] = one
            j += 1
        else:  # ch pair on real slots (j, j+1)
            # a1 = x1 - i x2 ; a2 = x1 + i x2
            C[j][j] = one
            C[j][j + 1] = -i_
            C[j + 1][j] = one
            C[j + 1][j + 1] = i_
            # b1 = (xi1 + i xi2)/2 ; b2 = (xi1 - i xi2)/2
            C[n + j][n + j] = half
            C[n + j][n + j + 1] = i_ * half
            C[n + j + 1][n + j] = half
            C[n + j + 1][n + j + 1] = -i_ * half
            # x1 = (a1 + a2)/2 ; x2 = -i(a2 - a1)/2 = i(a1 - a2)/2
            Ci[j][j] = half
            Ci[j][j + 1] = half
            Ci[j + 1][j] = i_ * half
            Ci[j + 1][j + 1] = -i_ * half
            # xi1 = b1 + b2 ; xi2 = -i (b1 - b2)
            Ci[n + j][n + j] = one
            Ci[n + j][n + j + 1] = one
            Ci[n + j + 1][n + j] = -i_
            Ci[n + j + 1][n + j + 1] = i_
            j += 2
    Cmap = PolyMap.from_linear(field, n, degree, C)
    Cimap = PolyMap.from_linear(field, n, degree, Ci)
    return Cmap, Cimap


def _lambda_slots(field, blocks):
    lams = [E * E for E in blocks.exp_half]
    return lams + [field.inv(l) for l in lams]


def _snap_linear_to_diagonal(pmap, lam_slots, tol):
    """Replace the linear part by the exact diagonal; residual must be small."""
    f = pmap.field
    nv = 2 * pmap.n
    worst = 0.0
    comps = []
    for i, comp in enumerate(pmap.comps):
        terms = dict(comp.terms)
        for jv in range(nv):
            e = [0] * nv
            e[jv] = 1
            e = tuple(e)
            cur = terms.pop(e, f.zero)
            want = lam_slots[i] if jv == i else f.zero
            worst = max(worst, f.abs(cur - want))
            if not f.is_zero(want):
                terms[e] = want
        comps.append(PhasePoly._make(f, nv, comp.bound, terms))
    if worst > max(tol, 1e-7):
        raise MathError(
            f"linear part is not the expected diagonal: residual {worst:.3e}"
        )
    return PolyMap(f, pmap.n, pmap.degree, comps)


def birkhoff_normal_form(tmap, iota_degree, tol=DEFAULT_TOL,
                         small_denominator_tol=1e-8, resonance_order=None,
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
    exact.  Without, ``linear_normalize`` finds the blocks and the
    normalizing transform (float fields only).
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
    transform = None
    if blocks is not None:
        normalized = tmap
    elif f.exact:
        raise SchemaError(
            "the numeric eigendecomposition needs the float backend; "
            "pass the blocks of a map in standard block form for exact "
            "fixtures"
        )
    else:
        normalized, transform, blocks = linear_normalize(tmap, tol)
    order = resonance_order or 2 * iota_degree
    w = nonresonance_witness(blocks.mu(), order, small_denominator_tol)
    if w is not None:
        raise ResonanceError(
            f"resonant exponents: k={list(w[0])}, m={w[1]}", witness=w
        )

    Cmap, Cimap = _complexification(f, blocks.tags, D)
    kc = Cmap.compose(normalized.pmap.compose(Cimap))
    lam_slots = _lambda_slots(f, blocks)
    kc = _snap_linear_to_diagonal(kc, lam_slots, tol)
    lam_inv = [f.inv(l) for l in lam_slots]

    def defect(pm):
        """Lambda^{-1} o pm - exp H_R, for the current R."""
        comps = [c.scale(lam_inv[i]) for i, c in enumerate(pm.comps)]
        return PolyMap(f, n, D, comps).sub(target)

    R_terms = {}
    # exp H_R, rebuilt only when a degree extends R
    target = PolyMap.identity(f, n, D)
    generators = []
    min_denom = math.inf

    def lam_power(M):
        v = f.one
        for l, e in zip(lam_slots, M):
            if e:
                v = v * l ** e
        return v

    def consistent(values, what):
        ref = values[0]
        for v in values[1:]:
            if f.exact:
                if not (v == ref):
                    raise MathError(
                        f"inconsistent generator estimates for {what}: "
                        "input map is not symplectic to this degree"
                    )
            elif f.abs(v - ref) > 1e-6 * max(1.0, f.abs(ref)):
                raise MathError(
                    f"inconsistent generator estimates for {what} "
                    f"(spread {f.abs(v - ref):.3e})"
                )
        if f.exact:
            return ref
        total = values[0]
        for v in values[1:]:
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
                M = list(K)
                M[part] += 1
                M = tuple(M)
                lamM = lam_power(M)
                denom = lamM - f.one
                res_mono = M[:n] == M[n:]
                if res_mono:
                    # resonant: absorb into R; the H_rho component carries
                    # the iota exponent of the incremented slot
                    est = c * f.inv(f.from_int(M[part]))
                    if i >= n:
                        est = -est
                    rho_est.setdefault(M[:n], []).append(est)
                else:
                    dn = f.abs(denom)
                    if dn < small_denominator_tol:
                        kvec = [M[j] - M[n + j] for j in range(n)]
                        raise SmallDenominatorError(
                            f"small denominator |e^<k,mu> - 1| = {dn:.3e} "
                            f"for k={kvec}", witness=tuple(kvec),
                        )
                    min_denom = min(min_denom, dn)
                    est = c * f.inv(denom) * f.inv(f.from_int(M[part]))
                    if i >= n:
                        est = -est
                    chi_est.setdefault(M, []).append(est)
        rho = {m: consistent(v, f"iota^{m}") for m, v in rho_est.items()}
        chi = {M: consistent(v, f"w^{M}") for M, v in chi_est.items()}
        for m, c in rho.items():
            R_terms[m] = R_terms.get(m, f.zero) + c
            if f.is_zero(R_terms[m]):
                del R_terms[m]
        if rho:
            target = (exp_ham(iota_poly_to_phase(f, n, D, R_terms), n, D)
                      if R_terms else PolyMap.identity(f, n, D))
        if chi:
            chi_poly = PhasePoly(f, 2 * n, D, chi)
            generators.append(chi_poly)
            # at d = D chi has degree D + 1 and truncates to zero: its
            # conjugation is the identity
            if not chi_poly.is_zero():
                fwd, bwd = exp_ham(chi_poly, n, D, inverse=True)
                kc = bwd.compose(kc.compose(fwd))
                kc = _snap_linear_to_diagonal(kc, lam_slots, tol)

    residual = max((c.max_coeff_abs() for c in defect(kc).comps),
                   default=0.0)

    p_complex = {}
    if not f.exact:
        # linear part <iota, mu>; exact backends carry mu via the blocks
        for j in range(n):
            m = [0] * n
            m[j] = 1
            mu = 2 * cmath.log(f.to_complex(blocks.exp_half[j]))
            p_complex[tuple(m)] = f.one * mu
    for m, c in R_terms.items():
        if sum(m) <= iota_degree:
            p_complex[m] = c
    return BNFResult(blocks, p_complex, generators,
                     min_denom if min_denom < math.inf else float("inf"),
                     residual, transform)


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
    R_phase = iota_poly_to_phase(f, n, degree, iota_terms)
    mc = Lam.compose(exp_ham(R_phase, n, degree)) if iota_terms else Lam
    mreal = Cimap.compose(mc.compose(Cmap))
    return TaylorMap(f, n, degree, mreal.comps, validate=False)


def iota_real_to_complex(tags, coeffs, field):
    """Convert R coefficients from real actions to complexified ones."""
    e_slots = [i for i, t in enumerate(tags) if t == ELLIPTIC]
    out = {}
    minus_i = -field.i
    for m, c in coeffs.items():
        s = sum(m[i] for i in e_slots)
        out[tuple(m)] = c * minus_i ** (s % 4)
    return out
