"""Small field-generic linear algebra used by the recovery stages.

A least-squares system is factored once (``factor_lstsq``) and then solved
for any number of right-hand sides; ``solve_lstsq`` is one factorization
and one solve.  Every solve runs its own consistency or residual test.

Float systems, double or extended precision, take one path, in the field:
the rows and then the columns of the matrix are scaled to a largest
modulus of 1, which removes the geometric k-decay of the csch entries that
otherwise dominates the condition number, and the scaled matrix is
factored once by Householder QR, which does not square its condition
number as the normal equations do.  The rank is decided on R's diagonal,
the condition number read off R, and each solve applies Q^H,
back-substitutes and passes one residual test.

The exact backend runs plain Gauss-Jordan elimination on the matrix,
recording its row operations, and each solve replays them on b and then
*verifies* the remaining equations, which is exact least squares for
consistent overdetermined systems -- the only kind a correct recovery
stage produces.  There the reported condition number, a diagnostic, is
that of the matrix scaled as a float one is, off a double snapshot whose
rows are first scaled exactly by powers of two.

A condition number is computed when first read, by bidiagonalization and
Sturm bisection (Golub and Kahan 1965; Demmel and Kahan 1990).  One root
finder serves every float precision: Aberth-Ehrlich iteration in the
field's arithmetic.  The eigenpairs of a small double matrix, which the
classical normal form needs, come from Hessenberg reduction and shifted
complex QR.  All are pure Python, without numpy.
"""

import cmath
import math
from functools import cached_property
from operator import mul

from .errors import ConvergenceError, RankDeficiencyError

# step cap of the root finders, on doubles and on extended precision, and
# of the QR steps of one eigendecomposition
_ROOT_STEPS = 200
_EPS = 2.0 ** -52


def unit(field):
    """A float field's unit roundoff: 2^-53 on doubles, 2^-p at p bits."""
    return 2.0 ** -(53 if field.precision <= 64 else field.precision)


def resolution(field):
    """A thousand units in the last place of a float field; a double's
    precision counts its whole 64-bit format."""
    return 2.0 ** (10 - (52 if field.precision <= 64 else field.precision))


def _scaled(rows):
    """The row scales, the column scales and the matrix with its rows and
    then its columns scaled to a largest modulus of 1; a zero row or column
    keeps its scale."""
    rs = [max(map(abs, row)) or 1 for row in rows]
    a2 = [[x / r for x in row] for row, r in zip(rows, rs)]
    cs = [max(map(abs, col)) or 1 for col in zip(*a2)]
    return rs, cs, [[x / c for x, c in zip(row, cs)] for row in a2]


def _cond_of(rows):
    """The condition number of an exact matrix scaled as a float one is,
    off its double snapshot, each row first scaled exactly by a power of
    two to a largest part near 1, so that no entry leaves the double
    range."""
    snapshot = []
    for row in rows:
        s = max((max(abs(x.a), abs(x.b)).bit_length() - x.d.bit_length()
                 for x in row if x.a or x.b), default=0)
        up, down = max(0, -s), max(0, s)
        snapshot.append([complex((x.a << up) / (x.d << down),
                                 (x.b << up) / (x.d << down)) for x in row])
    return _cond(list(zip(*_scaled(snapshot)[2])))


def _cond(cols):
    """sigma_max / sigma_min of a double matrix by columns, no more than
    rows: inf if empty, singular or not finite, about 2^1000 beyond that."""
    moduli = [abs(x) for col in cols for x in col]
    if not all(map(math.isfinite, moduli)) or not any(moduli):
        return math.inf
    # by a power of two to a largest modulus near 1: no square overflows
    scale = 2.0 ** max(-1000, min(1000, -math.frexp(max(moduli))[1]))
    b = _bidiagonal([[x * scale for x in col] for col in cols])
    if 0.0 in b[0::2]:
        return math.inf
    top = max(b)  # sigma_max is at least top, and at most twice it
    return (_bisect(b, len(cols) - 1, top, 2.5 * top)
            / _bisect(b, 0, 2.0 ** -1000 * top, 2.5 * top))


def _reflect(x, cols, k, one):
    """Apply to rows k.. of each of ``cols`` the reflector I - beta v v^H
    that takes x to -phase alpha e_1, alpha = |x| and phase x_0's or
    ``one``, and return (alpha, phase, v, v^H, beta); v is None, and
    nothing is applied, unless alpha is positive."""
    alpha = sum(t.real * t.real + t.imag * t.imag for t in x) ** 0.5
    if not alpha > 0:
        return alpha, one, None, None, 0
    x0 = x[0]
    ax0 = abs(x0)
    phase = x0 / ax0 if ax0 else one
    v = [x0 + phase * alpha] + x[1:]
    vh = [t.conjugate() for t in v]
    beta = 1 / (alpha * (alpha + ax0))
    for cj in cols:
        s = sum(map(mul, vh, cj[k:])) * beta
        cj[k:] = [y - s * t for y, t in zip(cj[k:], v)]
    return alpha, phase, v, vh, beta


def _bidiagonal(cols):
    """The moduli d_1, e_1, .., d_n, which keep the singular values, of a
    bidiagonal form of the double matrix with columns ``cols`` (no more
    than rows), whose lists it overwrites: a reflector takes the first
    column to d_1 e_1, and the rest, transposed, is reduced in turn."""
    a, moduli = cols, []
    while a:
        moduli.append(_reflect(a[0], a[1:], 0, 1)[0])
        a = [list(row) for row in zip(*a[1:])]
    return moduli


def _bisect(b, k, lo, hi):
    """The (k+1)-th smallest singular value, in [lo, hi), of the bidiagonal
    of moduli b: at x > 0 its Golub-Kahan tridiagonal, eigenvalues +-sigma,
    has n negative LDL^T pivots for the -sigma and one per sigma below x."""
    squares = [t * t for t in b]
    while True:
        mid = lo * math.sqrt(hi / lo)
        if not lo < mid < hi:
            return hi
        x = q = -mid
        below = (1 - len(b)) // 2
        for s in squares:
            q = x - s / q or -2.0 ** -1022
            if q < 0:
                below += 1
        if below > k:
            hi = mid
        else:
            lo = mid


def solve_lstsq(field, rows, rhs, residual_tol=1e-9):
    """Solve A x = b (len(rows) >= unknowns).  Returns (x, residual).

    Raises RankDeficiencyError when the system cannot determine x or the
    equations are inconsistent beyond ``residual_tol`` (exact: beyond zero).
    A float x of an inconsistent system solves the row-equilibrated least
    squares problem of :class:`_FloatFactor`, not that of A x = b.
    """
    return factor_lstsq(field, rows).solve(rhs, residual_tol)


def factor_lstsq(field, rows):
    """Factor A (len(rows) >= unknowns) for solves with any number of
    right-hand sides: an object whose ``solve(rhs, residual_tol=1e-9)``
    returns what ``solve_lstsq(field, rows, rhs, residual_tol)`` returns,
    and whose ``cond`` is the condition number, computed when first read.

    An exact A that cannot determine x raises RankDeficiencyError here, a
    float one at each solve.
    """
    m = len(rows)
    if m == 0:
        raise RankDeficiencyError("empty linear system")
    ncols = len(rows[0])
    if m < ncols:
        raise RankDeficiencyError(
            f"underdetermined recovery stage: {ncols} unknowns need at least "
            f"{ncols} trace powers, have {m}"
        )
    return (_ExactFactor if field.exact else _FloatFactor)(field, rows)


class _ExactFactor:
    """Gauss-Jordan elimination of A alone, recorded as the row operations
    that each solve replays on b before it verifies the leftover
    equations."""

    def __init__(self, field, rows):
        self.field = field
        self.rows = rows
        m, ncols = len(rows), len(rows[0])
        a = [list(row) for row in rows]
        # per pivot column: (pivot row, inverse, [(row, elimination factor)])
        self.ops = []
        for r in range(ncols):
            pivot = None
            for i in range(r, m):
                if not field.is_zero(a[i][r]):
                    pivot = i
                    break
            if pivot is None:
                raise RankDeficiencyError(
                    f"rank-deficient recovery stage at column {r}: "
                    f"{ncols} unknowns"
                )
            a[r], a[pivot] = a[pivot], a[r]
            inv = field.inv(a[r][r])
            # only the columns right of the pivot are read again
            a[r][r + 1:] = [x * inv for x in a[r][r + 1:]]
            factors = []
            for i in range(m):
                if i != r and not field.is_zero(a[i][r]):
                    factor = a[i][r]
                    a[i][r + 1:] = [x - factor * y for x, y in
                                    zip(a[i][r + 1:], a[r][r + 1:])]
                    factors.append((i, factor))
            self.ops.append((pivot, inv, factors))

    @cached_property
    def cond(self):
        """That of A scaled as a float matrix is (:func:`_cond_of`)."""
        return _cond_of(self.rows)

    def solve(self, rhs, residual_tol=1e-9):
        field = self.field
        b = list(rhs)
        for r, (pivot, inv, factors) in enumerate(self.ops):
            b[r], b[pivot] = b[pivot], b[r]
            b[r] = b[r] * inv
            for i, factor in factors:
                b[i] = b[i] - factor * b[r]
        r = len(self.ops)
        if not all(field.is_zero(v) for v in b[r:]):
            raise RankDeficiencyError(
                "inconsistent linear system on the exact backend"
            )
        return b[:r], 0.0


class _FloatFactor:
    """The Householder QR factorization, in the field, of A with its rows
    and then its columns scaled to a largest modulus of 1.  An inconsistent
    system's solve minimizes |D (A x - b)|, D the inverse row scales."""

    def __init__(self, field, rows):
        self.field = field
        self.rs, self.cs, self.a3 = _scaled(rows)
        a = [list(col) for col in zip(*self.a3)]  # worked on by columns
        # per column k, its reflector (k, v, v^H, beta) on rows k..; a zero
        # or nan column has none, and fails R's rank test
        self.reflectors = []
        for k, col in enumerate(a):
            alpha, phase, v, vh, beta = _reflect(col[k:], a[k + 1:], k,
                                                 field.one)
            col[k] = -phase * alpha
            if v is not None:
                self.reflectors.append((k, v, vh, beta))
        self.r = [col[:j + 1] for j, col in enumerate(a)]  # R, by columns
        top = max(field.abs(x) for col in self.r for x in col)
        self.full_rank = all(field.abs(col[-1]) > resolution(field) * top
                             for col in self.r)

    @cached_property
    def cond(self):
        """That of the scaled A, off R's double snapshot, which the scaling
        keeps from overflowing."""
        return _cond([[self.field.to_complex(x) for x in col]
                      + [0j] * (len(self.r) - len(col)) for col in self.r])

    def solve(self, rhs, residual_tol=1e-9):
        ncols = len(self.r)
        if not self.full_rank:
            raise RankDeficiencyError(
                f"rank-deficient recovery stage: {ncols} unknowns, "
                f"condition number {self.cond:.3e}"
            )
        b2 = [y / r for y, r in zip(rhs, self.rs)]
        # y = Q^H b2, then R x3 = y by columns of R
        y = list(b2)
        for k, v, vh, beta in self.reflectors:
            s = sum(map(mul, vh, y[k:])) * beta
            y[k:] = [t - s * u for t, u in zip(y[k:], v)]
        x3 = y[:ncols]
        for j, col in reversed(list(enumerate(self.r))):
            x3[j] /= col[j]
            x3[:j] = [t - x3[j] * c for t, c in zip(x3[:j], col)]
        resid = [sum(map(mul, row, x3), -t) for row, t in zip(self.a3, b2)]
        rnorm = float(max(abs(t) for t in resid)
                      / max(1, max(abs(t) for t in b2)))
        if not rnorm <= residual_tol:
            raise RankDeficiencyError(
                f"inconsistent linear system: residual {rnorm:.3e} "
                f"exceeds {residual_tol:.1e}"
            )
        return [t / c for t, c in zip(x3, self.cs)], rnorm


def poly_roots(field, monic_tail):
    """Roots of z^r + c_{r-1} z^{r-1} + ... + c_0 on a float field, by
    Aberth-Ehrlich iteration in the field's arithmetic."""
    roots = _aberth(field, [field.one, *reversed(monic_tail)])
    if roots is None:
        raise ConvergenceError(
            "Aberth-Ehrlich iteration found no roots of the "
            f"degree-{len(monic_tail)} polynomial in maxsteps={_ROOT_STEPS} "
            "steps")
    return roots


def _horner(field, a, z):
    """p(z) and p'(z) for the coefficients a, highest power first."""
    p = dp = field.zero
    for c in a:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _aberth(field, a):
    """The roots of the monic polynomial of coefficients a in the float
    ``field``, highest power first, or None: exact zero roots, then
    Aberth-Ehrlich sweeps from the circles of the Newton polygon (Bini
    1996) until |p| is at its rounding in the field's precision, then a
    Newton step."""
    if not all(map(field.is_finite, a)):
        return None
    zeros = []
    while field.is_zero(a[-1]):
        a, zeros = a[:-1], zeros + [field.zero]
    r = len(a) - 1
    mods = [abs(c) for c in reversed(a)]  # by power of z
    # a double modulus has its real log; above, the field's log keeps the
    # range of its exponent
    log = math.log if field.precision <= 64 else lambda m: field.log(m).real
    hull = []  # the upper convex hull of the points (j, log |a_j|)
    for j, y in [(j, log(m)) for j, m in enumerate(mods) if m]:
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0])
                                 * (y - hull[-2][1]) >= (j - hull[-2][0])
                                 * (hull[-1][1] - hull[-2][1])):
            hull.pop()
        hull.append((j, y))
    # on the circle of each edge's root modulus, off the real axis
    z = [field.exp((l1 - l2) / (j2 - j1) + field.i * (
            2 * math.pi * (t / (j2 - j1) + j1 / r) + 0.4))
         for (j1, l1), (j2, l2) in zip(hull, hull[1:]) for t in range(j2 - j1)]
    done = [False] * r
    for _ in range(_ROOT_STEPS):
        for i, zi in enumerate(z):
            p, dp = _horner(field, a, zi)
            if done[i] or abs(p) <= 2 * r * unit(field) * sum(
                    m * abs(zi) ** j for j, m in enumerate(mods)):
                done[i] = True
                continue
            den = dp - p * sum(1 / (zi - zj) for zj in z if zj != zi)
            z[i] = zi - p / den if den else zi * (1 + 2.0 ** -26) + 2.0 ** -26
        if all(done):
            break
    else:
        return None
    for i, zi in enumerate(z):  # a Newton step, kept if it lowers |p|
        p, dp = _horner(field, a, zi)
        if dp and abs(_horner(field, a, zi - p / dp)[0]) < abs(p):
            z[i] = zi - p / dp
    return zeros + z


def eigenpairs(rows):
    """The eigenvalues of a small complex double matrix, given by rows, and
    an eigenvector of unit 2-norm, its largest entry real and positive, for
    each, as lists.

    The indices split into the blocks that no nonzero entry couples, the
    diagonal blocks of a permuted matrix; each block is solved alone, and
    its eigenvectors are exactly zero off it.  Householder reflectors
    reduce a block to Hessenberg form, and complex QR steps with Wilkinson
    shifts, by Givens rotations, to the Schur form T = Q^H A Q, deflating
    on a negligible subdiagonal.  Each eigenvector is back-substituted on
    T and multiplied by Q.  A triangular matrix takes no step and keeps
    its diagonal exactly.  A non-finite entry is a ConvergenceError."""
    n = len(rows)
    if not all(cmath.isfinite(x) for row in rows for x in row):
        raise ConvergenceError(
            f"Hessenberg-QR iteration found no eigenvalues of the {n} x {n} "
            "matrix: it has a non-finite entry")
    seen = [False] * n
    vals, vecs = [], []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        block = [start]
        for i in block:  # grows while it is read
            for j in range(n):
                if not seen[j] and (rows[i][j] or rows[j][i]):
                    seen[j] = True
                    block.append(j)
        block.sort()
        bvals, bvecs = _schur_eigenpairs([[rows[i][j] for j in block]
                                          for i in block])
        vals += bvals
        for v in bvecs:
            full = [0j] * n
            for i, t in zip(block, v):
                full[i] = t
            vecs.append(full)
    return vals, vecs


def _schur_eigenpairs(rows):
    """:func:`eigenpairs` of one block, by its Schur form."""
    n = len(rows)
    a = [[complex(x) for x in col] for col in zip(*rows)]  # by columns
    q = [[complex(i == j) for i in range(n)] for j in range(n)]
    for k in range(n - 2):
        if not any(a[k][k + 2:]):
            continue
        alpha, phase, v, vh, beta = _reflect(a[k][k + 1:], a[k + 1:], k + 1,
                                             1)
        a[k][k + 1:] = [-phase * alpha] + [0j] * (n - k - 2)
        for cols in (a, q):  # A P and Q P, P = I - beta v v^H
            s = [beta * sum(map(mul, v, row)) for row in zip(*cols[k + 1:])]
            for cj, t in zip(cols[k + 1:], vh):
                cj[:] = [y - si * t for y, si in zip(cj, s)]
    h = [list(row) for row in zip(*a)]  # by rows
    norm = max((abs(x) for row in h for x in row), default=0.0)
    hi, steps, since = n - 1, 0, 0
    while hi > 0:
        lo = hi
        while lo > 0 and abs(h[lo][lo - 1]) > _EPS * (
                abs(h[lo - 1][lo - 1]) + abs(h[lo][lo]) or norm):
            lo -= 1
        if lo > 0:
            h[lo][lo - 1] = 0j
        if lo == hi:
            hi, since = hi - 1, 0
            continue
        if steps == _ROOT_STEPS:
            raise ConvergenceError(
                f"Hessenberg-QR iteration found no eigenvalues of the {n} x "
                f"{n} matrix in maxsteps={_ROOT_STEPS} steps")
        steps, since = steps + 1, since + 1
        _qr_step(h, q, lo, hi, _shift(h, hi, since))
    vals = [h[i][i] for i in range(n)]
    small = _EPS * norm or 2.0 ** -1022
    vecs = []
    for i, lam in enumerate(vals):
        y = [0j] * i + [1 + 0j]
        for j in range(i - 1, -1, -1):
            d = h[j][j] - lam
            y[j] = -sum(map(mul, h[j][j + 1:i + 1], y[j + 1:])) / (
                d if abs(d) >= small else small)
        x = [sum(map(mul, row, y)) for row in zip(*q[:i + 1])]
        top = max(range(n), key=lambda r: abs(x[r]))
        p = x[top]
        x = [t / p for t in x]
        x[top] = 1 + 0j
        length = math.sqrt(sum(t.real * t.real + t.imag * t.imag for t in x))
        vecs.append([t / length for t in x])
    return vals, vecs


def _shift(h, hi, since):
    """The eigenvalue of the trailing 2 x 2 block of rows hi - 1, hi that
    is nearer h[hi][hi] (Wilkinson), or every tenth step without a
    deflation an exceptional shift off it."""
    d = h[hi][hi]
    if since % 10 == 0:
        return d + 0.75 * abs(h[hi][hi - 1])
    bc = h[hi - 1][hi] * h[hi][hi - 1]
    t = (h[hi - 1][hi - 1] - d) / 2
    r = cmath.sqrt(t * t + bc)
    den = t + r if abs(t + r) >= abs(t - r) else t - r
    return d - bc / den if den else d


def _qr_step(h, q, lo, hi, mu):
    """One shifted QR step on the active block lo..hi of the Hessenberg
    matrix h (by rows), its bulge chased down by Givens rotations G, which
    update all of h, as G h G^H, and the columns of q, as q G^H."""
    n = len(h)
    x, y = h[lo][lo] - mu, h[lo + 1][lo]
    for k in range(lo, hi):
        if k > lo:
            x, y = h[k][k - 1], h[k + 1][k - 1]
        ax = abs(x)
        r = math.hypot(ax, abs(y))
        if not r:
            continue
        c = ax / r
        s = (x / ax if ax else 1) * y.conjugate() / r
        sc = s.conjugate()
        rk, rk1 = h[k], h[k + 1]
        for j in range(max(lo, k - 1), n):
            u, w = rk[j], rk1[j]
            rk[j], rk1[j] = c * u + s * w, c * w - sc * u
        if k > lo:
            rk1[k - 1] = 0j
        for row in h[:min(k + 2, hi) + 1]:
            u, w = row[k], row[k + 1]
            row[k], row[k + 1] = c * u + sc * w, c * w - s * u
        qk, qk1 = q[k], q[k + 1]
        q[k] = [c * u + sc * w for u, w in zip(qk, qk1)]
        q[k + 1] = [c * w - s * u for u, w in zip(qk, qk1)]
