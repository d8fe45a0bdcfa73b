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
stage produces.  There a float snapshot of the raw matrix supplies the
reported condition number, purely as a diagnostic; a matrix beyond the
double range is scaled by one power of two for it.

numpy takes the singular values of the condition numbers and the roots of
polynomials on doubles, and is imported by the functions that call it, so
a program that solves no system and finds no roots does not load it.
"""

from fractions import Fraction
from operator import mul

from .errors import ConvergenceError, RankDeficiencyError

# iteration cap of mpmath's polyroots on extended-precision fields
_MP_ROOT_STEPS = 200


def resolution(field):
    """A thousand units in the last place of a float field; a double's
    precision counts its whole 64-bit format."""
    return 2.0 ** (10 - (52 if field.precision <= 64 else field.precision))


def _cond_of(field, rows):
    """Condition number of an exact matrix, off its double snapshot.  A
    matrix with an entry beyond the double range is first scaled by one
    power of two, taken from its largest entry, which leaves the
    condition number unchanged."""
    import numpy as np

    try:
        a = _snapshot(field, rows)
    except OverflowError:
        shift = max(abs(q.numerator).bit_length() - q.denominator.bit_length()
                    for row in rows for x in row for q in (x.re, x.im))
        scale = field.from_rational(Fraction(1, 2 ** shift))
        a = _snapshot(field, [[x * scale for x in row] for row in rows])
    if a.size == 0:
        return float("inf")
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] == 0:
        return float("inf")
    return float(s[0] / s[-1])


def _snapshot(field, rows):
    import numpy as np

    return np.array([[field.to_complex(x) for x in row] for row in rows],
                    dtype=complex)


def solve_lstsq(field, rows, rhs, residual_tol=1e-9):
    """Solve A x = b (len(rows) >= unknowns).  Returns (x, cond, residual).

    Raises RankDeficiencyError when the system cannot determine x or the
    equations are inconsistent beyond ``residual_tol`` (exact: beyond zero).
    """
    return factor_lstsq(field, rows).solve(rhs, residual_tol)


def factor_lstsq(field, rows):
    """Factor A (len(rows) >= unknowns) for solves with any number of
    right-hand sides: an object whose ``solve(rhs, residual_tol=1e-9)``
    returns what ``solve_lstsq(field, rows, rhs, residual_tol)`` returns.

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
        self.cond = _cond_of(field, rows)
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
        return b[:r], self.cond, 0.0


class _FloatFactor:
    """The Householder QR factorization, in the field, of A with its rows
    and then its columns scaled to a largest modulus of 1."""

    def __init__(self, field, rows):
        import numpy as np

        # a zero row or column keeps its scale
        self.rs = [max(map(abs, row)) or 1 for row in rows]
        a2 = [[x / r for x in row] for row, r in zip(rows, self.rs)]
        self.cs = [max(map(abs, col)) or 1 for col in zip(*a2)]
        self.a3 = [[x / c for x, c in zip(row, self.cs)] for row in a2]
        a = [list(col) for col in zip(*self.a3)]  # worked on by columns
        # per column k, the reflector I - beta v v^H on rows k.. that takes
        # the column to -phase alpha e_1, its phase that of the pivot
        self.reflectors = []
        for k, col in enumerate(a):
            x0 = col[k]
            alpha = sum(t.real * t.real + t.imag * t.imag
                        for t in col[k:]) ** 0.5
            if not alpha > 0:  # zero or nan: R's rank test fails
                col[k] = alpha
                continue
            ax0 = abs(x0)
            phase = x0 / ax0 if ax0 else field.one
            v = [x0 + phase * alpha] + col[k + 1:]
            vh = [t.conjugate() for t in v]
            beta = 1 / (alpha * (alpha + ax0))
            col[k] = -phase * alpha
            for cj in a[k + 1:]:
                s = sum(map(mul, vh, cj[k:])) * beta
                cj[k:] = [y - s * t for y, t in zip(cj[k:], v)]
            self.reflectors.append((k, v, vh, beta))
        self.r = [col[:j + 1] for j, col in enumerate(a)]  # R, by columns
        top = max(field.abs(x) for col in self.r for x in col)
        self.full_rank = all(field.abs(col[-1]) > resolution(field) * top
                             for col in self.r)
        # the scaling bounds R's entries, so its snapshot cannot overflow
        r = np.triu(_snapshot(field, [col[:len(a)] for col in a]).T)
        sv = (np.linalg.svd(r, compute_uv=False) if np.isfinite(r).all()
              else [1.0, 0.0])
        self.cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")

    def solve(self, rhs, residual_tol=1e-9):
        cond, ncols = self.cond, len(self.r)
        if not self.full_rank:
            raise RankDeficiencyError(
                f"rank-deficient recovery stage: {ncols} unknowns, "
                f"condition number {cond:.3e}"
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
        return [t / c for t, c in zip(x3, self.cs)], cond, rnorm


def poly_roots(field, monic_tail):
    """Roots of z^r + c_{r-1} z^{r-1} + ... + c_0 on a float field: numpy on
    doubles, mpmath's ``polyroots`` above, at twice the field's precision
    (``extraprec``), without which roots that spread over many decades,
    such as E and 1/E with E = 1e12/7, are not found in ``_MP_ROOT_STEPS``.
    """
    r = len(monic_tail)
    mp = field._mp
    if mp is None:
        import numpy as np

        coeffs = [1.0] + [field.to_complex(c) for c in reversed(monic_tail)]
        return [complex(z) for z in np.roots(coeffs)]
    coeffs = [field.one] + list(reversed(list(monic_tail)))
    try:
        return list(mp.polyroots([mp.mpc(c) for c in coeffs],
                                 maxsteps=_MP_ROOT_STEPS,
                                 extraprec=field.precision))
    except mp.NoConvergence:
        raise ConvergenceError(
            f"mpmath polyroots found no roots of the degree-{r} "
            f"polynomial in maxsteps={_MP_ROOT_STEPS} steps"
        ) from None
