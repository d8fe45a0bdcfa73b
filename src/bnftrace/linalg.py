"""Small field-generic linear algebra used by the recovery stages.

A least-squares system is factored once (``factor_lstsq``) and then solved
for any number of right-hand sides; ``solve_lstsq`` is one factorization
and one solve.  Every solve runs its own consistency or residual test.

Float systems, double or extended precision, take one path: the
factorization equilibrates a double snapshot of the matrix once, by rows
and then by columns, which removes the geometric k-decay of the csch
entries that otherwise dominates the condition number; the condition
number is read off that equilibrated matrix, and each solution passes one
residual test.  Only the solve differs by precision: numpy least squares
on the kept equilibrated doubles (its SVD gives the condition number),
mpmath's ``lu_solve`` on the same equilibration at full precision, built
once, which for a non-square matrix solves the normal equations.

The exact backend runs plain Gauss-Jordan elimination on the matrix,
recording its row operations, and each solve replays them on b and then
*verifies* the remaining equations, which is exact least squares for
consistent overdetermined systems -- the only kind a correct recovery
stage produces.  There a float snapshot of the raw matrix supplies the
reported condition number, purely as a diagnostic.
"""

import numpy as np

from .errors import ConvergenceError, RankDeficiencyError

# iteration cap of mpmath's polyroots on extended-precision fields
_MP_ROOT_STEPS = 200


def _cond_of(field, rows):
    a = np.array([[field.to_complex(x) for x in row] for row in rows],
                 dtype=complex)
    if a.size == 0:
        return float("inf")
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] == 0:
        return float("inf")
    return float(s[0] / s[-1])


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
    """The equilibrated double snapshot of A and, on mpmath fields, the
    equilibrated full-precision A with its condition number."""

    def __init__(self, field, rows):
        self.field = field
        a = np.array([[field.to_complex(x) for x in row] for row in rows],
                     dtype=complex)
        # a zero or subnormal scale would overflow numpy's complex division
        tiny = np.finfo(float).tiny
        rs = np.max(np.abs(a), axis=1)
        rs[rs < tiny] = 1.0
        a2 = a / rs[:, None]
        cs = np.max(np.abs(a2), axis=0)
        cs[cs < tiny] = 1.0
        self.a3 = a2 / cs[None, :]
        self.rs, self.cs = rs, cs
        mp = self.mp = field._mp
        if mp is not None:
            sv = np.linalg.svd(self.a3, compute_uv=False)
            self.cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
            # not qr_solve: with mpmath 1.3 its Householder step can divide
            # by zero on a well-conditioned matrix with a purely imaginary
            # column
            self.A3 = mp.matrix([[x / r / c for x, c in zip(row, cs.tolist())]
                                 for row, r in zip(rows, rs.tolist())])

    def solve(self, rhs, residual_tol=1e-9):
        field, mp, rs, cs = self.field, self.mp, self.rs, self.cs
        ncols = len(cs)
        b = np.array([field.to_complex(x) for x in rhs], dtype=complex)
        b2 = b / rs
        if mp is None:
            # explicit tiny cutoff: ill-conditioned systems are solved and
            # reported, only near-exact rank collapse is an error here
            x3, _res, rank, sv = np.linalg.lstsq(self.a3, b2, rcond=1e-14)
            resid = self.a3 @ x3 - b2 if rank == ncols else None
            cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
        else:
            cond = self.cond
            B2 = mp.matrix([y / r for y, r in zip(rhs, rs.tolist())])
            try:
                x3 = mp.lu_solve(self.A3, B2)
                resid = self.A3 * x3 - B2
            except (ValueError, ZeroDivisionError):  # numerically singular
                resid = None
        if resid is None:
            raise RankDeficiencyError(
                f"rank-deficient recovery stage: {ncols} unknowns, "
                f"condition number {cond:.3e}"
            )
        scale = max(1.0, float(np.max(np.abs(b2))))
        rnorm = float(max(abs(v) for v in resid)) / scale
        if not rnorm <= residual_tol:
            raise RankDeficiencyError(
                f"inconsistent linear system: residual {rnorm:.3e} "
                f"exceeds {residual_tol:.1e}"
            )
        x = [x3[j] / c for j, c in enumerate(cs.tolist())]
        return ([complex(v) for v in x] if mp is None else x), cond, rnorm


def poly_roots(field, monic_tail):
    """Roots of z^r + c_{r-1} z^{r-1} + ... + c_0, coefficients in the field.

    Float backend: numpy.  Exact backend: closed forms through degree 2
    (enough for the n = 1 exponential fixtures, where exactness is claimed).
    """
    r = len(monic_tail)
    if not field.exact:
        mp = field._mp
        if mp is not None:
            coeffs = [field.one] + list(reversed(list(monic_tail)))
            try:
                return list(mp.polyroots([mp.mpc(c) for c in coeffs],
                                         maxsteps=_MP_ROOT_STEPS))
            except mp.NoConvergence:
                raise ConvergenceError(
                    f"mpmath polyroots found no roots of the degree-{r} "
                    f"polynomial in maxsteps={_MP_ROOT_STEPS} steps"
                ) from None
        coeffs = [1.0] + [field.to_complex(c) for c in reversed(monic_tail)]
        return [complex(z) for z in np.roots(coeffs)]
    if r == 1:
        return [-monic_tail[0]]
    if r == 2:
        c0, c1 = monic_tail
        disc = c1 * c1 - field.from_int(4) * c0
        s = field.sqrt(disc)
        half = field.inv(field.from_int(2))
        return [(-c1 + s) * half, (-c1 - s) * half]
    raise RankDeficiencyError(
        "exact root extraction is only provided through degree 2 "
        "(n = 1 exponential fixtures); use the float backend"
    )
