"""Small field-generic linear algebra used by the recovery stages.

The float backend goes through numpy least squares (with the condition
number read off the singular values).  The exact backend runs plain
Gauss-Jordan elimination on the augmented system and then *verifies* the
remaining equations, which is exact least squares for consistent
overdetermined systems -- the only kind a correct recovery stage produces.
A float snapshot of the matrix always supplies the reported condition
number, purely as a diagnostic.
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
    m = len(rows)
    if m == 0:
        raise RankDeficiencyError("empty linear system")
    ncols = len(rows[0])
    if m < ncols:
        raise RankDeficiencyError(
            f"underdetermined recovery stage: {ncols} unknowns need at least "
            f"{ncols} trace powers, have {m}"
        )
    cond = _cond_of(field, rows)

    if not field.exact and field.name == "float" and getattr(field, "_mp", None) is None:
        a = np.array([[field.to_complex(x) for x in row] for row in rows],
                     dtype=complex)
        b = np.array([field.to_complex(x) for x in rhs], dtype=complex)
        # equilibrate rows then columns; removes the geometric k-decay of the
        # csch entries, which otherwise dominates the condition number
        rs = np.max(np.abs(a), axis=1)
        rs[rs == 0] = 1.0
        a2 = a / rs[:, None]
        b2 = b / rs
        cs = np.max(np.abs(a2), axis=0)
        cs[cs == 0] = 1.0
        a3 = a2 / cs[None, :]
        # explicit tiny cutoff: ill-conditioned systems are solved and
        # reported, only near-exact rank collapse is an error here
        sol3, _res, rank, sv = np.linalg.lstsq(a3, b2, rcond=1e-14)
        if rank < ncols:
            raise RankDeficiencyError(
                f"rank-deficient recovery stage: rank {rank} < {ncols} unknowns"
            )
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
        resid = a3 @ sol3 - b2
        scale = max(1.0, float(np.max(np.abs(b2))))
        rnorm = float(np.max(np.abs(resid))) / scale
        if rnorm > residual_tol:
            raise RankDeficiencyError(
                f"inconsistent linear system: residual {rnorm:.3e} "
                f"exceeds {residual_tol:.1e}"
            )
        sol = sol3 / cs
        return [complex(v) for v in sol], cond, rnorm

    if not field.exact:
        # extended precision: genuine least squares via normal equations on
        # row-normalized data (the precision absorbs the squared condition)
        arows = []
        brow = []
        for i, row in enumerate(rows):
            big = max((field.abs(x) for x in row), default=0.0)
            if big > 0:
                inv = field.inv(field.one * big)
                arows.append([x * inv for x in row])
                brow.append(rhs[i] * inv)
            else:
                arows.append(list(row))
                brow.append(rhs[i])
        G = [[field.zero] * ncols for _ in range(ncols)]
        g = [field.zero] * ncols
        for t in range(m):
            for i in range(ncols):
                ci = field.conj(arows[t][i])
                g[i] = g[i] + ci * brow[t]
                for j in range(ncols):
                    G[i][j] = G[i][j] + ci * arows[t][j]
        x = _eliminate_square(field, G, g)
        worst = 0.0
        for t in range(m):
            v = sum((arows[t][j] * x[j] for j in range(ncols)), field.zero)
            worst = max(worst, field.abs(v - brow[t]))
        if worst > residual_tol:
            raise RankDeficiencyError(
                f"inconsistent linear system: residual {worst:.3e}"
            )
        return x, cond, worst

    # exact path: Gauss-Jordan + verification of the leftover equations
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    piv_rows = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, m):
            if not field.is_zero(aug[i][col]):
                pivot = i
                break
        if pivot is None:
            raise RankDeficiencyError(
                f"rank-deficient recovery stage at column {col}: "
                f"{ncols} unknowns"
            )
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = field.inv(aug[r][col])
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and not field.is_zero(aug[i][col]):
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        piv_rows.append(r)
        r += 1
    x = [aug[i][ncols] for i in piv_rows]
    for i in range(r, m):
        if not field.is_zero(aug[i][ncols]):
            raise RankDeficiencyError(
                "inconsistent linear system on the exact backend"
            )
    return x, cond, 0.0


def _eliminate_square(field, G, g):
    n = len(g)
    aug = [list(G[i]) + [g[i]] for i in range(n)]
    for col in range(n):
        pivot = None
        best = -1.0
        for i in range(col, n):
            mag = field.abs(aug[i][col])
            if mag > best:
                best = mag
                pivot = i
        if pivot is None or best == 0.0:
            raise RankDeficiencyError(
                f"rank-deficient normal equations at column {col}"
            )
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = field.inv(aug[col][col])
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col:
                factor = aug[i][col]
                if field.abs(factor) > 0:
                    aug[i] = [x - factor * y
                              for x, y in zip(aug[i], aug[col])]
    return [aug[i][n] for i in range(n)]


def poly_roots(field, monic_tail):
    """Roots of z^r + c_{r-1} z^{r-1} + ... + c_0, coefficients in the field.

    Float backend: numpy.  Exact backend: closed forms through degree 2
    (enough for the n = 1 exponential fixtures, where exactness is claimed).
    """
    r = len(monic_tail)
    if not field.exact:
        if getattr(field, "_mp", None) is not None:
            mp = field._mp
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
