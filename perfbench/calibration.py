"""Host-speed calibration for the bnftrace benchmark.

On a shared host the same op can take 3 s in one minute and 6 s in the
next, and CPU time moves with wall time, so the cause is the host and not
the scheduler.  Raw op times then spread by 30-50% between runs.  Every
timed interval is therefore bracketed by a fixed chunk of pure-Python work,
and timings are reported in reference seconds:

    t_ref = t_wall * REF_CHUNK_S / mean(chunk before, chunk after)

that is, the time the interval would have taken on a host where one chunk
takes REF_CHUNK_S.  The chunk is benchmark code -- sparse products of
truncated polynomials with Fraction coefficients, the program's own style
of work -- so it does not change when the program does.
"""

import time
from fractions import Fraction

CHUNK_REPS = 60
# one chunk on an unloaded 2.1 GHz Xeon core of the reference sandbox
REF_CHUNK_S = 0.075
_DEGREE = 6
_POLY = {(i, j): Fraction(i + 2 * j + 1, 3 + i * j)
         for i in range(_DEGREE + 1) for j in range(_DEGREE + 1 - i)}


def _mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            i, j = i1 + i2, j1 + j2
            if i + j > _DEGREE:
                continue
            v = c1 * c2
            out[(i, j)] = out[(i, j)] + v if (i, j) in out else v
    return out


def chunk():
    """Wall seconds of one calibration chunk."""
    t0 = time.perf_counter()
    for _ in range(CHUNK_REPS):
        _mul(_mul(_POLY, _POLY), _POLY)
    return time.perf_counter() - t0


def scale(before, after):
    """Factor from wall seconds to reference seconds for an interval
    bracketed by chunks of ``before`` and ``after`` seconds."""
    return REF_CHUNK_S / ((before + after) / 2)
