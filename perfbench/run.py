"""Benchmark of the bnftrace CLI paths, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in ``perfbench/workloads.py``.  Each run is a closed
loop: one client, one process, one thread, the next op starting when the
previous one has been checked.  Every op gets a fresh input made from the
seed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and sample count, and the machine.

Times are in reference seconds (see ``perfbench/calibration.py``): each op
is bracketed by a fixed calibration chunk, and its wall time is rescaled
to a reference host speed.  The raw wall times are printed alongside.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace
1`` is the separate traced run: one counting op, then traced and untraced
ops in turn, reporting the per-layer metrics of ``perfbench/tracing.py``.
The spans are written to ``.bench_work/`` when the run ends.
"""

import os

# Pin BLAS to one thread before numpy is imported, so linalg starts no more
# threads than the cores it is given.  Set-up children inherit this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import namedtuple  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("exact-n1-roundtrip", "float-n2-roundtrip",
                  "exact-n2-forward", "classical-pairing")
# set-ups per run, each in a fresh interpreter; setup_s is their median
SETUPS = 3
CHILD_TIMEOUT_S = 120
# a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10
E2E_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# one op: reference seconds, wall seconds, output correct
Sample = namedtuple("Sample", "ref wall ok")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once in this process, print its seconds "
                         "and exit (a timed run does this %d times)"
                    % (SETUPS - 1))
    return ap.parse_args(argv)


# -- set-up ---------------------------------------------------------------------

def set_up(name, seed, workdir):
    """Import the program, make the warm-up input and run the warm-up op.

    Returns (workload, reference seconds, wall seconds, warm-up ok).
    """
    before = calibration.chunk()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[name](seed, workdir)
    op = wl.make(-1, warmup=True)
    _dt, output = timed_op(wl, op)
    wall = time.perf_counter() - t0
    after = calibration.chunk()
    ok = output is not None and bool(wl.check(op, output))
    return wl, wall * calibration.scale(before, after), wall, ok


def child_setups(args, count):
    """(reference, wall) seconds of ``count`` set-ups, each in a fresh
    interpreter."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["ok"]:
            raise RuntimeError("warm-up op failed in a set-up child")
        times.append((result["setup_s"], result["wall_s"]))
    return times


# -- ops ------------------------------------------------------------------------

def timed_op(wl, op, around=contextlib.nullcontext):
    """Run one op inside ``around()``; returns (wall seconds, output), the
    output being None when the program raised."""
    t0 = time.perf_counter()
    try:
        with around():
            output = wl.run(op)
    except Exception:  # a crash of the program is a failed op, not ours
        traceback.print_exc(file=sys.stderr)
        output = None
    return time.perf_counter() - t0, output


def measure(wl, seconds, corrupt=None, around=None, first=0, min_ops=1):
    """Closed loop for ``seconds``, each op bracketed by calibration chunks.

    ``corrupt`` (used by the self-test) may alter an output before its
    check, to show that a wrong output is counted as a failure.
    ``around(index)`` gives the context an op runs in (the traced run opens
    the op's root span there).  Returns one Sample per op.
    """
    samples = []
    before = calibration.chunk()
    start = time.perf_counter()
    index = first
    while len(samples) < min_ops or time.perf_counter() - start < seconds:
        op = wl.make(index)
        dt, output = timed_op(wl, op, around(index) if around else
                              contextlib.nullcontext)
        after = calibration.chunk()
        if output is not None and corrupt is not None:
            output = corrupt(op, output)
        ok = output is not None and bool(wl.check(op, output))
        samples.append(Sample(dt * calibration.scale(before, after), dt, ok))
        before = after
        index += 1
    return samples


def tail(values):
    """(value, percentile): the highest nearest-rank percentile with at
    least TAIL_BEYOND samples beyond it, never below the median."""
    xs = sorted(values)
    n = len(xs)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)     # 1-based
    return xs[rank - 1], 100.0 * rank / n


def end_to_end(samples, setups):
    """Metric name -> (value, sample description)."""
    ref = [s.ref for s in samples]
    wall = [s.wall for s in samples]
    ok = sum(1 for s in samples if s.ok)
    n = len(samples)
    tail_ref, pct = tail(ref)
    return {
        "op_p50_s": (statistics.median(ref),
                     f"median of {n} ops; wall {statistics.median(wall):.4f} s"),
        "op_tail_s": (tail_ref,
                      f"p{pct:.0f} of {n} ops; wall {tail(wall)[0]:.4f} s"),
        "ops_per_s": (n / sum(ref),
                      f"{n} ops over their busy time; wall {n / sum(wall):.4f}"),
        "setup_s": (statistics.median(r for r, _w in setups),
                    f"median of {len(setups)} set-ups; wall "
                    f"{statistics.median(w for _r, w in setups):.4f} s"),
        "success_ratio": (ok / n, f"{ok} of {n} ops correct"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "1 process"),
    }


# -- traced run -----------------------------------------------------------------

def traced_run(wl, seconds, seed, span_path):
    """Counting op, then traced and untraced ops in turn."""
    tracer = tracing.Tracer(seed)
    tracer.install()
    tracer.install_field_counters()
    tracer.counting = True
    samples = measure(wl, 0, around=lambda _i: lambda: tracer.op("count"))
    tracer.counting = False
    tracer.remove_field_counters()

    @contextlib.contextmanager
    def untraced():
        tracer.uninstall()
        try:
            yield
        finally:
            tracer.install()

    alternating = measure(
        wl, seconds, first=1, min_ops=2,
        around=lambda i: (lambda: tracer.op("traced")) if i % 2 else untraced)
    tracer.uninstall()
    samples += alternating
    traced = alternating[0::2]
    untraced_ops = alternating[1::2]
    ratio = (statistics.median(s.ref for s in traced)
             / statistics.median(s.ref for s in untraced_ops))
    before = calibration.chunk()
    field_ns = {kind: tracing.replay_ns(tracer.samples[kind],
                                        tracer.field_ops.get(kind))
                for kind in ("mul", "add")}
    replay_scale = calibration.scale(before, calibration.chunk())
    metrics = tracing.layer_metrics(
        tracer, tracer.op_roots[0], tracer.op_roots[1:],
        [s.ref / s.wall for s in traced],
        {kind: ns * replay_scale for kind, ns in field_ns.items()}, ratio)
    tracer.write(span_path)

    def described(name):
        if name.endswith("_s"):
            return f"median of {len(traced)} traced ops"
        if name.endswith("_ns"):
            kind = name.split(".")[1].split("_")[0]
            return f"{len(tracer.samples[kind])} replayed operand pairs"
        if name == "trace.overhead_ratio":
            return f"{len(traced)} traced / {len(untraced_ops)} untraced ops"
        return "1 counting op"

    return samples, {name: (value, described(name))
                     for name, value in metrics.items()}


# -- machine --------------------------------------------------------------------

def machine():
    import mpmath
    import numpy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# -- main -----------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bnftrace" / "__init__.py").is_file():
        print(f"error: the program source {SRC / 'bnftrace'} is missing; "
              "run from the root of a bnftrace checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.setup_only:
            _wl, ref, wall, ok = set_up(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": ref, "wall_s": wall, "ok": ok}))
            return 0
        setups = [] if args.trace else child_setups(args, SETUPS - 1)
        wl, ref, wall, warm_ok = set_up(args.workload, args.seed, workdir)
        setups.append((ref, wall))
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            samples, detail = traced_run(wl, args.seconds, args.seed,
                                         WORK / f"spans-{stem}.json")
            units = tracing.PER_LAYER_UNITS
        else:
            samples = measure(wl, args.seconds)
            detail = end_to_end(samples, setups)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for s in samples if not s.ok)
    env = machine()
    print("machine: " + json.dumps(env, sort_keys=True))
    for name, (value, described) in detail.items():
        print(f"metric {name} = {value!r} {units[name]} ({described})")
    summary = {
        "correct": warm_ok and failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _d) in detail.items()},
    }
    with open(WORK / f"result-{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "machine": env,
                   "samples": {n: d for n, (_v, d) in detail.items()},
                   "op_wall_s": [s.wall for s in samples],
                   "op_ref_s": [s.ref for s in samples],
                   **summary}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(summary, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
