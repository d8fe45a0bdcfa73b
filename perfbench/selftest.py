"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in a few minutes:

* BENCHMARK.json names the workloads and metrics that run.py and
  tracing.py produce, with the same units;
* a corrupted output of every workload is counted as a failed op and
  lowers ``success_ratio``, while the untouched output passes;
* a short run of every workload, untraced and traced, prints every metric
  with its unit and sample count, and a last line holding all of them;
* without the program's source the benchmark exits non-zero and prints
  no result.

Exits 0 when every check passes.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run
import tracing

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402

METRIC_LINE = re.compile(
    r"^metric (?P<name>\S+) = (?P<value>\S+) (?P<unit>\S+) "
    r"\((?P<samples>.*\d.*)\)$")


def check(cond, message):
    if not cond:
        raise AssertionError(message)
    print(f"ok: {message}")


def check_manifest():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        manifest = json.load(fh)
    names = [w["name"] for w in manifest["workloads"]]
    check(names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS),
          "BENCHMARK.json, run.py and workloads.py list the same workloads")
    e2e = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    check(e2e == run.E2E_UNITS, "end-to-end metrics and units agree")
    layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    check(layer == tracing.PER_LAYER_UNITS, "per-layer metrics and units agree")
    return e2e, layer


# -- corrupted outputs ----------------------------------------------------------

def _failed_exit(op, output):
    return (3,) + tuple(output[1:])


def _bump_forward_identity(op, output):
    with open(op.out_path) as fh:
        doc = json.load(fh)
    for term in doc["coefficients"]["5"]["terms"]:
        if term["z"] == 0 and term["h"] == 0:
            term["re"] = str(Fraction(term["re"]) + Fraction(1, 10 ** 12))
    with open(op.out_path, "w") as fh:
        json.dump(doc, fh)
    return output


def _bump_twist(op, output):
    with open(op.out_path) as fh:
        report = json.load(fh)
    entry = next(t for t in report["p"] if sum(t["m"]) == 2)
    entry["re"] = repr(float(entry["re"]) + 1e-7)
    with open(op.out_path, "w") as fh:
        json.dump(report, fh)
    return output


def _bump_jet(op, output):
    rc, text, recovered = output
    key = next(iter(recovered.a_jets))
    recovered.a_jets[key] = recovered.a_jets[key] + workloads.FR.from_rational(
        Fraction(1, 10 ** 9))
    return rc, text, recovered


CORRUPTIONS = {
    "exact-n1-roundtrip": [_failed_exit],
    "float-n2-roundtrip": [_failed_exit],
    "exact-n2-forward": [_failed_exit, _bump_forward_identity],
    "classical-pairing": [_failed_exit, _bump_twist, _bump_jet],
}


def check_corruption(workdir):
    for name, corruptions in CORRUPTIONS.items():
        wl = workloads.WORKLOADS[name](7, workdir)
        samples = run.measure(wl, 0)
        check(samples[0].ok, f"{name}: an untouched output passes its check")
        for corrupt in corruptions:
            samples = run.measure(wl, 0, corrupt=corrupt)
            metrics = run.end_to_end(samples, [(1.0, 1.0)])
            check(not samples[0].ok and metrics["success_ratio"][0] == 0.0,
                  f"{name}: {corrupt.__name__} is counted as a failure")


# -- printed metrics ------------------------------------------------------------

def run_bench(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=600)


def check_printed(e2e, layer):
    for name in run.WORKLOAD_NAMES:
        for trace, wanted in (("0", e2e), ("1", layer)):
            proc = run_bench(["--workload", name, "--seed", "3",
                              "--seconds", "1", "--trace", trace], run.ROOT)
            check(proc.returncode == 0, f"{name} trace {trace}: exit 0")
            lines = proc.stdout.strip().splitlines()
            printed = {}
            for line in lines[:-1]:
                m = METRIC_LINE.match(line)
                if m:
                    printed[m["name"]] = m["unit"]
            check(printed == wanted, f"{name} trace {trace}: every metric "
                  "printed with its unit and sample count")
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["attempted"] >= 1
                  and {k: v["unit"] for k, v in result["metrics"].items()}
                  == wanted, f"{name} trace {trace}: last line holds them all")


def check_without_source():
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(["--workload", run.WORKLOAD_NAMES[0], "--seed", "1",
                          "--seconds", "1", "--trace", "0"], bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without the program source: non-zero exit, no result")
    finally:
        shutil.rmtree(bare)


def main():
    e2e, layer = check_manifest()
    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        check_corruption(workdir)
    finally:
        shutil.rmtree(workdir)
    check_without_source()
    check_printed(e2e, layer)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
