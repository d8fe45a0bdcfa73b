"""Outside-in layer tracing for the bnftrace benchmark.

Spans are recorded around calls into each layer's public functions and
methods, by wrapping them from here; the program's source is not edited.
A function that another module imported by name (``recover.trace_power``,
``cli.recover_qbnf``, ...) is rebound in every ``bnftrace`` module that
holds it, so inner calls do not escape the trace.

Spans (name, start, end, parent) are kept in memory and written out when
the run ends.  Only calls made while an op is open are recorded, so input
generation and correctness checks stay out of the trace.

Scalar field operations are far too many to span (~190k products per exact
round trip).  They are counted in a separate counting pass that wraps the
``RationalComplex`` dunders, and a fixed-size sample of their operand
pairs is replayed afterwards to time one product and one sum in isolation.
"""

import functools
import json
import os
import random
import statistics
import sys
import time
from contextlib import contextmanager

# (span name, module, owner class or None, attribute)
LAYER_FUNCTIONS = [
    ("series.mul", "series", "MultiSeries", "__mul__"),
    ("series.exp", "series", "MultiSeries", "exp_series"),
    ("hypcalc.derive", "hypcalc", None, "apply_derivatives"),
    ("hypcalc.zeval", "hypcalc", None, "eval_series_in_z"),
    ("hypcalc.csch_eval", "hypcalc", None, "eval_csch"),
    ("blocks.nonresonance", "blocks", None, "nonresonance_witness"),
    ("qbnf.trace_power", "qbnf", None, "trace_power"),
    ("qbnf.make_trace_data", "qbnf", None, "make_trace_data"),
    ("recover.qbnf", "recover", None, "recover_qbnf"),
    ("recover.frequencies", "recover", None, "recover_frequencies"),
    ("recover.polynomial", "recover", None, "recover_polynomial"),
    ("linalg.solve", "linalg", None, "solve_lstsq"),
    ("linalg.roots", "linalg", None, "poly_roots"),
    ("classical.bnf", "classical", None, "birkhoff_normal_form"),
    ("classical.linear_normalize", "classical", None, "linear_normalize"),
    ("phasepoly.compose", "phasepoly", "PolyMap", "compose"),
    ("phasepoly.mul", "phasepoly", "PhasePoly", "__mul__"),
    ("phasepoly.exp_ham", "phasepoly", None, "exp_ham"),
    ("oscillatory.extract", "oscillatory", None, "extract_jets"),
    ("oscillatory.forward_pairing", "oscillatory", None, "forward_pairing"),
    ("jsonio.load", "jsonio", None, "load"),
    ("jsonio.dump", "jsonio", None, "dump"),
    ("cli.main", "cli", None, "main"),
]

# per-layer metrics: name -> unit.  "_s" is inclusive seconds per op,
# "_self_s" the span minus its child spans, "_count" calls per op.
PER_LAYER_UNITS = {
    "fields.mul_count": "count",
    "fields.add_count": "count",
    "fields.inv_count": "count",
    "fields.mul_ns": "ns",
    "fields.add_ns": "ns",
    "series.mul_count": "count",
    "series.mul_s": "s",
    "series.exp_count": "count",
    "series.exp_s": "s",
    "series.mul_terms_out": "count",
    "hypcalc.derive_count": "count",
    "hypcalc.derive_s": "s",
    "hypcalc.zeval_count": "count",
    "hypcalc.zeval_s": "s",
    "hypcalc.zeval_distinct_ratio": "ratio",
    "hypcalc.csch_eval_count": "count",
    "hypcalc.csch_eval_s": "s",
    "blocks.nonresonance_s": "s",
    "qbnf.trace_power_count": "count",
    "qbnf.trace_power_s": "s",
    "qbnf.trace_power_self_s": "s",
    "qbnf.make_trace_data_s": "s",
    "recover.qbnf_s": "s",
    "recover.qbnf_self_s": "s",
    "recover.forward_calls": "count",
    "recover.frequencies_s": "s",
    "recover.polynomial_count": "count",
    "recover.polynomial_s": "s",
    "recover.max_cond": "ratio",
    "recover.max_rel_err": "ratio",
    "linalg.solve_count": "count",
    "linalg.solve_s": "s",
    "linalg.roots_s": "s",
    "classical.bnf_s": "s",
    "classical.bnf_self_s": "s",
    "classical.linear_normalize_s": "s",
    "phasepoly.compose_count": "count",
    "phasepoly.compose_s": "s",
    "phasepoly.mul_count": "count",
    "phasepoly.mul_s": "s",
    "phasepoly.exp_ham_s": "s",
    "oscillatory.extract_s": "s",
    "oscillatory.extract_self_s": "s",
    "oscillatory.forward_pairing_count": "count",
    "oscillatory.forward_pairing_s": "s",
    "jsonio.load_s": "s",
    "jsonio.dump_s": "s",
    "jsonio.bytes_out": "bytes",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

OP_SPAN = "op"
SAMPLE_PAIRS = 2048
REPLAY_REPEATS = 5


class Tracer:
    """Span recorder plus the observations the counting pass needs."""

    def __init__(self, seed):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.op_roots = []       # root span index of each op, in order
        self.installed = []      # (owner, attribute, original)
        self.counters = []       # same, for the field counters
        self.fields = {"mul": 0, "add": 0, "inv": 0}
        self.samples = {"mul": [], "add": []}
        self.counting = False
        self.field_ops = {}      # kind -> unwrapped function, for replay
        self._sample_rng = random.Random(f"operand-sample/{seed}")
        self.zeval_keys = set()
        self.mul_terms_out = 0
        self.bytes_out = 0
        self.reports = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every layer function and rebind it wherever it was imported."""
        for span, modname, cls, attr in LAYER_FUNCTIONS:
            module = sys.modules[f"bnftrace.{modname}"]
            owner = getattr(module, cls) if cls else module
            original = getattr(owner, attr)
            wrapped = self._wrap(span, original)
            _set(self.installed, owner, attr, original, wrapped)
            if cls is None:
                for other in _bnftrace_modules():
                    if other is not module and vars(other).get(attr) is original:
                        _set(self.installed, other, attr, original, wrapped)

    def install_field_counters(self):
        """Count RationalComplex products, sums and divisions made inside
        an op, and keep a seeded reservoir sample of the operand pairs."""
        from bnftrace.fields import RationalComplex

        for kind, attrs in (("mul", ("__mul__", "__rmul__")),
                            ("add", ("__add__", "__radd__")),
                            ("inv", ("__truediv__",))):
            for attr in attrs:
                original = vars(RationalComplex)[attr]
                self.field_ops.setdefault(kind, original)
                _set(self.counters, RationalComplex, attr, original,
                     self._counter(kind, original))

    def remove_field_counters(self):
        _restore(self.counters)

    def uninstall(self):
        _restore(self.counters)
        _restore(self.installed)

    def _wrap(self, name, fn):
        tracer = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer.stack[-1]]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if observe is not None and tracer.counting:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def _counter(self, kind, fn):
        tracer = self
        fields = self.fields
        sample = self.samples.get(kind)
        rng = self._sample_rng

        def counted(a, b):
            if tracer.stack:
                fields[kind] += 1
                if sample is not None:
                    seen = fields[kind]
                    if seen <= SAMPLE_PAIRS:
                        sample.append((a, b))
                    else:
                        j = rng.randrange(seen)
                        if j < SAMPLE_PAIRS:
                            sample[j] = (a, b)
            return fn(a, b)

        return counted

    # -- ops -------------------------------------------------------------------

    @contextmanager
    def op(self, label):
        """Open the root span of one op."""
        idx = len(self.spans)
        span = [f"{OP_SPAN}:{label}", 0.0, 0.0, -1]
        self.spans.append(span)
        self.op_roots.append(idx)
        self.stack.append(idx)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def _set(log, owner, attr, original, replacement):
    log.append((owner, attr, original))
    setattr(owner, attr, replacement)


def _restore(log):
    for owner, attr, original in reversed(log):
        setattr(owner, attr, original)
    log.clear()


def _bnftrace_modules():
    return [m for name, m in list(sys.modules.items())
            if name.startswith("bnftrace.") and m is not None]


def _poly_key(expr):
    return (expr.k, tuple(sorted(expr.poly.items())))


def _series_key(s):
    if s is None:
        return None
    return (s.orders, tuple(sorted(s.terms.items())))


def _observe_zeval(tracer, args, kwargs, result):
    expr, exp_half0, deltas, n_z = args[:4]
    tracer.zeval_keys.add((
        _poly_key(expr), tuple(exp_half0),
        None if deltas is None else tuple(_series_key(d) for d in deltas),
        n_z))


def _observe_series_mul(tracer, args, kwargs, result):
    tracer.mul_terms_out += len(result.terms)


def _observe_dump(tracer, args, kwargs, result):
    tracer.bytes_out += os.path.getsize(args[0])


def _observe_recover(tracer, args, kwargs, result):
    tracer.reports.append(result)


_OBSERVERS = {
    "hypcalc.zeval": _observe_zeval,
    "series.mul": _observe_series_mul,
    "jsonio.dump": _observe_dump,
    "recover.qbnf": _observe_recover,
}


# -- analysis ----------------------------------------------------------------

def _op_subtrees(spans):
    """Map op root index -> list of span indices below it (inclusive)."""
    owner = {}
    trees = {}
    for i, (name, _s, _e, parent) in enumerate(spans):
        root = i if parent < 0 else owner[parent]
        owner[i] = root
        trees.setdefault(root, []).append(i)
    return trees


def per_op_totals(spans, members):
    """Inclusive seconds, self seconds and call counts by span name over
    the spans of one op (same-name nesting counted once)."""
    child_time = {}
    for i in members:
        parent = spans[i][3]
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (
                spans[i][2] - spans[i][1])
    incl, self_t, count = {}, {}, {}
    for i in members:
        name, start, end, parent = spans[i]
        dur = end - start
        count[name] = count.get(name, 0) + 1
        self_t[name] = self_t.get(name, 0.0) + dur - child_time.get(i, 0.0)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl[name] = incl.get(name, 0.0) + dur
    return incl, self_t, count


def _count_under(spans, members, name, ancestor):
    n = 0
    for i in members:
        if spans[i][0] != name:
            continue
        p = spans[i][3]
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][3]
        n += p >= 0
    return n


def replay_ns(pairs, fn):
    """Median over repeats of the mean nanoseconds per call of ``fn`` on the
    recorded operand pairs."""
    if not pairs:
        return 0.0
    per_call = []
    for _ in range(REPLAY_REPEATS):
        t0 = time.perf_counter_ns()
        for a, b in pairs:
            fn(a, b)
        per_call.append((time.perf_counter_ns() - t0) / len(pairs))
    return statistics.median(per_call)


def layer_metrics(tracer, count_root, timed_roots, scales, field_ns,
                  overhead_ratio):
    """Per-layer metrics.  Counts come from the counting op; times are the
    median over the traced ops, each scaled to reference seconds by its
    factor in ``scales``; ``field_ns`` holds the replayed scalar costs."""
    spans = tracer.spans
    trees = _op_subtrees(spans)
    _i, _s, counts = per_op_totals(spans, trees[count_root])
    timed = [(per_op_totals(spans, trees[r]), f)
             for r, f in zip(timed_roots, scales)]

    def median_time(which, span):
        return statistics.median(t[which].get(span, 0.0) * f
                                 for t, f in timed)

    out = {}
    for span, _module, _cls, _attr in LAYER_FUNCTIONS:
        if f"{span}_count" in PER_LAYER_UNITS:
            out[f"{span}_count"] = counts.get(span, 0)
        if f"{span}_s" in PER_LAYER_UNITS:
            out[f"{span}_s"] = median_time(0, span)
        if f"{span}_self_s" in PER_LAYER_UNITS:
            out[f"{span}_self_s"] = median_time(1, span)
    out["cli.self_s"] = median_time(1, "cli.main")
    for kind in ("mul", "add", "inv"):
        out[f"fields.{kind}_count"] = tracer.fields[kind]
    for kind, ns in field_ns.items():
        out[f"fields.{kind}_ns"] = ns
    out["series.mul_terms_out"] = tracer.mul_terms_out
    zeval = counts.get("hypcalc.zeval", 0)
    out["hypcalc.zeval_distinct_ratio"] = (
        len(tracer.zeval_keys) / zeval if zeval else 0.0)
    out["recover.forward_calls"] = _count_under(
        spans, trees[count_root], "qbnf.trace_power", "recover.qbnf")
    conds = [c for rep in tracer.reports for c in rep.conditioning.values()]
    out["recover.max_cond"] = max(conds, default=0.0)
    out["recover.max_rel_err"] = max((rep.max_residual
                                      for rep in tracer.reports), default=0.0)
    out["jsonio.bytes_out"] = tracer.bytes_out
    out["trace.overhead_ratio"] = overhead_ratio
    missing = set(PER_LAYER_UNITS) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return out
