"""Seeded workloads of the bnftrace benchmark.

Each workload turns ``(seed, index)`` into one op input: the JSON file the
``bnftrace`` CLI reads, plus whatever the correctness check needs.  The
same seed always gives the same inputs, and no two ops of a run share an
input.  Ops run the public entry points in-process: ``bnftrace.cli.main``
and, for the pairing half of ``classical-pairing``,
``bnftrace.oscillatory.extract_jets``.

Every workload has two sizes: ``FULL`` for the timed ops and ``WARMUP``
for the warm-up op of a set-up, which runs the same command and code
paths on a reduced input at a fraction of the cost.

Correctness checks do not trust the program's own parsers where an
independent check is cheap: the exact forward identity is verified with
``fractions.Fraction`` arithmetic on the raw JSON strings.
"""

import cmath
import contextlib
import io
import itertools
import json
import math
import os
import random
from collections import namedtuple
from fractions import Fraction

from bnftrace import cli, jsonio, oscillatory
from bnftrace.blocks import ELLIPTIC, REAL_HYPERBOLIC, SpectrumBlocks
from bnftrace.classical import (TaylorMap, iota_real_to_complex,
                                normal_form_flow)
from bnftrace.fields import FloatField, RationalField
from bnftrace.oscillatory import OrbitExpansion, TestJet, forward_pairing
from bnftrace.phasepoly import PhasePoly, exp_ham
from bnftrace.qbnf import QuantumBNF
from bnftrace.series import MultiSeries, Orders, zseries

FR = RationalField()
FF = FloatField()

# CLI truncation orders (iota, z, h) and number of trace powers
TraceSize = namedtuple("TraceSize", "orders k_max")
# map degree, normal-form iota degree, pairing order
ClassicalSize = namedtuple("ClassicalSize", "map_degree bnf_degree order")


class OpInput:
    """One op: the CLI argument vector and the data its check compares to."""

    __slots__ = ("argv", "expected", "out_path", "extra")

    def __init__(self, argv, expected, out_path=None, extra=None):
        self.argv = argv
        self.expected = expected
        self.out_path = out_path
        self.extra = extra


def _rng(name, seed, index, salt=0):
    # str seeds go through sha512 in random.seed, so they do not depend
    # on PYTHONHASHSEED
    return random.Random(f"{name}/{seed}/{index}/{salt}")


def _small_rational(rng, num=9, den=9):
    p = 0
    while p == 0:
        p = rng.randint(-num, num)
    return Fraction(p, rng.randint(1, den))


def _run_cli(argv):
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _orders_arg(orders):
    return ",".join(str(o) for o in orders)


class Workload:
    """Base class: subclasses draw inputs, and check outputs.  Why each
    workload was chosen is recorded in BENCHMARK.json."""

    name = ""
    FULL = WARMUP = None

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self._seen = set()

    def make(self, index, warmup=False):
        """Input of op ``index``; redraws until it differs from every
        input made before in this run."""
        size = self.WARMUP if warmup else self.FULL
        for salt in itertools.count():
            op, key = self._draw(_rng(self.name, self.seed, index, salt),
                                 index, size)
            if key not in self._seen:
                self._seen.add(key)
                return op

    def path(self, index, stem):
        return os.path.join(self.workdir, f"{self.name}-{index}-{stem}.json")

    def run(self, op):
        """Execute the op; returns the output the check reads."""
        return _run_cli(op.argv)

    def check(self, op, output):
        """True when the op succeeded and its output is right."""
        raise NotImplementedError


class Roundtrip(Workload):
    """``bnftrace roundtrip``: the CLI compares the recovered normal form
    with its input (bit-exact on rationals, within 1e-8 on floats) and
    exits 0 only when they agree."""

    def roundtrip_op(self, index, size, blocks, jets, terms):
        """The op for F = ``terms`` cut to what traces of ``size`` can
        recover: orders ``size.orders`` and l + |alpha| <= N_h + 1."""
        n_h = size.orders[2]
        terms = {key: c for key, c in terms.items()
                 if key[2] + sum(key[0]) <= n_h + 1}
        F = MultiSeries(blocks.field, blocks.n, Orders(*size.orders), terms)
        doc = jsonio.qbnf_to_json(QuantumBNF(blocks, jets, F))
        path = self.path(index, "bnf")
        jsonio.dump(path, doc)
        argv = ["roundtrip", "--bnf", path, "--orders",
                _orders_arg(size.orders), "--kmax", str(size.k_max)]
        return OpInput(argv, None), json.dumps(doc, sort_keys=True)

    def check(self, op, output):
        rc, text = output
        return rc == 0 and "round trip ok" in text


# -- exact-n1-roundtrip -------------------------------------------------------

EXP_HALF_N1 = [Fraction(2), Fraction(3), Fraction(3, 2), Fraction(5, 2),
               Fraction(5, 3)]
# Supports are fixed and only the values are drawn, so that every op of a
# workload does the same amount of series work and run-to-run spread comes
# from the host, not from the input mix.  The n=1 support is rt1's plus one
# z- and one h^2-term, all recoverable from traces of orders (z 3, h 3).
_N1_SUPPORT = [((2,), 0, 0), ((1,), 0, 1), ((0,), 0, 1), ((2,), 1, 1),
               ((0,), 2, 2)]


class ExactN1Roundtrip(Roundtrip):
    """Round trip of a rational n=1 real-hyperbolic normal form."""

    name = "exact-n1-roundtrip"
    FULL = TraceSize((4, 3, 3), 8)
    WARMUP = TraceSize((2, 1, 1), 6)     # n=1 Prony needs k_max >= 6

    def _draw(self, rng, index, size):
        # stratified: every block of five consecutive ops sees each E once,
        # so the per-run mix of exponents (and of op costs) is balanced
        block = random.Random(f"{self.name}/{self.seed}/perm/{index // 5}")
        E = block.sample(EXP_HALF_N1, 5)[index % 5]
        q = _small_rational(rng, 3, 5)
        terms = {key: FR.from_rational(_small_rational(rng))
                 for key in _N1_SUPPORT}
        blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_rational(E)])
        jet = zseries(FR, size.orders[1], {1: FR.one, 2: FR.from_rational(q)})
        return self.roundtrip_op(index, size, blocks, [jet], terms)


# -- float-n2-roundtrip ------------------------------------------------------

class FloatN2Roundtrip(Roundtrip):
    """Round trip of a float n=2 normal form (rh mu = ln 3, elliptic
    theta = 1) whose F and exponents depend on z."""

    name = "float-n2-roundtrip"
    FULL = TraceSize((3, 2, 2), 14)
    WARMUP = TraceSize((2, 1, 1), 10)    # n=2 Prony needs k_max >= 10

    def _draw(self, rng, index, size):
        blocks = SpectrumBlocks(FF, [REAL_HYPERBOLIC, ELLIPTIC],
                                [cmath.exp(0.5 * math.log(3)),
                                 cmath.exp(0.5j)])
        terms = {}
        for l in range(3):
            for a1 in range(4):
                for a2 in range(4):
                    deg = a1 + a2 + l
                    if deg > 3 or deg < 1 or (l == 0 and a1 + a2 < 2):
                        continue
                    terms[((a1, a2), 0, l)] = complex(
                        rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.3
                    if l < 2:
                        terms[((a1, a2), 1, l)] = rng.uniform(-1, 1) * 0.2 + 0j
                        terms[((a1, a2), 2, l)] = rng.uniform(-1, 1) * 0.1 + 0j
        n_z = size.orders[1]
        jets = [zseries(FF, n_z, {1: rng.uniform(0.05, 0.15) + 0j,
                                  2: rng.uniform(-0.08, -0.02) + 0j}),
                zseries(FF, n_z, {1: rng.uniform(0.04, 0.1) * 1j,
                                  2: rng.uniform(0.01, 0.03) * 1j})]
        return self.roundtrip_op(index, size, blocks, jets, terms)


# -- exact-n2-forward --------------------------------------------------------

EXP_HALF_N2 = [(Fraction(2), Fraction(0)), (Fraction(3, 5), Fraction(4, 5))]
# degree <= 4 (|alpha| + l), h^0 part O(iota^2)
_N2_SUPPORT = [((2, 0), 0, 0), ((1, 1), 0, 0), ((0, 2), 1, 0), ((1, 0), 0, 1),
               ((0, 1), 2, 1), ((0, 0), 0, 1), ((2, 1), 0, 1), ((1, 0), 1, 3)]


class ExactN2Forward(Workload):
    """``bnftrace forward`` on rational n=2 (rh E=2, elliptic E=(3+4i)/5),
    checked against the exact leading identity."""

    name = "exact-n2-forward"
    FULL = TraceSize((4, 3, 3), 12)
    WARMUP = TraceSize((2, 1, 1), 2)

    def _draw(self, rng, index, size):
        blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC, ELLIPTIC],
                                [FR.from_rational(re, im)
                                 for re, im in EXP_HALF_N2])
        terms = {key: FR.from_rational(_small_rational(rng))
                 for key in _N2_SUPPORT}
        jets = [zseries(FR, 3, {1: FR.from_rational(_small_rational(rng, 3, 5))}),
                zseries(FR, 3, {1: FR.from_rational(
                    0, _small_rational(rng, 3, 5))})]
        bnf = QuantumBNF(blocks, jets, MultiSeries(FR, 2, Orders(4, 3, 3),
                                                   terms))
        doc = jsonio.qbnf_to_json(bnf)
        path = self.path(index, "bnf")
        out = self.path(index, "traces")
        jsonio.dump(path, doc)
        argv = ["forward", "--bnf", path, "--orders",
                _orders_arg(size.orders), "--kmax", str(size.k_max),
                "--out", out]
        return (OpInput(argv, size.k_max, out_path=out),
                json.dumps(doc, sort_keys=True))

    def check(self, op, output):
        rc, _text = output
        if rc != 0:
            return False
        with open(op.out_path) as fh:
            doc = json.load(fh)
        return forward_identity_holds(doc, EXP_HALF_N2, op.expected)


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cinv(a):
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


def _cpow(a, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = _cmul(out, a)
    return out


def forward_identity_holds(doc, exp_half, k_max):
    """a_{0k}(0) = prod_j 1/(E_j^k - E_j^-k) exactly, for k = 1..k_max.

    Reads the trace JSON as raw strings and does its own Fraction
    arithmetic, independent of the program's field and parser.
    """
    for k in range(1, k_max + 1):
        series = doc["coefficients"][str(k)]
        found = [t for t in series["terms"] if t["z"] == 0 and t["h"] == 0]
        if len(found) != 1:
            return False
        got = (Fraction(found[0]["re"]), Fraction(found[0]["im"]))
        want = (Fraction(1), Fraction(0))
        for E in exp_half:
            Ek = _cpow(E, k)
            Eki = _cinv(Ek)
            want = _cmul(want, _cinv((Ek[0] - Eki[0], Ek[1] - Eki[1])))
        if got != want:
            return False
    return True


# -- classical-pairing -------------------------------------------------------

# cubic generator support in (x1, x2, xi1, xi2), coupling both blocks
_CHI_SUPPORT = [(3, 0, 0, 0), (1, 1, 1, 0), (0, 2, 0, 1), (1, 0, 1, 1),
                (0, 1, 2, 0), (0, 0, 0, 3)]
# amplitude jets a_{jl}, j + l <= 5
_A_SUPPORT = [(0, 0), (1, 0), (0, 2), (2, 1), (1, 2), (3, 0), (0, 4), (2, 2),
              (4, 1), (1, 4), (3, 2)]


class ClassicalPairing(Workload):
    """``bnftrace classical-bnf`` on a conjugated normal-form flow (rh 0.7,
    elliptic 1.1i), then exact ``extract_jets`` on delta-jet pairings of
    seeded rational orbit jets."""

    name = "classical-pairing"
    FULL = ClassicalSize(5, 3, 5)
    # the twist R has phase-space degree 4, which a map of degree < 4 drops
    WARMUP = ClassicalSize(4, 2, 2)

    def _draw(self, rng, index, size):
        # classical half: kappa = T^-1 o flow(R) o T, T = exp H_chi
        degree = size.map_degree
        blocks = SpectrumBlocks.from_mu(FF, [(REAL_HYPERBOLIC, 0.7),
                                             (ELLIPTIC, 1.1j)])
        r_real = {m: rng.uniform(-0.3, 0.3) + 0j
                  for m in ((2, 0), (1, 1), (0, 2))}
        r_complex = iota_real_to_complex(blocks.tags, r_real, FF)
        flow = normal_form_flow(blocks, r_complex, degree)
        chi = PhasePoly(FF, 4, degree, {
            e: rng.uniform(-0.15, 0.15) + 0j for e in _CHI_SUPPORT})
        conj = exp_ham(chi.scale(-FF.one), 2, degree).compose(
            flow.pmap.compose(exp_ham(chi, 2, degree)))
        tmap = TaylorMap(FF, 2, degree, conj.comps)
        map_path = self.path(index, "map")
        report_path = self.path(index, "report")
        jsonio.dump(map_path, jsonio.taylor_map_to_json(tmap))
        argv = ["classical-bnf", "--map", map_path,
                "--degree", str(size.bnf_degree), "--report", report_path]

        # pairing half: seeded rational orbit jets, delta-jet basis
        order = size.order
        base = FR.from_int(2)
        i_jets = [FR.zero, base] + [FR.from_rational(_small_rational(rng))
                                    for _ in range(order)]
        a_jets = {key: FR.from_rational(_small_rational(rng))
                  for key in _A_SUPPORT if sum(key) <= order}
        orbit = OrbitExpansion(FR, i_jets, a_jets)
        basis = [TestJet.delta(FR, base, 2 * order + 3, m)
                 for m in range(order + 3)]
        pairings = [forward_pairing(orbit, g, order) for g in basis]
        key = (json.dumps(jsonio.taylor_map_to_json(tmap), sort_keys=True)
               + json.dumps(jsonio.orbit_to_json(orbit), sort_keys=True))
        op = OpInput(argv, (r_complex, orbit), out_path=report_path,
                     extra=(pairings, basis, order))
        return op, key

    def run(self, op):
        rc, text = _run_cli(op.argv)
        pairings, basis, order = op.extra
        # looked up on the module at call time, so a traced run sees it
        recovered = oscillatory.extract_jets(pairings, basis, order,
                                             i0=FR.zero)
        return rc, text, recovered

    def check(self, op, output):
        rc, _text, recovered = output
        if rc != 0:
            return False
        r_complex, orbit = op.expected
        with open(op.out_path) as fh:
            report = json.load(fh)
        twist = {tuple(t["m"]): complex(float(t["re"]), float(t["im"]))
                 for t in report["p"] if sum(t["m"]) >= 2}
        for m in set(twist) | set(r_complex):
            if abs(twist.get(m, 0j) - complex(r_complex.get(m, 0j))) > 1e-9:
                return False
        return (recovered.i_jets == orbit.i_jets
                and recovered.a_jets == orbit.a_jets)


WORKLOADS = {w.name: w for w in (ExactN1Roundtrip, FloatN2Roundtrip,
                                 ExactN2Forward, ClassicalPairing)}
