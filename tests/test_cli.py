import argparse
import cmath
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (mixed_float_fixture, n1_bnf, n2_bnf, n3_bnf,
                     random_F_total_degree, rt1)

from bnftrace import classify_eigenvalues, cli, jsonio, qbnf
from bnftrace.blocks import ELLIPTIC, REAL_HYPERBOLIC, SpectrumBlocks
from bnftrace.cli import build_parser, main
from bnftrace.errors import SchemaError
from bnftrace.fields import FloatField, RationalField
from bnftrace.phasepoly import MAX_DEGREE
from bnftrace.qbnf import QuantumBNF, make_trace_data
from bnftrace.series import MultiSeries, Orders, zseries

FR = RationalField()
FF = FloatField()


@pytest.fixture
def rt1_file(tmp_path):
    _F, bnf, _action = rt1()
    path = tmp_path / "rt1.json"
    jsonio.dump(path, jsonio.qbnf_to_json(bnf))
    return str(path)


def test_roundtrip_rt1_exits_zero(rt1_file, capsys):
    rc = main(["roundtrip", "--bnf", rt1_file, "--orders", "4,3,3",
               "--kmax", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exactly" in out


def test_exact_roundtrip_self_check_reads_the_forward_it_made(
        rt1_file, tmp_path, monkeypatch, capsys):
    """An exact round trip recovers its input exactly, so the self-check
    reads the K forward expansions that made the traces from the engine's
    memo: one full forward pass over all K powers, not two.  A bare recover
    of the same traces has no such memo and runs its own."""
    forward, full = qbnf._forward, []

    def counting(bnf, orders, engine, layer=None, added=None):
        if layer is None:
            full.append(engine.ks)
        return forward(bnf, orders, engine, layer, added)

    monkeypatch.setattr(qbnf, "_forward", counting)
    assert main(["roundtrip", "--bnf", rt1_file, "--orders", "4,3,3",
                 "--kmax", "8"]) == 0
    assert full == [tuple(range(1, 9))]
    full.clear()
    traces = str(tmp_path / "traces.json")
    assert main(["forward", "--bnf", rt1_file, "--orders", "4,3,3",
                 "--kmax", "8", "--out", traces]) == 0
    assert main(["recover", "--traces", traces,
                 "--out", str(tmp_path / "rec.json")]) == 0
    assert full == 2 * [tuple(range(1, 9))]
    capsys.readouterr()


def test_forward_then_recover_files(rt1_file, tmp_path, capsys):
    traces = str(tmp_path / "traces.json")
    rc = main(["forward", "--bnf", rt1_file, "--orders", "4,3,3",
               "--kmax", "8", "--out", traces])
    assert rc == 0
    payload = json.load(open(traces))
    assert payload["k_max"] == 8
    assert len(payload["coefficients"]) == 8
    out_bnf = str(tmp_path / "rec.json")
    report = str(tmp_path / "report.json")
    rc = main(["recover", "--traces", traces,
               "--out", out_bnf, "--report", report])
    assert rc == 0
    rec = jsonio.qbnf_from_json(jsonio.load(out_bnf))
    _F, bnf, _a = rt1()
    assert rec.F == bnf.F
    rep = json.load(open(report))
    assert rep["failed"] is False
    assert "prony" in rep["conditioning"]


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"not json')
    rc = main(["forward", "--bnf", str(bad)])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b"\xff\xfe{\x00}\x00",                 # UTF-16, not UTF-8
    b"[" * 100000 + b"]" * 100000,        # nested beyond the parser's stack
], ids=["not-utf8", "deep"])
@pytest.mark.parametrize("reader", ["bnf", "action", "traces", "map"])
def test_unreadable_json_is_an_input_error_naming_the_file(
        reader, content, rt1_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = {
        "bnf": ["forward", "--bnf", str(bad)],
        "action": ["forward", "--bnf", rt1_file, "--action", str(bad)],
        "traces": ["recover", "--traces", str(bad)],
        "map": ["classical-bnf", "--map", str(bad)],
    }[reader]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("input error: ") and str(bad) in err


def test_missing_key_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps({"field": "rational", "n": 1}))
    rc = main(["forward", "--bnf", str(bad)])
    assert rc == 2


def test_missing_file_exits_two(tmp_path):
    rc = main(["forward", "--bnf", str(tmp_path / "nope.json")])
    assert rc == 2


def test_forward_of_no_blocks_exits_two(tmp_path, capsys):
    """A normal form with n = 0 has no trace to expand: forward refuses
    it as roundtrip does, and writes no trace file."""
    path, out = tmp_path / "n0.json", tmp_path / "n0_t.json"
    jsonio.dump(path, {"field": "rational", "n": 0, "blocks": [],
                       "mu_jets": [], "F": jsonio.series_to_json(
                           MultiSeries.zero(FR, 0, Orders(2, 1, 1)))})
    rc = main(["forward", "--bnf", str(path), "--orders", "2,1,1",
               "--kmax", "8", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "n must be >= 1" in err and "Traceback" not in err
    assert not out.exists()


def test_resonant_fixture_exits_three_with_witness(tmp_path, capsys):
    theta = 2 * math.pi / 3
    blocks_json = [{
        "type": "elliptic",
        "exp_half_mu": {"re": repr(math.cos(theta / 2)),
                        "im": repr(math.sin(theta / 2))},
    }]
    payload = {
        "field": "float", "n": 1, "blocks": blocks_json,
        "mu_jets": [jsonio.series_to_json(zseries(FF, 2))],
        "F": jsonio.series_to_json(
            __import__("bnftrace.series", fromlist=["MultiSeries"])
            .MultiSeries.zero(FF, 1, (3, 2, 2))),
    }
    path = tmp_path / "resonant.json"
    jsonio.dump(path, payload)
    rc = main(["roundtrip", "--bnf", str(path), "--orders", "3,2,2",
               "--kmax", "6"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "k=[3]" in err and "m=1" in err


def test_truncated_traces_exit_three_with_required_count(rt1_file, tmp_path,
                                                         capsys):
    traces = str(tmp_path / "short.json")
    assert main(["forward", "--bnf", rt1_file, "--orders", "4,3,3",
                 "--kmax", "4", "--out", traces]) == 0
    rc = main(["recover", "--traces", traces])
    assert rc == 3
    assert "1..6" in capsys.readouterr().err


def test_n2_traces_cut_to_nine_powers_exit_three_naming_ten(tmp_path,
                                                            capsys):
    """Nine powers test n = 1 alone, which n = 2 traces do not fit: the
    refusal names the k = 1..10 that n = 2 needs."""
    path, traces = str(tmp_path / "n2.json"), str(tmp_path / "t.json")
    jsonio.dump(path, jsonio.qbnf_to_json(_recoverable_part(n2_bnf(), 1, 1)))
    assert main(["forward", "--bnf", path, "--orders", "2,1,1",
                 "--kmax", "9", "--out", traces]) == 0
    assert main(["recover", "--traces", traces,
                 "--out", str(tmp_path / "r.json")]) == 3
    assert "k = 1..10, have 9" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("make, orders, K", [(lambda: rt1()[1], "4,3,3", 10),
                                             (n2_bnf, "2,1,1", 18)],
                         ids=["rt1", "n2"])
def test_recover_reads_n_from_traces_that_could_hold_n_plus_one(
        make, orders, K, tmp_path, capsys):
    """K = 2^(n+2) + 2 powers let stage 0 try n + 1 blocks as well: exact
    traces of rt1 and of an n = 2 form still recover their own n, and the
    recovered normal form equals the input."""
    _iota, n_z, n_h = map(int, orders.split(","))
    bnf = _recoverable_part(make(), n_z, n_h)
    path, traces = str(tmp_path / "bnf.json"), str(tmp_path / "t.json")
    out = str(tmp_path / "r.json")
    jsonio.dump(path, jsonio.qbnf_to_json(bnf))
    assert main(["forward", "--bnf", path, "--orders", orders,
                 "--kmax", str(K), "--out", traces]) == 0
    assert main(["recover", "--traces", traces, "--out", out]) == 0
    got = jsonio.qbnf_from_json(jsonio.load(out))
    assert got.n == bnf.n and got.close_to(bnf)
    capsys.readouterr()


@pytest.mark.parametrize("key", ["coefficients", "maslov"])
def test_trace_powers_above_k_max_are_an_input_error(key, rt1_file, tmp_path,
                                                     capsys):
    """A traces file of k_max 6 that lists the powers 1..8 under ``key`` is
    refused, naming the first power above and k_max, not recovered from
    six of them."""
    traces = tmp_path / "traces.json"
    assert main(["forward", "--bnf", rt1_file, "--kmax", "8",
                 "--out", str(traces)]) == 0
    doc = json.load(open(traces))
    doc["k_max"] = 6
    other = doc["maslov" if key == "coefficients" else "coefficients"]
    for k in ("7", "8"):
        del other[k]
    jsonio.dump(traces, doc)
    capsys.readouterr()
    assert main(["recover", "--traces", str(traces),
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert f"key '{key}' names power k=7 above k_max = 6" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("spelling", ["01", "+1", " 1"])
@pytest.mark.parametrize("key", ["coefficients", "maslov"])
def test_a_trace_power_named_twice_is_an_input_error(key, spelling, rt1_file,
                                                     tmp_path, capsys):
    """A second key under ``key`` that names power 1, holding power 2's
    entry, is refused naming k and both keys, not read as the later one."""
    traces = tmp_path / "traces.json"
    assert main(["forward", "--bnf", rt1_file, "--kmax", "8",
                 "--out", str(traces)]) == 0
    doc = json.load(open(traces))
    doc[key][spelling] = doc[key]["2"]
    jsonio.dump(traces, doc)
    capsys.readouterr()
    assert main(["recover", "--traces", str(traces),
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert (f"input error: key '{key}' names power k=1 twice: '1' and "
            f"{spelling!r}") in err
    assert not (tmp_path / "r.json").exists()


def _no_forward(monkeypatch):
    """Make every forward an error, so that a refusal shows it came first."""
    def forward(*args, **kwargs):
        raise AssertionError("a forward ran")
    monkeypatch.setattr(cli, "make_trace_data", forward)
    monkeypatch.setattr(qbnf, "_forward", forward)


def _recoverable_part(bnf, n_z, n_h):
    """The terms of ``bnf`` that a recovery at orders (n_z, n_h) solves
    for: F terms with l + |alpha| <= n_h + 1, l <= max(n_h, 1) and
    m <= n_z, and jet terms up to z^n_z."""
    f = bnf.field
    F = MultiSeries(f, bnf.n, bnf.F.orders, {
        (alpha, m, l): c for (alpha, m, l), c in bnf.F.terms.items()
        if l + sum(alpha) <= n_h + 1 and l <= max(n_h, 1) and m <= n_z})
    jets = [MultiSeries(f, 0, jet.orders, {
        t: c for t, c in jet.terms.items() if t[1] <= n_z})
        for jet in bnf.mu_jets]
    return QuantumBNF(bnf.blocks, jets, F)


@pytest.mark.parametrize("make, orders, K, stage", [
    (n1_bnf, "2,1,1", 6, "prony"), (n1_bnf, "3,2,2", 6, "prony"),
    (n1_bnf, "3,3,2", 6, "prony"), (n1_bnf, "4,3,3", 6, "prony"),
    (n2_bnf, "2,1,1", 10, "prony"), (n2_bnf, "3,2,2", 10, "prony"),
    (n2_bnf, "3,3,2", 10, "prony"), (n2_bnf, "4,3,3", 14, "h3:z0"),
])
def test_roundtrip_needs_the_k_of_its_plan(make, orders, K, stage, tmp_path,
                                           monkeypatch, capsys):
    """The least K at which a round trip passes is the largest need of the
    recovery plan; one power fewer is refused before any forward, naming
    the stage that needs the most and the K it needs."""
    _iota, n_z, n_h = map(int, orders.split(","))
    path = str(tmp_path / "bnf.json")
    jsonio.dump(path, jsonio.qbnf_to_json(
        _recoverable_part(make(), n_z, n_h)))
    argv = ["roundtrip", "--bnf", path, "--orders", orders]
    assert main(argv + ["--kmax", str(K)]) == 0
    capsys.readouterr()
    _no_forward(monkeypatch)
    assert main(argv + ["--kmax", str(K - 1)]) == 3
    err = capsys.readouterr().err
    assert f"stage {stage} needs the trace powers k = 1..{K}," in err


@pytest.mark.parametrize("kmax", ["24", "16"])
def test_short_n3_roundtrip_is_refused_before_any_forward(
        kmax, tmp_path, monkeypatch, capsys):
    """At orders (3, 3) the h^3 stages of n = 3 need 34 powers, more than
    the 18 of Prony: K = 24, which serves every stage below h^3, and
    K = 16, which Prony alone would refuse asking for 18, are both refused
    at once, naming stage h3:z0 and its 34."""
    path = str(tmp_path / "n3.json")
    bnf = n3_bnf()
    assert len(bnf.F.terms) == 260
    jsonio.dump(path, jsonio.qbnf_to_json(bnf))
    _no_forward(monkeypatch)
    assert main(["roundtrip", "--bnf", path, "--orders", "4,3,3",
                 "--kmax", kmax]) == 3
    err = capsys.readouterr().err
    assert f"stage h3:z0 needs the trace powers k = 1..34, have {kmax}" in err


# runs each argv of the JSON list argv[2] through cli.main, with numpy made
# unimportable and the package read from the directory argv[1], and prints
# each exit code and standard output as JSON, then the repr of the blocks
# of the matrix argv[3], JSON rows or null
_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
sys.path.insert(0, sys.argv[1])
from bnftrace import classify_eigenvalues
from bnftrace.cli import main
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([main(argv), out.getvalue()])
matrix = json.loads(sys.argv[3])
print(json.dumps([runs, matrix and repr(classify_eigenvalues(matrix))]))
"""


def _float_n1():
    """CI's float n=1 normal form: rh E=1.5, jet z, F = iota^2/4 +
    h iota/2, at orders (3, 1, 2)."""
    return QuantumBNF(
        SpectrumBlocks(FF, [REAL_HYPERBOLIC], [FF.from_rational("3/2")]),
        [zseries(FF, 1, {1: FF.one})],
        MultiSeries(FF, 1, Orders(3, 1, 2),
                    {((2,), 0, 0): FF.from_rational("1/4"),
                     ((1,), 0, 1): FF.from_rational("1/2")}))


def _runs_alike_without_numpy(tmp_path, monkeypatch, capsys, argvs, files,
                              matrix=None):
    """Each argv exits 0 with numpy made unimportable, with the standard
    output and the bytes of ``files`` of a run with numpy importable.
    Output files are named relative to each run's directory, so that the
    "wrote" lines of both runs read the same; an input file a run reads
    from its directory is written by an earlier argv.  A ``matrix``, given
    by rows, is classified in the same process, with the blocks of a
    classification with numpy importable.  Returns the standard output of
    each argv."""
    without, with_numpy = tmp_path / "without", tmp_path / "with"
    without.mkdir()
    with_numpy.mkdir()
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, src, json.dumps(argvs),
         json.dumps(matrix)],
        cwd=without, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs, blocks = json.loads(proc.stdout)
    if matrix is not None:
        assert blocks == repr(classify_eigenvalues(matrix))
    monkeypatch.chdir(with_numpy)
    for argv, (rc, out) in zip(argvs, runs):
        assert rc == 0 and main(argv) == 0, argv
        assert out == capsys.readouterr().out, argv
    for name in files:
        assert ((without / name).read_bytes()
                == (with_numpy / name).read_bytes()), name
    return [out for _rc, out in runs]


def test_forward_runs_without_numpy(tmp_path, monkeypatch, capsys):
    """forward never imports numpy.  The inputs are the golden n=2 normal
    form and CI's float n=1 one, at 64 and 128 bits."""
    n2, n1 = str(tmp_path / "n2.json"), str(tmp_path / "n1.json")
    jsonio.dump(n2, jsonio.qbnf_to_json(n2_bnf()))
    jsonio.dump(n1, jsonio.qbnf_to_json(_float_n1()))
    argvs = [
        ["forward", "--bnf", n2, "--orders", "4,3,3", "--kmax", "12",
         "--out", "n2-traces.json"],
        ["forward", "--bnf", n1, "--orders", "3,1,2", "--kmax", "6",
         "--out", "n1-traces.json"],
        ["forward", "--bnf", n1, "--orders", "3,1,2", "--kmax", "6",
         "--precision", "128", "--out", "n1-128-traces.json"],
    ]
    _runs_alike_without_numpy(
        tmp_path, monkeypatch, capsys, argvs,
        ["n2-traces.json", "n1-traces.json", "n1-128-traces.json"])


def test_recovery_runs_without_numpy(tmp_path, monkeypatch, capsys):
    """roundtrip and recover never import numpy either: an exact round
    trip with its report and a recovery from traces of the golden n=1
    form, and a 64-bit round trip of a real hyperbolic and elliptic n=2
    form."""
    n1, n2 = str(tmp_path / "n1.json"), str(tmp_path / "n2.json")
    jsonio.dump(n1, jsonio.qbnf_to_json(n1_bnf()))
    jsonio.dump(n2, jsonio.qbnf_to_json(
        mixed_float_fixture(7, with_jets=True)[1]))
    argvs = [
        ["roundtrip", "--bnf", n1, "--orders", "4,3,3", "--kmax", "8",
         "--report", "n1-report.json"],
        ["forward", "--bnf", n1, "--orders", "4,3,3", "--kmax", "8",
         "--out", "n1-traces.json"],
        ["recover", "--traces", "n1-traces.json",
         "--report", "n1-recover-report.json", "--out", "n1-recovered.json"],
        ["roundtrip", "--bnf", n2, "--orders", "3,2,2", "--kmax", "14",
         "--report", "n2-report.json"],
    ]
    _runs_alike_without_numpy(
        tmp_path, monkeypatch, capsys, argvs,
        ["n1-report.json", "n1-recover-report.json", "n1-recovered.json",
         "n2-report.json"])


def test_classical_bnf_runs_without_numpy(tmp_path, monkeypatch, capsys):
    """classical-bnf and classify_eigenvalues never import numpy: the
    golden float map, diag(2, 1/2) at degree 1, the map 1.5e-9 off the
    identity, whose mu is still printed as +1.49999967946e-09, and CI's rh
    0.7 + elliptic 1.1i flow give the same reports and standard output."""
    from test_golden import _conjugated_flow_map

    from bnftrace.classical import (TaylorMap, iota_real_to_complex,
                                    normal_form_flow)

    golden, cmap = str(tmp_path / "golden.json"), str(tmp_path / "cmap.json")
    jsonio.dump(golden, jsonio.taylor_map_to_json(_conjugated_flow_map()))
    blocks = SpectrumBlocks.from_mu(FF, [(REAL_HYPERBOLIC, 0.7),
                                         (ELLIPTIC, 1.1j)])
    R = iota_real_to_complex(blocks.tags, {(2, 0): 0.13 + 0j,
                                           (1, 1): -0.21 + 0j,
                                           (0, 2): 0.08 + 0j}, FF)
    jsonio.dump(cmap, jsonio.taylor_map_to_json(
        TaylorMap(FF, 2, 4, normal_form_flow(blocks, R, 4).pmap.comps)))
    (tmp_path / "diag").mkdir()
    (tmp_path / "near").mkdir()
    diag = _linear_map_file(tmp_path / "diag", [[2.0, 0], [0, 0.5]])
    near = _linear_map_file(tmp_path / "near", [[1.0000000015, 0],
                                                [0, 0.9999999985]])
    argvs = [
        ["classical-bnf", "--map", golden, "--degree", "3",
         "--report", "golden-report.json"],
        ["classical-bnf", "--map", diag, "--degree", "1",
         "--report", "diag-report.json"],
        ["classical-bnf", "--map", near, "--degree", "1",
         "--tol-resonance", "1e-10", "--report", "near-report.json"],
        ["classical-bnf", "--map", cmap, "--degree", "2",
         "--report", "cmap-report.json"],
    ]
    outs = _runs_alike_without_numpy(
        tmp_path, monkeypatch, capsys, argvs,
        ["golden-report.json", "diag-report.json", "near-report.json",
         "cmap-report.json"], matrix=[[2.0, 0.0], [0.0, 0.5]])
    assert "iota^(1,): +1.49999967946e-09 +0i" in outs[2]


def _linear_map_file(tmp_path, rows):
    """A degree-1 map file of the 2 x 2 matrix ``rows``."""
    return _doc_file(tmp_path, {"field": "float", "n": 1, "degree": 1,
                                "components": [
        [{"exps": [1, 0], "re": repr(a)}, {"exps": [0, 1], "re": repr(b)}]
        for a, b in rows]})


def test_classical_bnf_prints_the_blocks(tmp_path, capsys):
    """The degree-1 normal form of a rotation by 1 is one elliptic block,
    with iota coefficient i theta = 1i."""
    th = 1.0
    rc = main(["classical-bnf", "--degree", "1", "--map", _linear_map_file(
        tmp_path, [[math.cos(th), -math.sin(th)],
                   [math.sin(th), math.cos(th)]])])
    assert rc == 0
    out = capsys.readouterr().out
    assert "blocks: <SpectrumBlocks el:" in out and "+1i" in out


def test_classical_bnf_at_the_tolerance_of_the_blocks(tmp_path, capsys):
    """An eigenvalue 1.5e-9 above 1 is real hyperbolic at the classifier's
    1e-9, and the blocks built from it read it the same way.  Its mu is
    resonant at the default --tol-resonance of 1e-8, and is printed below
    it."""
    path = _linear_map_file(tmp_path, [[1.0000000015, 0],
                                       [0, 0.9999999985]])
    assert main(["classical-bnf", "--degree", "1", "--map", path]) == 3
    assert "resonant" in capsys.readouterr().err
    assert main(["classical-bnf", "--degree", "1", "--map", path,
                 "--tol-resonance", "1e-10"]) == 0
    out = capsys.readouterr().out
    assert "blocks: <SpectrumBlocks re:" in out
    assert "iota^(1,): +1.49999967946e-09 +0i" in out


def test_elliptic_block_off_the_unit_circle_is_an_input_error(tmp_path,
                                                             capsys):
    """An elliptic E with |E| = 1 + 0.8e-9 has |e^mu| 1.6e-9 off the unit
    circle, which classify calls complex hyperbolic: exit 2."""
    E = cmath.rect(1 + 0.8e-9, 0.5)
    doc = _float_bnf_with_exp_half(repr(E.real))
    doc["blocks"][0].update(type="elliptic")
    doc["blocks"][0]["exp_half_mu"]["im"] = repr(E.imag)
    rc = main(["forward", "--bnf", _doc_file(tmp_path, doc), "--orders",
               "2,1,1", "--kmax", "4", "--out", str(tmp_path / "t.json")])
    assert rc == 2
    assert "got a complex_hyperbolic" in capsys.readouterr().err


def test_classical_bnf_rejects_a_non_numeric_entry(tmp_path, capsys):
    rc = main(["classical-bnf", "--map", _linear_map_file(
        tmp_path, [["a", 0], [0, 0.5]])])
    assert rc == 2
    assert "malformed number under key 're'/'im': \"'a'\"" in (
        capsys.readouterr().err)


def _doc_file(tmp_path, doc):
    """An input file holding ``doc``; Python's json writes an infinite or
    nan number in it as Infinity or NaN, which jsonio.dump refuses."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _float_bnf_with_exp_half(value):
    blocks = SpectrumBlocks(FF, [REAL_HYPERBOLIC], [FF.from_int(2)])
    F = MultiSeries(FF, 1, Orders(2, 1, 1), {((2,), 0, 0): FF.one})
    doc = jsonio.qbnf_to_json(QuantumBNF(blocks, [zseries(FF, 1)], F))
    doc["blocks"][0]["exp_half_mu"]["re"] = value
    return doc


# infinite or nan numbers from a file, each as argv given tmp_path
_NON_FINITE = {
    "classical-bnf NaN": lambda tmp: ["classical-bnf", "--map",
                                      _linear_map_file(tmp, [[math.nan, 0],
                                                             [0, 0.5]])],
    "classical-bnf Infinity im": lambda tmp: _map_argv(
        tmp, lambda doc: doc["components"][0][0].update(im="-Infinity")),
    "classical-bnf Infinity": lambda tmp: ["classical-bnf", "--map", _doc_file(
        tmp, {"field": "float", "n": 1, "degree": 3, "components": [
            [{"exps": [1, 0], "re": "Infinity", "im": "0"}],
            [{"exps": [0, 1], "re": "1", "im": "0"}]]})],
    "forward NaN": lambda tmp: ["forward", "--bnf", _doc_file(
        tmp, _float_bnf_with_exp_half("NaN")), "--orders", "2,1,1",
        "--out", str(tmp / "t.json")],
    "forward NaN 128 bits": lambda tmp: ["forward", "--bnf", _doc_file(
        tmp, _float_bnf_with_exp_half("nan")), "--orders", "2,1,1",
        "--precision", "128", "--out", str(tmp / "t.json")],
    "forward Infinity 128 bits": lambda tmp: ["forward", "--bnf", _doc_file(
        tmp, _float_bnf_with_exp_half("inf")), "--orders", "2,1,1",
        "--precision", "128", "--out", str(tmp / "t.json")],
}


@pytest.mark.parametrize("case", list(_NON_FINITE))
def test_non_finite_input_exits_two(case, tmp_path, capsys):
    rc = main(_NON_FINITE[case](tmp_path))
    assert rc == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("precision", ["64", "128", "240"])
@pytest.mark.parametrize("text", ["Infinity", "-Infinity", "inf", "NaN",
                                  "-nan"])
def test_every_non_finite_spelling_is_named_at_every_precision(
        text, precision, tmp_path, capsys):
    """mpmath reads "inf" and "nan" but not "Infinity": at every precision
    each spelling is refused as a non-finite number, not as a malformed
    one."""
    argv = ["forward", "--bnf", _doc_file(tmp_path, _float_bnf_with_exp_half(
        text)), "--orders", "2,1,1", "--precision", precision,
        "--out", str(tmp_path / "t.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "non-finite number" in err and "malformed" not in err
    assert not (tmp_path / "t.json").exists()


def test_finite_beyond_the_double_range_is_not_an_input_error(tmp_path,
                                                              capsys):
    """Finiteness is judged at the field's precision: 1e400 is a finite
    128-bit number, and an infinite double."""
    doc = jsonio.qbnf_to_json(_float_n1())
    next(t for t in doc["F"]["terms"] if t["iota"] == [2])["re"] = "1e400"
    argv = ["forward", "--bnf", _doc_file(tmp_path, doc), "--orders", "3,1,2",
            "--kmax", "6", "--out", str(tmp_path / "t.json")]
    assert main(argv + ["--precision", "128"]) == 0
    capsys.readouterr()
    (tmp_path / "t.json").unlink()
    assert main(argv) == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def _rt1_with(mutate):
    """rt1's normal form file, changed in place by ``mutate``."""
    doc = jsonio.qbnf_to_json(rt1()[1])
    mutate(doc)
    return doc


def _forward_argv(tmp, doc):
    return ["forward", "--bnf", _doc_file(tmp, doc), "--orders", "4,3,3",
            "--kmax", "8", "--out", str(tmp / "t.json")]


def _set_iota(value):
    return lambda doc: doc["F"]["terms"][0].update(iota=value)


def _map_argv(tmp, mutate):
    """classical-bnf on a rotation map file changed by ``mutate``."""
    doc = {"field": "float", "n": 1, "degree": 3, "components": [
        [{"exps": [1, 0], "re": "0.5", "im": "0"},
         {"exps": [0, 1], "re": "-0.8", "im": "0"}],
        [{"exps": [1, 0], "re": "0.8", "im": "0"},
         {"exps": [0, 1], "re": "0.5", "im": "0"}]]}
    mutate(doc)
    return ["classical-bnf", "--map", _doc_file(tmp, doc)]


def _recover_argv(tmp, mutate):
    """recover on rt1's traces at orders (z 1, h 1), K = 6, changed by
    ``mutate``."""
    _F, bnf, action = rt1()
    doc = jsonio.trace_data_to_json(make_trace_data(bnf, action, {}, 6,
                                                    (1, 1)))
    mutate(doc)
    return ["recover", "--traces", _doc_file(tmp, doc),
            "--out", str(tmp / "t.json")]


def _rotation_argv(tmp, mutate):
    """classical-bnf at iota degree 1 on a rotation by 1 of map degree 3,
    changed by ``mutate``."""
    doc = {"field": "float", "n": 1, "degree": 3, "components": [
        [{"exps": [1, 0], "re": repr(math.cos(1))},
         {"exps": [0, 1], "re": repr(-math.sin(1))}],
        [{"exps": [1, 0], "re": repr(math.sin(1))},
         {"exps": [0, 1], "re": repr(math.cos(1))}]]}
    mutate(doc)
    return ["classical-bnf", "--map", _doc_file(tmp, doc), "--degree", "1"]


# input files that are unusable, each as argv given tmp_path: exponent
# lists and map components of the wrong type, and exact numbers beyond the
# double range that the block and action checks read; a JSON true or
# false, or a number with a fractional part, where an integer belongs
# (bool subclasses int, and int() truncates); and a map entry that is a
# JSON false or null, or an integer beyond the double range
_UNUSABLE = {
    "iota [null]": lambda tmp: _forward_argv(tmp, _rt1_with(
        _set_iota([None]))),
    "iota ['x']": lambda tmp: _forward_argv(tmp, _rt1_with(
        _set_iota(["x"]))),
    "iota [[]]": lambda tmp: _forward_argv(tmp, _rt1_with(_set_iota([[]]))),
    "iota [{}]": lambda tmp: _forward_argv(tmp, _rt1_with(_set_iota([{}]))),
    "iota [1.5]": lambda tmp: _forward_argv(tmp, _rt1_with(
        _set_iota([1.5]))),
    "iota []": lambda tmp: _forward_argv(tmp, _rt1_with(_set_iota([]))),
    "iota 'x'": lambda tmp: _forward_argv(tmp, _rt1_with(_set_iota("x"))),
    "exp_half_mu 1e400": lambda tmp: _forward_argv(tmp, _rt1_with(
        lambda doc: doc["blocks"][0]["exp_half_mu"].update(re="1e400"))),
    "map exps ['x', 0]": lambda tmp: _map_argv(
        tmp, lambda doc: doc["components"][0][0].update(exps=["x", 0])),
    "map null component": lambda tmp: _map_argv(
        tmp, lambda doc: doc["components"].__setitem__(0, None)),
    "map components [1, 2]": lambda tmp: _map_argv(
        tmp, lambda doc: doc.update(components=[1, 2])),
    "action 1e400": lambda tmp: _recover_argv(
        tmp, lambda doc: doc["action"]["terms"][0].update(re="1e400")),
    "F term h true": lambda tmp: _forward_argv(tmp, _rt1_with(
        lambda doc: doc["F"]["terms"][0].update(h=True))),
    "F term z false": lambda tmp: _forward_argv(tmp, _rt1_with(
        lambda doc: doc["F"]["terms"][0].update(z=False))),
    "F term iota [true]": lambda tmp: _forward_argv(tmp, _rt1_with(
        _set_iota([True]))),
    "F n_actions true": lambda tmp: _forward_argv(tmp, _rt1_with(
        lambda doc: doc["F"].update(n_actions=True))),
    "jet orders z true": lambda tmp: _forward_argv(tmp, _rt1_with(
        lambda doc: doc["mu_jets"][0]["orders"].update(z=True))),
    "F orders h 3.0": lambda tmp: _forward_argv(tmp, _rt1_with(
        lambda doc: doc["F"]["orders"].update(h=3.0))),
    "map n true": lambda tmp: _rotation_argv(
        tmp, lambda doc: doc.update(n=True)),
    "map degree true": lambda tmp: _rotation_argv(
        tmp, lambda doc: doc.update(degree=True)),
    "map exps [true, 0]": lambda tmp: _rotation_argv(
        tmp, lambda doc: doc["components"][0][0].update(exps=[True, 0])),
    "traces k_max true": lambda tmp: _recover_argv(
        tmp, lambda doc: doc.update(k_max=True)),
    "traces maslov true": lambda tmp: _recover_argv(
        tmp, lambda doc: doc["maslov"].update({"1": True})),
    "traces maslov 1.5": lambda tmp: _recover_argv(
        tmp, lambda doc: doc["maslov"].update({"1": 1.5})),
    "map entry false": lambda tmp: _map_argv(
        tmp, lambda doc: doc["components"][0][0].update(re=False)),
    "map entry null": lambda tmp: _map_argv(
        tmp, lambda doc: doc["components"][0][0].update(re=None)),
    "map entry 10^400": lambda tmp: _map_argv(
        tmp, lambda doc: doc["components"][0][0].update(re=10 ** 400)),
}


@pytest.mark.parametrize("case", list(_UNUSABLE))
def test_unusable_input_exits_two(case, tmp_path, capsys):
    rc = main(_UNUSABLE[case](tmp_path))
    assert rc == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_integer_cases_run_with_integers_in_place(tmp_path, capsys):
    """The files of the cases above run with integers in place: the
    rotation map, and a Maslov index written as 3 or 3.0."""
    assert main(_rotation_argv(tmp_path, lambda doc: None)) == 0
    for value in (3, 3.0):
        argv = _recover_argv(tmp_path,
                             lambda doc: doc["maslov"].update({"1": value}))
        assert main(argv) == 0
        assert "recovery succeeded" in capsys.readouterr().out


def test_map_degree_beyond_the_key_limit_exits_two(tmp_path, capsys):
    """A map's normal form bounds polynomials at the map's degree + 1,
    which a packed monomial key must hold: a rotation map of degree
    MAX_DEGREE - 1 runs, and one of degree MAX_DEGREE or a sparse one of
    degree 300 is an input error that names its degree and the limit."""
    top = _rotation_argv(tmp_path, lambda doc: doc.update(
        degree=MAX_DEGREE - 1))
    assert main(top) == 0
    capsys.readouterr()
    for degree in (MAX_DEGREE, 300):
        argv = _rotation_argv(tmp_path, lambda doc: doc.update(degree=degree))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "input error" in err
        assert (f"map degree {degree} is above the limit {MAX_DEGREE - 1}"
                in err)


def test_dump_leaves_no_file_for_a_value_json_refuses(tmp_path):
    """dump serializes before it opens the file, so a nan or an infinity,
    which no file of the tool holds, is refused at any depth without
    leaving a truncated file, and a file that was there keeps its bytes."""
    path = tmp_path / "out.json"
    for bad in (math.nan, math.inf, -math.inf):
        for doc in ({"a": [1, 2], "b": bad}, [[{"c": bad}]], bad):
            with pytest.raises(ValueError):
                jsonio.dump(path, doc)
            assert not path.exists()
    jsonio.dump(path, {"a": [1, 2]})
    assert path.read_bytes() == b'{\n "a": [\n  1,\n  2\n ]\n}\n'
    with pytest.raises(ValueError):
        jsonio.dump(path, {"a": [1, 2], "b": math.nan})
    assert path.read_bytes() == b'{\n "a": [\n  1,\n  2\n ]\n}\n'


# JSON values of every kind the writer meets: nested containers, empty
# ones, text with non-ASCII and control characters, ints beyond 64 bits,
# -0.0, subnormal and other finite floats, bools and null
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=-10**60, max_value=10**60)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e16, 1e-7])
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(_json_values)
def test_dump_writes_the_text_of_indented_json_dumps(value):
    """The writer builds, byte for byte, the text json.dumps gives with
    the indent and nan refusal that dump has always used."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        jsonio.dump(path, value)
        with open(path, "rb") as fh:
            text = fh.read()
    want = json.dumps(value, indent=1, allow_nan=False) + "\n"
    assert text == want.encode("ascii")


def test_a_repeated_key_is_an_input_error_naming_key_and_file(
        rt1_file, tmp_path, capsys):
    """Traces that write the key "1" twice under 'coefficients', the later
    one holding power 2's series, are refused naming the key and the
    file, not read as power 1 from the later value."""
    traces = tmp_path / "traces.json"
    assert main(["forward", "--bnf", rt1_file, "--kmax", "8",
                 "--out", str(traces)]) == 0
    doc = json.load(open(traces))
    doc["coefficients"]["dup"] = doc["coefficients"]["2"]
    text = json.dumps(doc).replace('"dup": {', '"1": {')
    assert text.count('"1": {') == 2
    traces.write_text(text)
    capsys.readouterr()
    assert main(["recover", "--traces", str(traces),
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert (f"input error: key '1' appears twice in one object in {traces}"
            in err)
    assert not (tmp_path / "r.json").exists()


def test_load_refuses_a_repeated_key_at_any_depth(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": [{"b": 1, "c": 2, "b": 3}]}')
    with pytest.raises(SchemaError) as exc:
        jsonio.load(path)
    assert str(exc.value) == f"key 'b' appears twice in one object in {path}"
    path.write_text('{"a": [{"b": 1, "c": 2}], "b": {"b": 3}}')
    assert jsonio.load(path) == {"a": [{"b": 1, "c": 2}], "b": {"b": 3}}


def _action_argv(tmp, maslov):
    """forward on rt1 with an action file I(z) = z whose 'maslov' is
    ``maslov``."""
    action = MultiSeries(FR, 0, Orders(0, 3, 0), {((), 1, 0): FR.one})
    path = tmp / "action.json"
    jsonio.dump(path, {"action": jsonio.series_to_json(action),
                       "maslov": maslov})
    return _forward_argv(tmp, _rt1_with(lambda doc: None)) + [
        "--action", str(path)]


def _set_orders(series, **orders):
    return lambda doc: series(doc)["orders"].update(orders)


# input files that fell between the checks of the CLI and of the readers,
# each as argv given tmp_path, with the word the error names: a Maslov
# table that is not an object, a coefficient field that is unknown or
# differs from the file's own, a negative series order, trace powers
# whose series have different orders, a block count that differs from the
# blocks listed, and a trace power below 1
_UNCHECKED = {
    "action maslov [1, 2]": (lambda tmp: _action_argv(tmp, [1, 2]),
                             "'maslov'"),
    "action maslov 'x'": (lambda tmp: _action_argv(tmp, "x"), "'maslov'"),
    "bnf field bogus": (lambda tmp: _forward_argv(tmp, _rt1_with(
        lambda doc: doc.update(field="bogus"))), "'field'"),
    "F field bogus": (lambda tmp: _forward_argv(tmp, _rt1_with(
        lambda doc: doc["F"].update(field="bogus"))), "'field'"),
    "F field float in a rational file": (lambda tmp: _forward_argv(
        tmp, _rt1_with(lambda doc: doc["F"].update(field="float"))),
        "'field'"),
    "traces field bogus": (lambda tmp: _recover_argv(
        tmp, lambda doc: doc.update(field="bogus")), "'field'"),
    "map field bogus": (lambda tmp: _map_argv(
        tmp, lambda doc: doc.update(field="bogus")), "'field'"),
    "roundtrip jet orders z -1": (lambda tmp: [
        "roundtrip", "--bnf", _doc_file(tmp, _rt1_with(_set_orders(
            lambda doc: doc["mu_jets"][0], z=-1))),
        "--orders", "4,3,3", "--kmax", "8"], "'orders'"),
    "traces orders z -2": (lambda tmp: _recover_argv(tmp, _set_orders(
        lambda doc: doc["coefficients"]["1"], z=-2)), "'orders'"),
    "traces orders h by k": (lambda tmp: _recover_argv(tmp, _set_orders(
        lambda doc: doc["coefficients"]["2"], h=0)), "k=2"),
    "bnf n 5": (lambda tmp: _forward_argv(tmp, _rt1_with(
        lambda doc: doc.update(n=5))), "'n'"),
    "roundtrip bnf n 2": (lambda tmp: [
        "roundtrip", "--bnf", _doc_file(tmp, _rt1_with(
            lambda doc: doc.update(n=2))),
        "--orders", "4,3,3", "--kmax", "8"], "'n'"),
    "traces coefficients k=0": (lambda tmp: _recover_argv(
        tmp, lambda doc: doc["coefficients"].update(
            {"0": doc["coefficients"]["1"]})), "'coefficients'"),
    "traces coefficients k=-1": (lambda tmp: _recover_argv(
        tmp, lambda doc: doc["coefficients"].update(
            {"-1": doc["coefficients"]["1"]})), "'coefficients'"),
    "traces maslov k=0": (lambda tmp: _recover_argv(
        tmp, lambda doc: doc["maslov"].update({"0": 1})), "'maslov'"),
    "traces maslov k=-1": (lambda tmp: _recover_argv(
        tmp, lambda doc: doc["maslov"].update({"-1": 1})), "'maslov'"),
    "action maslov k=0": (lambda tmp: _action_argv(tmp, {"0": 1}),
                          "'maslov'"),
    "action maslov k=-1": (lambda tmp: _action_argv(tmp, {"-1": 1}),
                           "'maslov'"),
}


@pytest.mark.parametrize("case", list(_UNCHECKED))
def test_input_between_the_checks_exits_two(case, tmp_path, capsys):
    make_argv, named = _UNCHECKED[case]
    rc = main(make_argv(tmp_path))
    out, err = capsys.readouterr()
    assert rc == 2
    assert "input error" in err and named in err
    assert "Traceback" not in err
    assert "round trip ok" not in out
    assert not (tmp_path / "t.json").exists()


def test_classical_bnf_command(tmp_path, capsys):
    from bnftrace.classical import TaylorMap

    th = 1.0
    comps = [{(1, 0): FF.one * math.cos(th), (0, 1): -FF.one * math.sin(th)},
             {(1, 0): FF.one * math.sin(th), (0, 1): FF.one * math.cos(th)}]
    tm = TaylorMap(FF, 1, 5, comps)
    path = tmp_path / "map.json"
    jsonio.dump(path, jsonio.taylor_map_to_json(tm))
    rc = main(["classical-bnf", "--map", str(path), "--degree", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "blocks" in out


def test_classical_bnf_rejects_non_symplectic(tmp_path, capsys):
    path = tmp_path / "bad_map.json"
    jsonio.dump(path, {
        "field": "float", "n": 1, "degree": 3,
        "components": [
            [{"exps": [1, 0], "re": "2.0", "im": "0.0"}],
            [{"exps": [0, 1], "re": "1.0", "im": "0.0"}],
        ],
    })
    rc = main(["classical-bnf", "--map", str(path)])
    assert rc == 2


def test_classical_bnf_of_a_flow_cut_below_its_twist(tmp_path, capsys):
    """The degree-4 flow of a quadratic twist (rh 0.7, elliptic 1.1i), cut
    to degree 3, keeps the twist's degree-3 flow terms: the normal form
    gives back R and its defect is at the rounding level."""
    from bnftrace.blocks import ELLIPTIC
    from bnftrace.classical import (TaylorMap, iota_real_to_complex,
                                    normal_form_flow)

    blocks = SpectrumBlocks.from_mu(FF, [(REAL_HYPERBOLIC, 0.7),
                                         (ELLIPTIC, 1.1j)])
    R = iota_real_to_complex(blocks.tags, {(2, 0): 0.13 + 0j,
                                           (1, 1): -0.21 + 0j,
                                           (0, 2): 0.08 + 0j}, FF)
    flow = TaylorMap(FF, 2, 3, normal_form_flow(blocks, R, 4).pmap.comps)
    path = tmp_path / "map.json"
    report = tmp_path / "report.json"
    jsonio.dump(path, jsonio.taylor_map_to_json(flow))
    assert main(["classical-bnf", "--map", str(path), "--degree", "2",
                 "--report", str(report)]) == 0
    out = capsys.readouterr().out
    defect = out.split("normal form defect at truncation:")[1].split()[0]
    assert float(defect) < 1e-12
    got = {tuple(t["m"]): complex(float(t["re"]), float(t["im"]))
           for t in json.loads(report.read_text())["p"] if sum(t["m"]) >= 2}
    assert set(got) == set(R)
    assert all(abs(got[m] - c) <= 1e-9 for m, c in R.items())


def _strict_json(path):
    """The JSON file at ``path``, refusing NaN, Infinity and -Infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


def test_classical_report_of_a_linear_map_is_strict_json(tmp_path, capsys):
    """diag(2, 1/2) at degree 1 has no homological denominator, so its
    smallest one is infinite: the report writes null for it."""
    path = tmp_path / "lin.json"
    report = tmp_path / "rep.json"
    jsonio.dump(path, {
        "field": "float", "n": 1, "degree": 1,
        "components": [[{"exps": [1, 0], "re": "2.0", "im": "0.0"}],
                       [{"exps": [0, 1], "re": "0.5", "im": "0.0"}]],
    })
    assert main(["classical-bnf", "--map", str(path), "--degree", "1",
                 "--report", str(report)]) == 0
    assert "denominator: inf" in capsys.readouterr().out
    rep = _strict_json(report)
    assert rep["conditioning"] is None
    assert rep["residual"] == 0.0


def test_recovery_report_writes_non_finite_numbers_as_null(tmp_path):
    from bnftrace.recover import RecoveryReport

    _F, bnf, _action = rt1()
    rep = RecoveryReport(bnf, {(1, 1, 0): math.nan, (1, 2, 0): 1e-3,
                               (2, 1, 1): 2e-3},
                         math.inf, {"prony": 3.5, "h1:z0": math.inf},
                         [], True)
    path = tmp_path / "report.json"
    jsonio.dump(path, jsonio.recovery_report_to_json(rep))
    doc = _strict_json(path)
    assert doc["max_residual"] is None
    assert doc["residual_by_stage"] == {"h1:z0": None, "h2:z1": 2e-3}
    assert doc["conditioning"] == {"prony": 3.5, "h1:z0": None}


def test_dump_refuses_a_non_finite_number(tmp_path):
    with pytest.raises(ValueError):
        jsonio.dump(tmp_path / "x.json", {"x": math.inf})


# each subcommand takes the options it reads, and no others
SUBCOMMAND_OPTIONS = {
    "forward": {"--bnf", "--action", "--precision", "--orders", "--kmax",
                "--out"},
    "recover": {"--traces", "--precision", "--tol-residual", "--out",
                "--report"},
    "roundtrip": {"--bnf", "--precision", "--orders", "--kmax",
                  "--tol-residual", "--report"},
    "classical-bnf": {"--map", "--degree", "--tol-resonance", "--report"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    ap = build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(SUBCOMMAND_OPTIONS)
    for name, parser in sub.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings}
        assert flags - {"-h", "--help"} == SUBCOMMAND_OPTIONS[name], name


# a dropped option or subcommand, as argv given the path of a matrix file,
# with the usage error it gives; the pole tolerance is fixed at 1e-9, the
# nonresonance tolerance of the trace paths at 1e-8, and a float stage is
# gated on cond * u against --tol-residual
_DROPPED = {
    "classify": (lambda path: ["classify", "--matrix", path],
                 "invalid choice: 'classify'"),
    "oracle": (lambda path: ["oracle", "lattice-sum", "--exp-half", "2"],
               "invalid choice: 'oracle'"),
    "forward-tol-pole": (lambda path: ["forward", "--bnf", path,
                                       "--tol-pole", "1e-9"],
                         "unrecognized arguments: --tol-pole 1e-9"),
    "recover-n": (lambda path: ["recover", "--traces", path, "--n", "1"],
                  "unrecognized arguments: --n 1"),
    "recover-tol-pole": (lambda path: ["recover", "--traces", path,
                                       "--tol-pole", "1e-9"],
                         "unrecognized arguments: --tol-pole 1e-9"),
    "roundtrip-tol-pole": (lambda path: ["roundtrip", "--bnf", path,
                                         "--tol-pole", "1e-9"],
                           "unrecognized arguments: --tol-pole 1e-9"),
    "recover-tol-conditioning": (
        lambda path: ["recover", "--traces", path,
                      "--tol-conditioning", "1e8"],
        "unrecognized arguments: --tol-conditioning 1e8"),
    "roundtrip-tol-conditioning": (
        lambda path: ["roundtrip", "--bnf", path, "--tol-conditioning", "1e8"],
        "unrecognized arguments: --tol-conditioning 1e8"),
    "forward-tol-resonance": (
        lambda path: ["forward", "--bnf", path, "--tol-resonance", "1e-8"],
        "unrecognized arguments: --tol-resonance 1e-8"),
    "roundtrip-tol-resonance": (
        lambda path: ["roundtrip", "--bnf", path, "--tol-resonance", "1e-8"],
        "unrecognized arguments: --tol-resonance 1e-8"),
    # the recovery reads neither the action nor the Maslov table
    "roundtrip-action": (
        lambda path: ["roundtrip", "--bnf", path, "--action", "x.json"],
        "unrecognized arguments: --action x.json"),
}


@pytest.mark.parametrize("case", list(_DROPPED))
def test_dropped_option_is_rejected(case, tmp_path, capsys):
    make_argv, message = _DROPPED[case]
    path = tmp_path / "mat.json"
    jsonio.dump(path, {"matrix": [[1.0, 0.0], [0.0, 1.0]]})
    with pytest.raises(SystemExit) as exc:
        main(make_argv(str(path)))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("opts, message", [
    (["--kmax", "0"], "k_max"),
    (["--orders", "a,b,c"], "--orders"),
    (["--orders", "4,3"], "--orders"),
])
def test_bad_truncation_options_are_input_errors(rt1_file, tmp_path, capsys,
                                                 opts, message):
    rc = main(["forward", "--bnf", rt1_file, "--out", str(tmp_path / "t.json")]
              + opts)
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("precision", ["0", "32"])
def test_precision_below_64_is_an_input_error(rt1_file, tmp_path, capsys,
                                              precision):
    rc = main(["forward", "--bnf", rt1_file, "--precision", precision,
               "--out", str(tmp_path / "t.json")])
    assert rc == 2
    assert "precision must be >= 64" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("cmd, option", [
    ("forward", "--tol-resonance"),
    ("recover", "--tol-conditioning"),
    ("recover", "--tol-residual"),
    ("roundtrip", "--tol-resonance"),
    ("roundtrip", "--tol-conditioning"),
    ("roundtrip", "--tol-residual"),
])
def test_non_finite_tolerance_is_an_input_error(rt1_file, tmp_path, capsys,
                                                cmd, option, value):
    """A nan tolerance would turn its check off and an inf one would pass
    anything, so both are refused before any work, naming the option.
    recover's and roundtrip's --tol-conditioning and forward's and
    roundtrip's --tol-resonance are not options: usage errors, also exit
    2."""
    traces = str(tmp_path / "traces.json")
    if cmd == "recover":
        assert main(["forward", "--bnf", rt1_file, "--out", traces]) == 0
        capsys.readouterr()
    out = str(tmp_path / "out.json")
    argv = {"forward": ["forward", "--bnf", rt1_file, "--out", out],
            "recover": ["recover", "--traces", traces,
                        "--out", out],
            "roundtrip": ["roundtrip", "--bnf", rt1_file]}[cmd]
    try:
        rc = main(argv + [f"{option}={value}"])
    except SystemExit as exc:  # argparse's usage error
        rc = exc.code
    stdout, err = capsys.readouterr()
    assert rc == 2
    if option in SUBCOMMAND_OPTIONS[cmd]:
        name = option[2:].replace("-", "_")
        assert (f"{name} must be positive and finite, got {float(value)!r}"
                in err)
    else:
        assert f"unrecognized arguments: {option}={value}" in err
    assert stdout == ""
    assert not (tmp_path / "out.json").exists()


def test_serialization_round_trips_exact():
    F, bnf, action = rt1()
    # QuantumBNF
    b2 = jsonio.qbnf_from_json(jsonio.qbnf_to_json(bnf))
    assert b2.F == bnf.F and b2.mu_jets[0] == bnf.mu_jets[0]
    assert list(b2.blocks.exp_half) == list(bnf.blocks.exp_half)
    # TraceData
    td = make_trace_data(bnf, action, {1: 2}, 4, (3, 3))
    td2 = jsonio.trace_data_from_json(jsonio.trace_data_to_json(td))
    assert td2.phase == td.phase
    assert td2.maslov == td.maslov
    for k in range(1, 5):
        assert td2.coefficients[k] == td.coefficients[k]
    # series
    s2 = jsonio.series_from_json(jsonio.series_to_json(bnf.F))
    assert s2 == bnf.F


def test_taylor_map_serialization_roundtrip():
    from bnftrace.classical import TaylorMap

    tm = TaylorMap(FR, 1, 3, [{(1, 0): FR.from_int(4)},
                              {(0, 1): FR.from_rational("1/4")}])
    tm2 = jsonio.taylor_map_from_json(jsonio.taylor_map_to_json(tm))
    for c1, c2 in zip(tm.pmap.comps, tm2.pmap.comps):
        assert c1.terms == c2.terms


def test_float_roundtrip_real_hyperbolic_exponent_is_real(tmp_path, capsys):
    _F, bnf = mixed_float_fixture(31, with_jets=True)
    path = tmp_path / "bnf.json"
    report = tmp_path / "report.json"
    jsonio.dump(path, jsonio.qbnf_to_json(bnf))
    rc = main(["roundtrip", "--bnf", str(path), "--orders", "3,2,2",
               "--kmax", "12", "--report", str(report)])
    assert rc == 0
    assert "round trip ok" in capsys.readouterr().out
    blocks = json.load(open(report))["recovered"]["blocks"]
    rh = [b for b in blocks if b["type"] == "real_hyperbolic"]
    assert len(rh) == 1
    assert float(rh[0]["exp_half_mu"]["im"]) == 0.0
    assert rh[0]["mu_display"][1] == 0.0


def _blocks_swapped(bnf):
    """The same n=2 normal form with its two blocks listed the other way."""
    f = bnf.field
    blocks = SpectrumBlocks(f, bnf.blocks.tags[::-1], bnf.blocks.exp_half[::-1])
    F = MultiSeries(f, 2, bnf.F.orders,
                    {(alpha[::-1], m, l): c
                     for (alpha, m, l), c in bnf.F.terms.items()})
    return QuantumBNF(blocks, bnf.mu_jets[::-1], F)


@pytest.mark.parametrize("swapped", [False, True])
def test_roundtrip_refuses_non_canonical_block_order(tmp_path, capsys,
                                                     swapped):
    # canonical: (rh E=sqrt 3, elliptic E=e^{0.5i}); swapped: elliptic first
    _F, bnf = mixed_float_fixture(7)
    if swapped:
        bnf = _blocks_swapped(bnf)
    path = tmp_path / "bnf.json"
    jsonio.dump(path, jsonio.qbnf_to_json(bnf))
    rc = main(["roundtrip", "--bnf", str(path), "--orders", "3,2,2",
               "--kmax", "12"])
    out, err = capsys.readouterr()
    if swapped:
        assert rc == 2
        assert "canonical order" in err and "[1, 0]" in err
        assert out == ""
    else:
        assert rc == 0
        assert "round trip ok" in out


def _rh_pair_file(tmp_path, field, exp_half, terms):
    """A z-free normal form of two real hyperbolic blocks of the given E
    and F = ``terms`` at F orders (4, 0, 2), on ``field``, as a file."""
    blocks = SpectrumBlocks(field, [REAL_HYPERBOLIC] * 2, exp_half)
    F = MultiSeries(field, 2, Orders(4, 0, 2), terms)
    path = tmp_path / f"bnf-{field.name}.json"
    jsonio.dump(path, jsonio.qbnf_to_json(
        QuantumBNF(blocks, [zseries(field, 0)] * 2, F)))
    return str(path)


# an F of degree 1 to 3 at E = 7/5 and 19/10, on either field
_PAIR_TERMS = {((2, 0), 0, 0): "1/7", ((1, 1), 0, 0): "-1/3",
               ((0, 2), 0, 0): "1/5", ((3, 0), 0, 0): "1/6",
               ((1, 0), 0, 1): "1/4", ((0, 1), 0, 2): "-1/8",
               ((0, 0), 0, 2): "2/9"}


def test_exact_roundtrip_is_not_gated_on_conditioning(tmp_path, capsys):
    """rh+rh at E = 7/5 and 19/10, orders (4, 0, 2): stage h2:z0 has
    condition number 1.5e9, which times the double unit roundoff 2^-53
    exceeds the default tolerance, so the float twin of the input is
    refused there.  The exact recovery verifies every equation and is
    bit-exact, so it is not gated."""
    report = tmp_path / "report.json"
    for field in (FR, FF):
        path = _rh_pair_file(
            tmp_path, field, [field.from_rational("7/5"),
                              field.from_rational("19/10")],
            {key: field.from_rational(v) for key, v in _PAIR_TERMS.items()})
        rc = main(["roundtrip", "--bnf", path, "--orders", "4,0,2",
                   "--kmax", "16", "--report", str(report)])
        out, err = capsys.readouterr()
        if field.exact:
            assert rc == 0
            assert "equals the input exactly" in out
            rep = json.load(open(report))
            assert rep["max_residual"] == 0
            cond = rep["conditioning"]["h2:z0"]
            assert cond > 2 ** 53 * 1e-8
        else:  # the two fields report one condition number
            assert rc == 3
            assert f"stage h2:z0 has condition number {cond:.3e}" in err
            assert "round trip ok" not in out


def _rh_pair_float_file(tmp_path):
    """The float-trust input: rh+rh at mu 0.7 and 1.3, z-free, a random F
    of degree 1 to 3.  With no gate its double recovery comes back off by
    ~1.7e-7, about cond(h2:z0) times 2^-53, with a self-check of ~2e-15."""
    return _rh_pair_file(
        tmp_path, FF, [cmath.exp(0.35), cmath.exp(0.65)],
        random_F_total_degree(FF, 2, random.Random(0)).terms)


@pytest.mark.parametrize("cmd", ["roundtrip", "recover"])
def test_float_stage_above_the_double_roundoff_is_refused(tmp_path, capsys,
                                                          cmd):
    """In doubles, cond(h2:z0) * 2^-53 = 1.8e-7 exceeds the default
    tolerance 1e-8: both paths exit 3 and name the stage, its condition
    number, the precision and the tolerance, and none writes a result."""
    path = _rh_pair_float_file(tmp_path)
    out = str(tmp_path / "out.json")
    if cmd == "roundtrip":
        rc = main(["roundtrip", "--bnf", path, "--orders", "4,0,2",
                   "--kmax", "16"])
    else:
        traces = str(tmp_path / "traces.json")
        assert main(["forward", "--bnf", path, "--orders", "4,0,2",
                     "--kmax", "16", "--out", traces]) == 0
        capsys.readouterr()
        rc = main(["recover", "--traces", traces, "--out", out])
    stdout, err = capsys.readouterr()
    assert rc == 3
    assert ("stage h2:z0 has condition number 1.625e+09, which times the "
            "64-bit unit roundoff" in err)
    assert "exceeds the tolerance 1.0e-08" in err
    assert stdout == ""
    assert not os.path.exists(out)


def test_float_stage_is_gated_at_its_own_precision(tmp_path, capsys):
    """The same input at 128 bits: cond * 2^-128 is far below the
    tolerance, and the round trip is right."""
    rc = main(["roundtrip", "--bnf", _rh_pair_float_file(tmp_path),
               "--orders", "4,0,2", "--kmax", "16", "--precision", "128"])
    assert rc == 0
    assert "round trip ok" in capsys.readouterr().out


def test_forward_at_128_bits_writes_every_bit(tmp_path, capsys):
    """Traces written at 128 bits read back equal to the ones computed in
    memory, not rounded through doubles."""
    G = FloatField()
    blocks = SpectrumBlocks(G, [REAL_HYPERBOLIC], [G.from_rational("3/2")])
    F = MultiSeries(G, 1, Orders(3, 1, 2), {
        ((2,), 0, 0): G.from_rational("1/4"), ((1,), 0, 1): G.from_rational("1/2"),
    })
    path = tmp_path / "bnf.json"
    traces = tmp_path / "traces.json"
    jsonio.dump(path, jsonio.qbnf_to_json(
        QuantumBNF(blocks, [zseries(G, 1, {1: G.one})], F)))
    rc = main(["forward", "--bnf", str(path), "--precision", "128",
               "--orders", "3,1,2", "--kmax", "6", "--out", str(traces)])
    assert rc == 0
    bnf = jsonio.qbnf_from_json(jsonio.load(path), 128)
    action = zseries(bnf.field, 1, {1: bnf.field.one})
    want = make_trace_data(bnf, action, {}, 6, (1, 2))
    got = jsonio.trace_data_from_json(jsonio.load(traces), 128)
    assert got.phase == want.phase
    for k in range(1, 7):
        assert got.coefficients[k] == want.coefficients[k]


def _rh_file(tmp_path, *Es, field=FR):
    """Normal form of real hyperbolic blocks of the given E, each with jet
    z/3, and F = iota_1^2/4 + h/5 at F orders (2, 1, 1), on ``field``, as a
    file."""
    n = len(Es)
    blocks = SpectrumBlocks(field, [REAL_HYPERBOLIC] * n,
                            [field.from_rational(E) for E in Es])
    F = MultiSeries(field, n, Orders(2, 1, 1), {
        ((2,) + (0,) * (n - 1), 0, 0): field.from_rational("1/4"),
        ((0,) * n, 0, 1): field.from_rational("1/5")})
    jets = [zseries(field, 1, {1: field.from_rational("1/3")})] * n
    path = tmp_path / "bnf.json"
    jsonio.dump(path, jsonio.qbnf_to_json(QuantumBNF(blocks, jets, F)))
    return str(path)


@pytest.mark.parametrize("E, kmax", [
    (E, kmax) for E in ("3", "2000003/1000000", "20000039/10000000",
                        "1000000000000/7") for kmax in ("6", "8")
] + [
    ("100000000000000000000", "6"),
    # sample moduli above 1e154, whose squares overflow a float
    ("100000000000000000000", "8"),
    ("1000000000000000000000000/7", "8"),
])
def test_exact_n1_roundtrip_over_a_range_of_exponents(tmp_path, capsys, E,
                                                      kmax):
    """Exact stage 0 over E from 3 to 1e20: denominators up to 1e7 and
    roots that spread over 40 decades, which take the 240-bit fit (its
    roots need mpmath's extra working precision)."""
    rc = main(["roundtrip", "--bnf", _rh_file(tmp_path, E), "--orders",
               "2,1,1", "--kmax", kmax])
    assert rc == 0
    assert "equals the input exactly" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exact_samples_beyond_the_double_range_recover_or_exit_three(
        tmp_path, capsys):
    """E = 1e40 at kmax 8 gives samples near 1e320: the double fit
    overflows, and where the 240-bit fit fails as well the round trip is
    an exit-3 refusal, not a traceback."""
    rc = main(["roundtrip", "--bnf", _rh_file(tmp_path, str(10 ** 40)),
               "--orders", "2,1,1", "--kmax", "8"])
    out, err = capsys.readouterr()
    if rc == 0:
        assert "equals the input exactly" in out
    else:
        assert rc == 3
        assert "no exact fit of the samples" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exact_samples_beyond_the_double_range_exit_three_not_one(
        tmp_path, capsys):
    """E = 10^60/7: the exact Hankel system of stage 0 has entries beyond
    the double range, whose condition number is read off a snapshot scaled
    by a power of two; the fits still fail, which is an exit-3 refusal
    and not an OverflowError traceback (exit 1).  The 240-bit fit solves
    in the field, so it no longer fails on a double snapshot of its
    samples."""
    rc = main(["roundtrip", "--bnf", _rh_file(tmp_path, f"{10 ** 60}/7"),
               "--orders", "2,1,1", "--kmax", "8"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "no exact fit of the samples" in err
    assert "SVD did not converge" not in err


def test_extended_samples_below_the_double_range_recover(tmp_path, capsys):
    """rh E = 1e10 at 240 bits, kmax 32: the leading coefficients fall to
    ~1e-310 by k = 31, below the double range but not below 240 bits, and
    stage 0 takes them as samples.  Stage h0:z1 has condition number
    5.7e20, which the gate passes at 240 bits with no option."""
    rc = main(["roundtrip", "--bnf", _rh_file(tmp_path, "1e10", field=FF),
               "--orders", "2,1,1", "--kmax", "32", "--precision", "240"])
    assert rc == 0
    assert "round trip ok" in capsys.readouterr().out


def test_exact_fit_that_does_not_verify_exits_three(tmp_path, capsys):
    """E_2 = 2 + 10^-40 has a denominator above the bound of either float
    fit: no rationalized fit meets the samples, and the round trip is
    refused rather than answered inexactly."""
    rc = main(["roundtrip", "--bnf",
               _rh_file(tmp_path, "3/2", f"{2 * 10 ** 40 + 1}/{10 ** 40}"),
               "--orders", "2,1,1", "--kmax", "10"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert "misses the samples by" in err
    assert "round trip ok" not in out


_RENAMED = object()


def _corrupt(obj, path, value):
    """Set ``obj[path[0]][path[1]]...`` to ``value``; ``_RENAMED`` renames
    the last key to ``"abc"`` instead."""
    for key in path[:-1]:
        obj = obj[key]
    if value is _RENAMED:
        obj["abc"] = obj.pop(path[-1])
    else:
        obj[path[-1]] = value


@pytest.mark.parametrize("path, value", [
    (("coefficients", "1", "terms", 0, "re"), "abc"),
    (("coefficients", "1", "terms", 0, "re"), "1/0"),
    (("coefficients", "1", "terms", 0, "im"), None),
    (("coefficients", "1"), _RENAMED),
    (("maslov", "1"), "x"),
])
def test_malformed_number_in_traces_exits_two(rt1_file, tmp_path, capsys,
                                              path, value):
    traces = tmp_path / "traces.json"
    assert main(["forward", "--bnf", rt1_file, "--orders", "2,1,1",
                 "--kmax", "6", "--out", str(traces)]) == 0
    doc = json.load(open(traces))
    _corrupt(doc, path, value)
    jsonio.dump(traces, doc)
    capsys.readouterr()
    rc = main(["recover", "--traces", str(traces),
               "--out", str(tmp_path / "rec.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "malformed number under key" in err


@pytest.mark.parametrize("field, value", [("rational", "two"),
                                          ("float", "abc")])
def test_malformed_number_in_bnf_exits_two(tmp_path, capsys, field, value):
    G = FR if field == "rational" else FF
    blocks = SpectrumBlocks(G, [REAL_HYPERBOLIC], [G.from_int(2)])
    F = MultiSeries(G, 1, Orders(2, 1, 1), {((2,), 0, 0): G.from_int(1)})
    doc = jsonio.qbnf_to_json(QuantumBNF(blocks, [zseries(G, 1)], F))
    doc["F"]["terms"][0]["re"] = value
    path = tmp_path / "bnf.json"
    jsonio.dump(path, doc)
    rc = main(["forward", "--bnf", str(path), "--orders", "2,1,1",
               "--kmax", "6", "--out", str(tmp_path / "t.json")])
    assert rc == 2
    assert f"malformed number under key 're'/'im': {value!r}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("field, part, value", [
    ("rational", "re", "1e4301"), ("rational", "re", "-1e-4301"),
    ("rational", "im", "1E+4301"), ("float", "im", "1e4301"),
    ("float", "im", "1e-4301")])
def test_a_decimal_exponent_beyond_4300_is_an_input_error(
        tmp_path, capsys, field, part, value):
    """Fraction builds ten to the power of a decimal exponent, which for
    1e999999999 hangs the reader, so an exponent above 4300 in magnitude,
    Python's default limit on integer text, is refused, of either sign.
    The float field reads both parts through Fraction when one holds a
    '/'."""
    G = FR if field == "rational" else FF
    blocks = SpectrumBlocks(G, [REAL_HYPERBOLIC], [G.from_int(2)])
    F = MultiSeries(G, 1, Orders(2, 1, 1), {((2,), 0, 0): G.from_int(1)})
    doc = jsonio.qbnf_to_json(QuantumBNF(blocks, [zseries(G, 1)], F))
    doc["F"]["terms"][0].update({"re": "1/3", part: value})
    path = tmp_path / "bnf.json"
    jsonio.dump(path, doc)
    rc = main(["forward", "--bnf", str(path), "--orders", "2,1,1",
               "--kmax", "6", "--out", str(tmp_path / "t.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "malformed number under key 're'/'im'" in err
    assert "decimal exponent" in err


def test_a_decimal_exponent_of_4300_reads():
    for text, want in (("1e4300", 10 ** 4300),
                       ("-2.5E-4300", Fraction(-25, 10 ** 4301))):
        assert jsonio.scalar_from_json(FR, {"re": text}) == \
            FR.from_rational(want)
    assert jsonio.scalar_from_json(FF, {"re": "1/2", "im": "1e-4300"}) == \
        0.5 + 0j


def _rt1_with_f(text):
    """rt1's normal form document with F's iota^2 coefficient 1/7 replaced
    by ``text``."""
    def mutate(doc):
        next(t for t in doc["F"]["terms"] if t["iota"] == [2])["re"] = text
    return _rt1_with(mutate)


@pytest.mark.parametrize("text", ["1e160", "1e300", "1e4000"])
def test_exact_round_trip_beyond_the_double_range(tmp_path, capsys, text):
    """Trace values beyond the double range: the exact self-check reads
    their size as inf and compares the values exactly, so the round trip
    gives back the input with a zero residual."""
    report = tmp_path / "report.json"
    assert main(["roundtrip", "--bnf", _doc_file(tmp_path, _rt1_with_f(text)),
                 "--orders", "4,3,3", "--kmax", "8",
                 "--report", str(report)]) == 0
    assert "exactly" in capsys.readouterr().out
    assert json.loads(report.read_text())["max_residual"] == 0.0


def test_exact_recover_beyond_the_double_range(tmp_path):
    """``recover`` from a trace file whose values leave the double range
    gives back the normal form exactly."""
    doc = _rt1_with_f("1e160")
    assert main(_forward_argv(tmp_path, doc)) == 0
    assert main(["recover", "--traces", str(tmp_path / "t.json"),
                 "--out", str(tmp_path / "r.json")]) == 0
    want = jsonio.qbnf_from_json(doc)
    got = jsonio.qbnf_from_json(jsonio.load(tmp_path / "r.json"))
    assert got.F == want.F and got.mu_jets == want.mu_jets


def test_a_trace_integer_beyond_the_text_limit_exits_three(tmp_path, capsys):
    """An exact trace coefficient whose integer has more digits than
    Python writes as text is refused, naming the power and the term, and
    no trace file is written."""
    assert main(_forward_argv(tmp_path, _rt1_with_f("1e4000"))) == 3
    err = capsys.readouterr().err
    assert err.startswith("math error: trace power k=1: the coefficient of "
                          "z^0 h^2 has an integer of more than 4300 digits")
    assert not (tmp_path / "t.json").exists()


def test_trace_coefficients_with_action_slots_are_an_input_error(
        tmp_path, capsys):
    """The recovery reads the plain z-series keys of the trace
    coefficients, so a series with an action slot would read as zeros:
    the trace file is refused, naming the power."""
    def slotted(doc):
        series = doc["coefficients"]["2"]
        series["n_actions"] = 1
        for term in series["terms"]:
            term["iota"] = [0]

    rc = main(_recover_argv(tmp_path, slotted))
    assert rc == 2
    assert ("trace coefficients for k=2 must be a plain z-series"
            in capsys.readouterr().err)
    assert not (tmp_path / "t.json").exists()


def _n1_file(tmp_path, F_terms, jet):
    """n=1 normal form (rh E=3) at F orders (4, 3, 3) as a file."""
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(3)])
    F = MultiSeries(FR, 1, Orders(4, 3, 3),
                    {key: FR.from_rational(c) for key, c in F_terms.items()})
    bnf = QuantumBNF(blocks, [zseries(FR, 3, jet)], F)
    path = tmp_path / "bnf.json"
    jsonio.dump(path, jsonio.qbnf_to_json(bnf))
    return str(path)


@pytest.mark.parametrize("F_terms, jet, orders, named", [
    # F = iota^2/7 + h/5 with jet z at h-order 0: the recovered F holds the
    # h^1 term but no iota^2 term, and the jet's z term is above z^0
    ({((2,), 0, 0): "1/7", ((0,), 0, 1): "1/5"}, {1: 1}, "2,0,0",
     "F term iota^[2] z^0 h^0"),
    ({((2,), 0, 0): "1/7"}, {}, "2,1,0", "F term iota^[2] z^0 h^0"),
    # l + |alpha| = 2 = N_h + 1, but l = 2 > N_h
    ({((2,), 0, 0): "1/7", ((0,), 0, 2): "1/9"}, {1: 1}, "2,1,1",
     "F term iota^[0] z^0 h^2"),
    ({((2,), 0, 0): "1/7", ((1,), 2, 1): "1/3"}, {1: 1}, "2,1,1",
     "F term iota^[1] z^2 h^1"),
    ({((2,), 0, 0): "1/7"}, {1: 1, 2: "1/3"}, "2,1,1",
     "z^2 term of mu-jet 0"),
])
def test_roundtrip_refuses_terms_it_cannot_recover(tmp_path, capsys, F_terms,
                                                   jet, orders, named):
    path = _n1_file(tmp_path, F_terms,
                    {m: FR.from_rational(c) for m, c in jet.items()})
    rc = main(["roundtrip", "--bnf", path, "--orders", orders, "--kmax", "8"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert f"cannot recover the {named}:" in err
    assert out == ""


def test_roundtrip_accepts_the_recoverable_set(tmp_path, capsys):
    """Every term at the edge of the recoverable set at orders (1, 1):
    l + |alpha| = 2, l = 1 and m = 1, with the jet up to z^1."""
    path = _n1_file(tmp_path, {((2,), 1, 0): "1/7", ((1,), 1, 1): "1/3",
                               ((0,), 1, 1): "1/5"}, {1: FR.one})
    rc = main(["roundtrip", "--bnf", path, "--orders", "2,1,1", "--kmax", "8"])
    assert rc == 0
    assert "equals the input exactly" in capsys.readouterr().out


def test_roundtrip_recovers_h1_terms_at_h_order_zero(tmp_path, capsys):
    """At h-order 0 the recovery still solves for f00 and f01, which are
    h^1 terms: F = h/5 + z h/3 with jet z round-trips at orders (1, 1, 0)."""
    path = _n1_file(tmp_path, {((0,), 0, 1): "1/5", ((0,), 1, 1): "1/3"},
                    {1: FR.one})
    rc = main(["roundtrip", "--bnf", path, "--orders", "1,1,0", "--kmax", "8"])
    assert rc == 0
    assert "equals the input exactly" in capsys.readouterr().out


def test_exact_roundtrip_mismatch_in_one_coefficient_exits_three(
        rt1_file, capsys, monkeypatch):
    """The exact round trip compares through QuantumBNF.close_to, which is
    equality on the rational field: a recovered F off by 1/1000 in one
    coefficient is a mismatch."""
    recover = cli.recover_qbnf

    def off_by_one_coefficient(*args, **kwargs):
        rep = recover(*args, **kwargs)
        F = rep.recovered.F
        key = ((1,), 0, 1)
        terms = dict(F.terms)
        terms[key] = terms[key] + FR.from_rational("1/1000")
        rep.recovered = QuantumBNF(rep.recovered.blocks,
                                   rep.recovered.mu_jets,
                                   MultiSeries(FR, 1, F.orders, terms))
        return rep

    monkeypatch.setattr(cli, "recover_qbnf", off_by_one_coefficient)
    rc = main(["roundtrip", "--bnf", rt1_file, "--orders", "4,3,3",
               "--kmax", "8"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert "round trip mismatch" in err
    assert "round trip ok" not in out


@pytest.mark.parametrize("cmd", ["forward", "roundtrip"])
@pytest.mark.parametrize("orders, minimum", [("1,1,2", 3), ("3,3,3", 4),
                                             ("0,0,0", 1)])
def test_iota_order_below_h_plus_one_is_an_input_error(
        rt1_file, tmp_path, capsys, cmd, orders, minimum):
    """The trace at h-order H reads F through iota^(H+1), so a smaller
    IOTA would be ignored; the error names the minimum."""
    argv = [cmd, "--bnf", rt1_file, "--orders", orders, "--kmax", "6"]
    if cmd == "forward":
        argv += ["--out", str(tmp_path / "t.json")]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 2
    assert f"IOTA >= H + 1 = {minimum}" in err
    assert out == ""
    assert not (tmp_path / "t.json").exists()
