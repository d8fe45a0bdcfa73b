"""Golden bytes of the exact CLI paths and of the classical float path.

Exact outputs are part of the contract: a faster algorithm must give the
same bytes.  Each test runs one subcommand in-process on a fixed normal
form or map and compares the SHA-256 of the JSON it writes with a pinned
digest.  The round-trip report also carries float condition numbers,
which the package computes in pure Python from double snapshots of the
exact stage matrices, scaled as a float matrix is, so they do not depend
on a LAPACK build.
The classical-bnf report is all floats: its map is built by the same
sparse products, and the normalizer runs the package's own pure-Python
eigendecomposition, so it pins that the products sum in a fixed order.
"""

import hashlib

from helpers import mixed_float_fixture, n1_bnf, n2_bnf, n3_bnf

from bnftrace import jsonio
from bnftrace.blocks import ELLIPTIC, REAL_HYPERBOLIC, SpectrumBlocks
from bnftrace.classical import (TaylorMap, iota_real_to_complex,
                                normal_form_flow)
from bnftrace.cli import main
from bnftrace.fields import FloatField
from bnftrace.phasepoly import PhasePoly, exp_ham

FF = FloatField()

FORWARD_N2_SHA256 = \
    "e9ba4d524dbdfc6f937565bfcf29706baf6e8782a5b24fee9f4a5ed9879093c3"
FORWARD_N2_FLOAT_SHA256 = \
    "2261b3d48d07f2f8147535f692fb695831a5da604a99050c0d72922bc9a19d56"
FORWARD_N3_SHA256 = \
    "a1ce7343da14712d307b00cc6bf91db2bd53ed1ac8ef9a4d9e3966f640f8441a"
ROUNDTRIP_N1_REPORT_SHA256 = \
    "e0efa49c669333acd46adf30924fc9e7e2e0b294baab8c341e3fde2c60137fbb"
CLASSICAL_BNF_REPORT_SHA256 = \
    "c63c5d55618f6ad0a7af140141bdc457ea52ab98ad8335154266379ff9b84994"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_forward_n2_trace_bytes(tmp_path):
    bnf = tmp_path / "bnf.json"
    out = tmp_path / "traces.json"
    jsonio.dump(bnf, jsonio.qbnf_to_json(n2_bnf()))
    rc = main(["forward", "--bnf", str(bnf), "--orders", "4,3,3",
               "--kmax", "12", "--out", str(out)])
    assert rc == 0
    assert _sha256(out) == FORWARD_N2_SHA256


def test_forward_n3_trace_bytes(tmp_path):
    """Exact n = 3 (two rh blocks and one elliptic, z-dependent jets, 260
    F terms) at K = 8: every coefficient is a sum of many products whose
    denominators differ, so the digest pins how exact sums are reduced."""
    bnf = tmp_path / "bnf.json"
    out = tmp_path / "traces.json"
    jsonio.dump(bnf, jsonio.qbnf_to_json(n3_bnf()))
    rc = main(["forward", "--bnf", str(bnf), "--orders", "4,3,3",
               "--kmax", "8", "--out", str(out)])
    assert rc == 0
    assert _sha256(out) == FORWARD_N3_SHA256


def test_forward_n2_float_trace_bytes(tmp_path):
    """Doubles at float-n2-roundtrip's orders and K: rh mu = ln 3 and
    elliptic theta = 1 with z-dependent jets, 42 F terms, z-dependent f0.
    The digest pins every bit, the signs of zero parts included, so it
    fails when a product or a sum of the expansion runs in another
    order."""
    bnf = tmp_path / "bnf.json"
    out = tmp_path / "traces.json"
    jsonio.dump(bnf, jsonio.qbnf_to_json(
        mixed_float_fixture(0, with_jets=True)[1]))
    rc = main(["forward", "--bnf", str(bnf), "--orders", "3,2,2",
               "--kmax", "14", "--out", str(out)])
    assert rc == 0
    assert _sha256(out) == FORWARD_N2_FLOAT_SHA256


def test_roundtrip_n1_report_bytes(tmp_path, capsys):
    bnf = tmp_path / "bnf.json"
    report = tmp_path / "report.json"
    jsonio.dump(bnf, jsonio.qbnf_to_json(n1_bnf()))
    rc = main(["roundtrip", "--bnf", str(bnf), "--orders", "4,3,3",
               "--kmax", "8", "--report", str(report)])
    assert rc == 0
    assert "exactly" in capsys.readouterr().out
    assert _sha256(report) == ROUNDTRIP_N1_REPORT_SHA256


def _conjugated_flow_map(degree=5):
    """T^-1 o flow(R) o T on doubles, T = exp H_chi: the time-1 flow of
    <iota, mu> + R (rh mu 0.7, elliptic 1.1i, quadratic R in the real
    actions) conjugated by a cubic generator coupling both blocks."""
    blocks = SpectrumBlocks.from_mu(FF, [(REAL_HYPERBOLIC, 0.7),
                                         (ELLIPTIC, 1.1j)])
    r_real = {(2, 0): 0.13 + 0j, (1, 1): -0.21 + 0j, (0, 2): 0.08 + 0j}
    flow = normal_form_flow(
        blocks, iota_real_to_complex(blocks.tags, r_real, FF), degree)
    chi = PhasePoly(FF, 4, degree, {
        (3, 0, 0, 0): 0.11 + 0j, (1, 1, 1, 0): -0.07 + 0j,
        (0, 2, 0, 1): 0.05 + 0j, (1, 0, 1, 1): 0.09 + 0j,
        (0, 1, 2, 0): -0.12 + 0j, (0, 0, 0, 3): 0.06 + 0j})
    conj = exp_ham(chi.scale(-FF.one), 2, degree).compose(
        flow.pmap.compose(exp_ham(chi, 2, degree)))
    return TaylorMap(FF, 2, degree, conj.comps)


def test_classical_bnf_report_bytes(tmp_path, capsys):
    tmap = tmp_path / "map.json"
    report = tmp_path / "report.json"
    jsonio.dump(tmap, jsonio.taylor_map_to_json(_conjugated_flow_map()))
    rc = main(["classical-bnf", "--map", str(tmap), "--degree", "3",
               "--report", str(report)])
    assert rc == 0
    assert _sha256(report) == CLASSICAL_BNF_REPORT_SHA256
