"""Golden bytes of the exact CLI paths and of the classical float path.

Exact outputs are part of the contract: a faster algorithm must give the
same bytes.  Each test runs one subcommand in-process on a fixed normal
form or map and compares the SHA-256 of the JSON it writes with a pinned
digest.  The round-trip report also carries float condition numbers from
numpy's SVD; a different LAPACK build could move their last bits, which
would show here as a changed report digest with an unchanged trace digest.
The classical-bnf report is all floats: its map is built by the same
sparse products, and the normalizer runs numpy's eigendecomposition, so
it pins that the products sum in a fixed order, on one LAPACK build.
"""

import hashlib

from helpers import mixed_float_fixture, n2_bnf

from bnftrace import jsonio
from bnftrace.blocks import ELLIPTIC, REAL_HYPERBOLIC, SpectrumBlocks
from bnftrace.classical import (TaylorMap, iota_real_to_complex,
                                normal_form_flow)
from bnftrace.cli import main
from bnftrace.fields import FloatField, RationalField
from bnftrace.phasepoly import PhasePoly, exp_ham
from bnftrace.qbnf import QuantumBNF
from bnftrace.series import MultiSeries, Orders, zseries

FR = RationalField()
FF = FloatField()
q = FR.from_rational

FORWARD_N2_SHA256 = \
    "e9ba4d524dbdfc6f937565bfcf29706baf6e8782a5b24fee9f4a5ed9879093c3"
FORWARD_N2_FLOAT_SHA256 = \
    "2261b3d48d07f2f8147535f692fb695831a5da604a99050c0d72922bc9a19d56"
ROUNDTRIP_N1_REPORT_SHA256 = \
    "bbd45e23a631ca0d436b61cd9a9d7c473c25995130fb038ef07471f2e902dbfc"
CLASSICAL_BNF_REPORT_SHA256 = \
    "c63c5d55618f6ad0a7af140141bdc457ea52ab98ad8335154266379ff9b84994"


def _n1_bnf():
    """rt1's shape with E=3, a z^2 term in the jet, a z-dependent f0 and
    z- and h^2-terms above it."""
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(3)])
    jet = zseries(FR, 3, {1: FR.one, 2: q("-2/5")})
    F = MultiSeries(FR, 1, Orders(4, 3, 3), {
        ((2,), 0, 0): q("1/7"),
        ((1,), 0, 1): q("1/3"),
        ((0,), 0, 1): q("1/5"),
        ((0,), 1, 1): q("-3/4"),
        ((2,), 1, 1): q("2/9"),
        ((0,), 2, 2): q("5/8"),
    })
    return QuantumBNF(blocks, [jet], F)


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
    jsonio.dump(bnf, jsonio.qbnf_to_json(_n1_bnf()))
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
