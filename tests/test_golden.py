"""Golden bytes of the exact CLI paths.

Exact outputs are part of the contract: a faster algorithm must give the
same bytes.  Each test runs one subcommand in-process on a fixed rational
normal form and compares the SHA-256 of the JSON it writes with a pinned
digest.  The round-trip report also carries float condition numbers from
numpy's SVD; a different LAPACK build could move their last bits, which
would show here as a changed report digest with an unchanged trace digest.
"""

import hashlib

from bnftrace import jsonio
from bnftrace.blocks import ELLIPTIC, REAL_HYPERBOLIC, SpectrumBlocks
from bnftrace.cli import main
from bnftrace.fields import RationalField
from bnftrace.qbnf import QuantumBNF
from bnftrace.series import MultiSeries, Orders, zseries

FR = RationalField()
q = FR.from_rational

FORWARD_N2_SHA256 = \
    "e9ba4d524dbdfc6f937565bfcf29706baf6e8782a5b24fee9f4a5ed9879093c3"
ROUNDTRIP_N1_REPORT_SHA256 = \
    "bbd45e23a631ca0d436b61cd9a9d7c473c25995130fb038ef07471f2e902dbfc"


def _n2_bnf():
    """rh E=2 and elliptic E=(3+4i)/5, z-dependent jets, F coupling both
    actions with a z-dependent f0."""
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC, ELLIPTIC],
                            [FR.from_int(2), q("3/5", "4/5")])
    jets = [zseries(FR, 3, {1: q("1/3")}),
            zseries(FR, 3, {1: q(0, "-1/2"), 2: q(0, "1/7")})]
    F = MultiSeries(FR, 2, Orders(4, 3, 3), {
        ((2, 0), 0, 0): q("1/7"),
        ((1, 1), 0, 0): q("-2/3"),
        ((0, 2), 1, 0): q("1/5"),
        ((1, 0), 0, 1): q("3/4"),
        ((0, 1), 2, 1): q("-1/9"),
        ((0, 0), 0, 1): q("2/9"),
        ((0, 0), 1, 1): q("-3/7"),
        ((2, 1), 0, 1): q("5/6"),
        ((1, 0), 1, 3): q("-1/2"),
    })
    return QuantumBNF(blocks, jets, F)


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
    jsonio.dump(bnf, jsonio.qbnf_to_json(_n2_bnf()))
    rc = main(["forward", "--bnf", str(bnf), "--orders", "4,3,3",
               "--kmax", "12", "--out", str(out)])
    assert rc == 0
    assert _sha256(out) == FORWARD_N2_SHA256


def test_roundtrip_n1_report_bytes(tmp_path, capsys):
    bnf = tmp_path / "bnf.json"
    report = tmp_path / "report.json"
    jsonio.dump(bnf, jsonio.qbnf_to_json(_n1_bnf()))
    rc = main(["roundtrip", "--bnf", str(bnf), "--orders", "4,3,3",
               "--kmax", "8", "--report", str(report)])
    assert rc == 0
    assert "exactly" in capsys.readouterr().out
    assert _sha256(report) == ROUNDTRIP_N1_REPORT_SHA256
