import argparse
import json
import math

import numpy as np
import pytest

from helpers import mixed_float_fixture, rt1

from bnftrace import cli, jsonio
from bnftrace.blocks import REAL_HYPERBOLIC, SpectrumBlocks
from bnftrace.cli import build_parser, main
from bnftrace.fields import FloatField, RationalField
from bnftrace.oscillatory import OrbitExpansion, TestJet
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
    rc = main(["recover", "--traces", traces, "--n", "1",
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


def test_missing_key_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps({"field": "rational", "n": 1}))
    rc = main(["forward", "--bnf", str(bad)])
    assert rc == 2


def test_missing_file_exits_two(tmp_path):
    rc = main(["forward", "--bnf", str(tmp_path / "nope.json")])
    assert rc == 2


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
    rc = main(["recover", "--traces", traces, "--n", "1"])
    assert rc == 3
    assert "1..6" in capsys.readouterr().err


def test_oracle_lattice_sum_rational(capsys):
    rc = main(["oracle", "lattice-sum", "--exp-half", "2", "--k", "1",
               "--truncation", "60", "--backend", "rational"])
    assert rc == 0
    out = capsys.readouterr().out
    num, den = out.split()[0].split("/")
    assert abs(int(num) / int(den) - 2 / 3) < 1e-25


def test_oracle_lattice_sum_float_display(capsys):
    rc = main(["oracle", "lattice-sum", "--mu", "1.3862943611198906",
               "--truncation", "60"])
    assert rc == 0
    assert "0.666666" in capsys.readouterr().out


def test_oracle_csch_derivative(capsys):
    rc = main(["oracle", "csch-derivative", "--exp-half", "2",
               "--alpha", "2", "--backend", "rational"])
    assert rc == 0
    assert "41/54" in capsys.readouterr().out


def test_oracle_nonconvergent_exits_three(capsys):
    rc = main(["oracle", "lattice-sum", "--mu", "1j"])
    assert rc == 3


@pytest.mark.parametrize("flags", [
    ["--exp-half", "2", "--k", "0"],
    ["--exp-half", "2", "--k", "-1"],
    ["--exp-half", "2", "--truncation", "-1"],
    ["--exp-half", "2", "--alpha", "x"],
    ["--mu", "abc"],
    ["--exp-half", "2/0"],
])
def test_oracle_bad_input_exits_two(flags, capsys):
    rc = main(["oracle", "lattice-sum"] + flags)
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_classify_command(tmp_path, capsys):
    path = tmp_path / "mat.json"
    th = 1.0
    jsonio.dump(path, {"matrix": [[math.cos(th), -math.sin(th)],
                                  [math.sin(th), math.cos(th)]]})
    rc = main(["classify", "--matrix", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n_e=1" in out


def test_classify_rejects_a_non_numeric_entry(tmp_path, capsys):
    path = tmp_path / "mat.json"
    jsonio.dump(path, {"matrix": [["a", 0], [0, 0.5]]})
    rc = main(["classify", "--matrix", str(path)])
    assert rc == 2
    assert "'matrix'" in capsys.readouterr().err


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


# each subcommand takes the options it reads, and no others
SUBCOMMAND_OPTIONS = {
    "forward": {"--bnf", "--action", "--precision", "--orders", "--kmax",
                "--tol-pole", "--tol-resonance", "--out"},
    "recover": {"--traces", "--n", "--precision", "--tol-pole",
                "--tol-conditioning", "--tol-residual", "--out", "--report"},
    "roundtrip": {"--bnf", "--action", "--precision", "--orders", "--kmax",
                  "--tol-pole", "--tol-resonance", "--tol-conditioning",
                  "--tol-residual", "--report"},
    "classical-bnf": {"--map", "--degree", "--precision", "--tol-resonance",
                      "--report"},
    "classify": {"--matrix"},
    "oracle": {"--mu", "--exp-half", "--k", "--truncation", "--alpha",
               "--backend", "--precision", "--tol-pole"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    ap = build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(SUBCOMMAND_OPTIONS)
    for name, parser in sub.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings}
        assert flags - {"-h", "--help"} == SUBCOMMAND_OPTIONS[name], name


def test_dropped_option_is_rejected(tmp_path, capsys):
    path = tmp_path / "mat.json"
    jsonio.dump(path, {"matrix": [[1.0, 0.0], [0.0, 1.0]]})
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--matrix", str(path), "--backend", "float"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --backend" in capsys.readouterr().err


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


@pytest.mark.parametrize("n", ["0", "-1"])
def test_recover_block_count_below_one_is_an_input_error(rt1_file, tmp_path,
                                                          capsys, n):
    traces = str(tmp_path / "traces.json")
    assert main(["forward", "--bnf", rt1_file, "--out", traces]) == 0
    capsys.readouterr()
    rc = main(["recover", "--traces", traces, "--n", n])
    assert rc == 2
    assert "n must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("precision", ["0", "32"])
def test_precision_below_64_is_an_input_error(rt1_file, tmp_path, capsys,
                                              precision):
    rc = main(["forward", "--bnf", rt1_file, "--precision", precision,
               "--out", str(tmp_path / "t.json")])
    assert rc == 2
    assert "precision must be >= 64" in capsys.readouterr().err
    rc = main(["oracle", "lattice-sum", "--mu", "1.5",
               "--precision", precision])
    assert rc == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("cmd, option", [
    ("forward", "--tol-pole"),
    ("forward", "--tol-resonance"),
    ("recover", "--tol-pole"),
    ("recover", "--tol-conditioning"),
    ("recover", "--tol-residual"),
    ("roundtrip", "--tol-pole"),
    ("roundtrip", "--tol-resonance"),
    ("roundtrip", "--tol-conditioning"),
    ("roundtrip", "--tol-residual"),
])
def test_non_finite_tolerance_is_an_input_error(rt1_file, tmp_path, capsys,
                                                cmd, option, value):
    """A nan tolerance would turn its check off and an inf one would pass
    anything, so both are refused before any work, naming the option."""
    traces = str(tmp_path / "traces.json")
    if cmd == "recover":
        assert main(["forward", "--bnf", rt1_file, "--out", traces]) == 0
        capsys.readouterr()
    out = str(tmp_path / "out.json")
    argv = {"forward": ["forward", "--bnf", rt1_file, "--out", out],
            "recover": ["recover", "--traces", traces, "--n", "1",
                        "--out", out],
            "roundtrip": ["roundtrip", "--bnf", rt1_file]}[cmd]
    rc = main(argv + [f"{option}={value}"])
    stdout, err = capsys.readouterr()
    assert rc == 2
    name = option[2:].replace("-", "_")
    assert f"{name} must be positive and finite, got {float(value)!r}" in err
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
    # jets and orbits
    jet = TestJet(F, F.from_int(2), [F.one, F.from_rational("1/3")])
    j2 = jsonio.test_jet_from_json(jsonio.test_jet_to_json(jet))
    assert j2.jet == jet.jet and j2.base_point == jet.base_point
    orb = OrbitExpansion(F, [F.zero, F.one],
                         {(0, 0): F.one, (1, 2): F.from_rational("5/9")})
    o2 = jsonio.orbit_from_json(jsonio.orbit_to_json(orb))
    assert o2.a_jets == orb.a_jets and o2.i_jets == orb.i_jets


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


def test_exact_roundtrip_is_not_gated_on_conditioning(tmp_path, capsys):
    """rt1's normal form at orders (5, 1, 4): stage h3 has condition number
    3.2e8, above the default gate, and the exact recovery is still
    bit-exact, so the gate does not refuse it."""
    q = FR.from_rational
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    F = MultiSeries(FR, 1, Orders(5, 1, 4), {
        ((2,), 0, 0): q("1/7"), ((1,), 0, 1): q("1/3"), ((0,), 0, 1): q("1/5"),
    })
    bnf = QuantumBNF(blocks, [zseries(FR, 1, {1: FR.one})], F)
    path = tmp_path / "bnf.json"
    report = tmp_path / "report.json"
    jsonio.dump(path, jsonio.qbnf_to_json(bnf))
    rc = main(["roundtrip", "--bnf", str(path), "--orders", "5,1,4",
               "--kmax", "10", "--report", str(report)])
    assert rc == 0
    assert "equals the input exactly" in capsys.readouterr().out
    rep = json.load(open(report))
    assert max(rep["conditioning"].values()) > 1e8
    assert rep["max_residual"] == 0


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


def _rh_file(tmp_path, *Es):
    """Normal form of real hyperbolic blocks of the given E, each with jet
    z/3, and F = iota_1^2/4 + h/5 at F orders (2, 1, 1), as a file."""
    n = len(Es)
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC] * n,
                            [FR.from_rational(E) for E in Es])
    F = MultiSeries(FR, n, Orders(2, 1, 1), {
        ((2,) + (0,) * (n - 1), 0, 0): FR.from_rational("1/4"),
        ((0,) * n, 0, 1): FR.from_rational("1/5")})
    jets = [zseries(FR, 1, {1: FR.from_rational("1/3")})] * n
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
    and not an OverflowError traceback (exit 1)."""
    rc = main(["roundtrip", "--bnf", _rh_file(tmp_path, f"{10 ** 60}/7"),
               "--orders", "2,1,1", "--kmax", "8"])
    assert rc == 3
    assert "no exact fit of the samples" in capsys.readouterr().err


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
    rc = main(["recover", "--traces", str(traces), "--n", "1",
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
