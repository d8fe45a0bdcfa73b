"""Acceptance criteria, one test per criterion, each at its stated
tolerance.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion pass lines."""

import cmath
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from helpers import (brute_force_trace_coeffs, mixed_float_fixture,
                     random_F_total_degree, rt1, well_separated_mus)

from bnftrace import jsonio
from bnftrace.blocks import (COMPLEX_HYPERBOLIC, ELLIPTIC, REAL_HYPERBOLIC,
                             SpectrumBlocks, nonresonance_witness)
from bnftrace.classical import (TaylorMap, birkhoff_normal_form,
                                classify_eigenvalues, iota_real_to_complex,
                                normal_form_flow)
from bnftrace.cli import main
from bnftrace.fields import FloatField, RationalField
from bnftrace.oscillatory import OrbitExpansion, TestJet, extract_jets, forward_pairing
from bnftrace.phasepoly import PhasePoly, PolyMap, exp_ham, exponents
from bnftrace.qbnf import QuantumBNF, make_trace_data, trace_power
from bnftrace.recover import recover_frequencies, recover_qbnf
from bnftrace.series import MultiSeries, Orders, zseries

FF = FloatField()
FR = RationalField()


def _report(num, name, detail=""):
    print(f"ACCEPTANCE {num} ({name}): PASS {detail}")


def test_criterion_1_trace_identity_against_lattice_oracle():
    """Prop-style identity: coth-calculus trace coefficients vs the
    brute-force lattice expansion, rel 1e-10, full sweep under 10 s."""
    t0 = time.time()
    rng = random.Random(101)
    worst = 0.0
    for n in (1, 2):
        for k in (1, 2, 3, 4):
            mus = [rng.uniform(0.5, 2.0) for _ in range(n)]
            blocks = SpectrumBlocks(FF, [REAL_HYPERBOLIC] * n,
                                    [cmath.exp(m / 2) for m in mus])
            F = random_F_total_degree(FF, n, rng, max_total=3,
                                      orders=(3, 0, 2))
            bnf = QuantumBNF(blocks, [zseries(FF, 0)] * n, F)
            phase, series = trace_power(bnf, k, (0, 2))
            oracle = brute_force_trace_coeffs(bnf, k, 2, truncation=80)
            phase = cmath.exp(-1j * k * FF.to_complex(phase))
            for j in range(3):
                mine = phase * FF.to_complex(series.get((), 0, j))
                err = abs(mine - oracle[j]) / max(1e-30, abs(oracle[j]))
                worst = max(worst, err)
    elapsed = time.time() - t0
    assert worst <= 1e-10
    assert elapsed < 10.0
    _report(1, "trace identity vs lattice oracle",
            f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_exact_round_trip_rt1():
    """recover_qbnf(make_trace_data(RT1)) == RT1 bit-exactly, under 5 s."""
    F, bnf, action = rt1()
    t0 = time.time()
    td = make_trace_data(bnf, action, {}, 8, (3, 3))
    rep = recover_qbnf(td)
    elapsed = time.time() - t0
    assert not rep.failed
    assert rep.recovered.F == bnf.F
    assert rep.recovered.mu_jets[0] == bnf.mu_jets[0]
    assert list(rep.recovered.blocks.exp_half) == list(bnf.blocks.exp_half)
    assert rep.recovered.blocks.tags == bnf.blocks.tags
    assert elapsed < 5.0
    _report(2, "exact round trip RT1", f"{elapsed:.2f}s, residual 0")


def test_criterion_3_float_round_trip_mixed_blocks():
    """n = 2 mixed elliptic/hyperbolic, random F deg <= 3, orders (3,2,2),
    k_max = 12: coefficientwise rel err <= 1e-8, condition numbers <= 1e6."""
    F, bnf = mixed_float_fixture(2024)
    td = make_trace_data(bnf, zseries(F, 2, {1: F.one}), {}, 12, (2, 2))
    rep = recover_qbnf(td)
    assert not rep.failed
    worst = 0.0
    for key in set(bnf.F.terms) | set(rep.recovered.F.terms):
        a = bnf.F.terms.get(key, F.zero)
        b = rep.recovered.F.terms.get(key, F.zero)
        worst = max(worst, F.abs(a - b) / max(1.0, F.abs(a)))
    max_cond = max(rep.conditioning.values())
    assert worst <= 1e-8
    assert max_cond <= 1e6
    _report(3, "float round trip",
            f"worst rel err {worst:.2e}, max cond {max_cond:.2e}")


def test_criterion_4_fried_prony_recovery():
    """Exponential recovery for n <= 3 well-separated exponents and a
    random phase: e^mu rel 1e-8, phi 1e-8 mod 2pi, from 2^{n+1}+2 samples."""
    rng = random.Random(77)
    cases = 0
    for n, spec in [
        (1, [REAL_HYPERBOLIC]),
        (2, [REAL_HYPERBOLIC, ELLIPTIC]),
        (2, [COMPLEX_HYPERBOLIC]),
        (3, [REAL_HYPERBOLIC, REAL_HYPERBOLIC, ELLIPTIC]),
        (3, [COMPLEX_HYPERBOLIC, REAL_HYPERBOLIC]),
    ]:
        for _ in range(3):
            mus = well_separated_mus(spec, rng)
            if mus is None:
                continue
            phi = rng.uniform(-math.pi, math.pi)
            K = 2 ** (n + 1) + 2
            a0 = {}
            for k in range(1, K + 1):
                v = cmath.exp(-1j * k * phi)
                for m in mus:
                    v /= 2 * cmath.sinh(k * m / 2)
                a0[k] = v
            fr = recover_frequencies(FF, a0)
            got = sorted((cmath.exp(m) for m in fr.blocks.mu()),
                         key=lambda z: (abs(z), z.real, z.imag))
            want = sorted((cmath.exp(m) for m in mus),
                          key=lambda z: (abs(z), z.real, z.imag))
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-8 * max(1.0, abs(w))
            phase_err = abs(cmath.exp(1j * fr.phi_value)
                            - cmath.exp(1j * phi))
            assert phase_err <= 1e-8
            cases += 1
    assert cases >= 10
    _report(4, "Fried/Prony frequency recovery", f"{cases} cases")


def test_criterion_5_classical_normal_forms():
    # (a) pure rotation: every remainder coefficient <= 1e-12
    th = 1.0
    R = np.array([[math.cos(th), -math.sin(th)],
                  [math.sin(th), math.cos(th)]])
    comps = [{(1, 0): FF.one * R[0, 0], (0, 1): FF.one * R[0, 1]},
             {(1, 0): FF.one * R[1, 0], (0, 1): FF.one * R[1, 1]}]
    tm = TaylorMap(FF, 1, 7, comps)
    res = birkhoff_normal_form(tm, 3)
    worst_r = max((FF.abs(c) for m, c in res.p_complex.items()
                   if sum(m) >= 2), default=0.0)
    assert worst_r <= 1e-12

    # (b) time-1 flow of p = -iota + iota^2/10 at degree 7
    blocks = SpectrumBlocks.from_mu(FF, [(ELLIPTIC, 1j)])
    Rc = iota_real_to_complex(blocks.tags, {(2,): FF.one * 0.1}, FF)
    flow = normal_form_flow(blocks, Rc, 7)
    res_b = birkhoff_normal_form(flow, 3)
    twist = FF.to_complex(res_b.real_twist_coefficients()[(2,)])
    assert abs(twist - 0.1) <= 1e-10

    # (c) generic cubic perturbation vs rotation-number fit
    chi = PhasePoly(FF, 2, 7, {(3, 0): 0.21 + 0j, (2, 1): -0.17 + 0j,
                               (1, 2): 0.11 + 0j, (0, 3): 0.09 + 0j})
    lam = PolyMap.from_linear(
        FF, 1, 7, [[FF.one * complex(x) for x in row] for row in R])
    tm_c = TaylorMap(FF, 1, 7, lam.compose(exp_ham(chi, 1, 7)).comps,
                     validate=False)
    res_c = birkhoff_normal_form(tm_c, 2)
    r2 = FF.to_complex(res_c.real_twist_coefficients()[(2,)]).real
    fitted = _rotation_number_fit(tm_c)
    assert abs(fitted - r2) <= 1e-4
    _report(5, "classical Birkhoff normal forms",
            f"r-residual {worst_r:.1e}, twist err {abs(twist - 0.1):.1e}, "
            f"fit err {abs(fitted - r2):.1e}")


def _rotation_number_fit(tm, iters=10 ** 4):
    u = (np.arange(iters) + 0.5) / iters
    w = np.exp(-1.0 / (u * (1 - u)))
    w /= w.sum()
    amps = np.linspace(1e-3, 1e-2, 10)
    x = np.sqrt(2 * amps)
    xi = np.zeros_like(x)
    comp_terms = [[(exponents(k, 2), complex(c).real)
                   for k, c in c_.terms.items()] for c_ in tm.pmap.comps]
    omegas = np.zeros_like(x)
    iotas = np.zeros_like(x)
    prev = np.arctan2(xi, x)
    for i in range(iters):
        xp = [x ** p for p in range(8)]
        xip = [xi ** p for p in range(8)]
        xn = np.zeros_like(x)
        xin = np.zeros_like(x)
        for (e1, e2), c in comp_terms[0]:
            xn = xn + c * xp[e1] * xip[e2]
        for (e1, e2), c in comp_terms[1]:
            xin = xin + c * xp[e1] * xip[e2]
        x, xi = xn, xin
        ang = np.arctan2(xi, x)
        d = ang - prev
        d = np.where(d < -math.pi, d + 2 * math.pi, d)
        d = np.where(d > math.pi, d - 2 * math.pi, d)
        omegas += w[i] * d
        prev = ang
        iotas += w[i] * 0.5 * (x * x + xi * xi)
    A = np.vstack([np.ones_like(iotas), iotas, iotas ** 2, iotas ** 3]).T
    coef, *_ = np.linalg.lstsq(A, omegas, rcond=None)
    return -coef[1] / 2


def test_criterion_6_determinant_bridge():
    """prod_j |2 sinh(k mu_j/2)| = |det(Dkappa(0)^k - I)|^{1/2}, k <= 6."""
    th = 1.0
    fixtures = [
        np.array([[math.cos(th), -math.sin(th)],
                  [math.sin(th), math.cos(th)]]),
        np.diag([2.0, 0.5]),
        expm(np.array([[1.0, 1.0, 0, 0], [-1.0, 1.0, 0, 0],
                       [0, 0, -1.0, 1.0], [0, 0, -1.0, -1.0]])),
    ]
    worst = 0.0
    for M in fixtures:
        blocks = classify_eigenvalues(M)
        for k in range(1, 7):
            lhs = 1.0
            for mu in blocks.mu():
                lhs *= abs(2 * cmath.sinh(k * mu / 2))
            rhs = math.sqrt(abs(np.linalg.det(
                np.linalg.matrix_power(M, k) - np.eye(M.shape[0]))))
            worst = max(worst, abs(lhs - rhs) / max(1.0, rhs))
    assert worst <= 1e-12
    _report(6, "determinant bridge", f"worst rel err {worst:.2e}")


def test_criterion_7_pairing_round_trip_and_moment_convention():
    # exact round trip through order 5 on a rational fixture
    rng = random.Random(55)

    def rq():
        return FR.from_rational(Fraction(rng.randint(-9, 9),
                                         rng.randint(1, 9)))

    i_jets = [FR.zero, FR.from_int(2)] + [rq() for _ in range(5)]
    a_jets = {(0, 0): FR.from_rational("5/4")}
    for j in range(6):
        for l in range(6):
            if 1 <= j + l <= 5 and rng.random() < 0.5:
                a_jets[(j, l)] = rq()
    u = OrbitExpansion(FR, i_jets, a_jets)
    basis = [TestJet.delta(FR, FR.from_int(2), 13, m) for m in range(8)]
    pair = [forward_pairing(u, g, 5) for g in basis]
    rec = extract_jets(pair, basis, 5, i0=i_jets[0])
    assert all(rec.i_jet(m) == u.i_jet(m) for m in range(7))
    keys = set(u.a_jets) | set(rec.a_jets)
    assert all(u.a_jets.get(kk, FR.zero) == rec.a_jets.get(kk, FR.zero)
               for kk in keys)

    # quadrature cross-check of the moment convention, h in {1e-2, 1e-3}
    i_fl = [0.4, 1.3, 0.21, -0.13, 0.05]
    a_fl = {(0, 0): 1.0 + 0j, (0, 1): 0.3 + 0j, (0, 2): -0.2 + 0j,
            (1, 0): 0.15 + 0j, (1, 1): -0.1 + 0j}
    uf = OrbitExpansion(FF, [complex(v) for v in i_fl], a_fl)
    sigma = 0.35
    jets = []
    for m in range(12):
        if m % 2:
            jets.append(0j)
        else:
            r = m // 2
            val = (-1.0) ** r / sigma ** (2 * r)
            for jj in range(1, 2 * r, 2):
                val *= jj
            jets.append(complex(val))
    g = TestJet(FF, complex(i_fl[1]), jets)
    order = 2
    b = forward_pairing(uf, g, order)

    def upoly(z, h):
        phase = sum(c * z ** m for m, c in enumerate(i_fl))
        amp0 = sum(c * z ** l for (j, l), c in a_fl.items() if j == 0)
        amp1 = sum(c * z ** l for (j, l), c in a_fl.items() if j == 1)
        return cmath.exp(1j * phase / h) * (amp0 + amp1 * h)

    def ghat(z):
        return (sigma * math.sqrt(2 * math.pi)
                * cmath.exp(-1j * i_fl[1] * z)
                * math.exp(-sigma ** 2 * z ** 2 / 2))

    errs = []
    for h in (1e-2, 1e-3):
        L = 60 / sigma
        re, _ = quad(lambda t: (ghat(t) * upoly(h * t, h)).real, -L, L,
                     limit=400)
        im, _ = quad(lambda t: (ghat(t) * upoly(h * t, h)).imag, -L, L,
                     limit=400)
        J = complex(re, im)
        pred = cmath.exp(1j * i_fl[0] / h) * 2 * math.pi * sum(
            FF.to_complex(b[p]) * h ** p for p in range(order + 1))
        errs.append(abs(J - pred))
    rate = errs[0] / max(errs[1], 1e-300)
    assert 10 ** (order + 0.2) < rate < 10 ** (order + 1.8)
    _report(7, "pairing calculus",
            f"exact order-5 round trip; quadrature rate {rate:.1f} "
            f"~ 10^{order + 1}")


def test_criterion_8_nonresonance_detector():
    w = nonresonance_witness([2j * math.pi / 3], 3)
    assert w == ((3,), 1)
    blocks = SpectrumBlocks.from_mu(FF, [(ELLIPTIC, 1j),
                                         (ELLIPTIC, math.sqrt(2) * 1j)])
    assert nonresonance_witness(blocks.mu(), 10) is None
    _report(8, "nonresonance detector",
            "witness k=(3,) m=1; (1, sqrt 2) clean through order 10")


def test_criterion_9_cli_exit_codes(tmp_path, capsys):
    _F, bnf, _a = rt1()
    rt1_path = tmp_path / "rt1.json"
    jsonio.dump(rt1_path, jsonio.qbnf_to_json(bnf))
    assert main(["roundtrip", "--bnf", str(rt1_path), "--orders", "4,3,3",
                 "--kmax", "8"]) == 0

    # schema violations exit 2
    bad1 = tmp_path / "bad1.json"
    bad1.write_text("{broken")
    assert main(["forward", "--bnf", str(bad1)]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"field": "rational"}))
    assert main(["forward", "--bnf", str(bad2)]) == 2
    bad3 = tmp_path / "bad3.json"
    payload = jsonio.qbnf_to_json(bnf)
    payload["blocks"][0]["type"] = "unknown_tag"
    bad3.write_text(json.dumps(payload))
    assert main(["forward", "--bnf", str(bad3)]) == 2

    # resonant fixture exits 3 and the message carries the integer witness
    theta = 2 * math.pi / 3
    resonant = {
        "field": "float", "n": 1,
        "blocks": [{"type": "elliptic",
                    "exp_half_mu": {"re": repr(math.cos(theta / 2)),
                                    "im": repr(math.sin(theta / 2))}}],
        "mu_jets": [jsonio.series_to_json(zseries(FF, 2))],
        "F": jsonio.series_to_json(MultiSeries.zero(FF, 1, (3, 2, 2))),
    }
    res_path = tmp_path / "resonant.json"
    jsonio.dump(res_path, resonant)
    capsys.readouterr()
    assert main(["forward", "--bnf", str(res_path), "--orders", "3,2,2",
                 "--kmax", "4"]) == 3
    err = capsys.readouterr().err
    assert "k=[3]" in err
    _report(9, "CLI exit codes", "0 / 2 / 3 with integer witness")
