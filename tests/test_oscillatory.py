import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bnftrace import oscillatory
from bnftrace.errors import MathError, RankDeficiencyError, SchemaError
from bnftrace.fields import FloatField, RationalField
from bnftrace.linalg import solve_lstsq
from bnftrace.oscillatory import (KPairingBundle, OrbitExpansion, TestJet,
                                  extract_jets, forward_pairing,
                                  traces_from_pairings)
from bnftrace.qbnf import make_trace_data
from bnftrace.series import MultiSeries

FR = RationalField()
FF = FloatField()


def _delta_basis(field, base, length, count):
    return [TestJet.delta(field, base, length, m) for m in range(count)]


def test_constant_amplitude_linear_phase():
    # a_0(z) = 1, all higher I jets zero: b_0 = g(I_1) (units of 2 pi),
    # every higher coefficient vanishes
    u = OrbitExpansion(FR, [FR.zero, FR.from_int(3)], {(0, 0): FR.one})
    g = TestJet(FR, FR.from_int(3), [FR.from_int(5)] + [FR.zero] * 8)
    b = forward_pairing(u, g, 3)
    assert b[0] == FR.from_int(5)
    assert all(v == FR.zero for v in b[1:])


def test_amplitude_h_shift():
    # a_10 = c contributes c g(I_1) at level 1
    c = FR.from_rational("4/7")
    u = OrbitExpansion(FR, [FR.zero, FR.from_int(2)],
                       {(0, 0): FR.one, (1, 0): c})
    g = TestJet(FR, FR.from_int(2), [FR.from_int(3)] + [FR.zero] * 8)
    b = forward_pairing(u, g, 2)
    assert b[1] == FR.from_int(3) * c


def test_second_phase_jet_term():
    # a_0 = 1, I_2 nonzero: b_1 = i I_2 * (-i)^2 g''(I_1) = -i I_2 g''(I_1)
    i2 = FR.from_rational("3/5")
    u = OrbitExpansion(FR, [FR.zero, FR.from_int(2), i2], {(0, 0): FR.one})
    g = TestJet.delta(FR, FR.from_int(2), 8, 2)  # g'' = 1, others 0
    b = forward_pairing(u, g, 1)
    assert b[1] == -(FR.i * i2)


def test_moment_convention_against_quadrature():
    """The full pairing against a concrete Gaussian window must match
    direct numerical integration of h^{-1} int ghat(z/h) u(z, h) dz."""
    i_jets = [0.4, 1.3, 0.21, -0.13, 0.05]
    a_jets = {(0, 0): 1.0 + 0j, (0, 1): 0.3 + 0j, (0, 2): -0.2 + 0j,
              (1, 0): 0.15 + 0j, (1, 1): -0.1 + 0j}
    u = OrbitExpansion(FF, [complex(v) for v in i_jets],
                       a_jets)
    sigma = 0.35
    base = i_jets[1]
    jets = [complex(_gauss_derivative(m, sigma)) for m in range(12)]
    g = TestJet(FF, complex(base), jets)
    order = 2
    b = forward_pairing(u, g, order)

    def upoly(z, h):
        phase = sum(c * z ** m for m, c in enumerate(i_jets))
        amp0 = sum(c * z ** l for (j, l), c in a_jets.items() if j == 0)
        amp1 = sum(c * z ** l for (j, l), c in a_jets.items() if j == 1)
        return cmath.exp(1j * phase / h) * (amp0 + amp1 * h)

    def ghat(z):
        # ghat(zeta) = sigma sqrt(2 pi) e^{-i base zeta} e^{-sigma^2 zeta^2/2}
        return (sigma * math.sqrt(2 * math.pi)
                * cmath.exp(-1j * base * z) * math.exp(-sigma ** 2 * z ** 2 / 2))

    errs = []
    for h in (1e-2, 1e-3):
        def integrand_re(zeta):
            return (ghat(zeta) * upoly(h * zeta, h)).real

        def integrand_im(zeta):
            return (ghat(zeta) * upoly(h * zeta, h)).imag

        L = 60 / sigma
        re, _ = quad(integrand_re, -L, L, limit=400)
        im, _ = quad(integrand_im, -L, L, limit=400)
        J = complex(re, im)
        pred = cmath.exp(1j * i_jets[0] / h) * 2 * math.pi * sum(
            FF.to_complex(b[p]) * h ** p for p in range(order + 1))
        errs.append(abs(J - pred))
    # O(h^{order+1}) convergence: three decades between h = 1e-2 and 1e-3
    assert errs[0] < 1e-3
    rate = errs[0] / max(errs[1], 1e-300)
    assert 10 ** (order + 0.2) < rate < 10 ** (order + 1.8)


def _gauss_derivative(m, sigma):
    # m-th derivative of exp(-(t-c)^2 / (2 sigma^2)) at t = c
    if m % 2:
        return 0.0
    r = m // 2
    val = (-1.0) ** r / sigma ** (2 * r)
    for j in range(1, 2 * r, 2):
        val *= j
    return val


def test_round_trip_exact_rational_order5():
    rng = random.Random(3)

    def rq():
        return FR.from_rational(Fraction(rng.randint(-9, 9),
                                         rng.randint(1, 9)))

    i_jets = [FR.zero, FR.from_int(2)] + [rq() for _ in range(5)]
    a_jets = {(0, 0): FR.from_rational("3/2")}
    for j in range(6):
        for l in range(6):
            if 1 <= j + l <= 5 and rng.random() < 0.6:
                a_jets[(j, l)] = rq()
    u = OrbitExpansion(FR, i_jets, a_jets)
    basis = _delta_basis(FR, FR.from_int(2), 13, 8)
    pair = [forward_pairing(u, g, 5) for g in basis]
    rec = extract_jets(pair, basis, 5, i0=i_jets[0])
    assert all(rec.i_jet(m) == u.i_jet(m) for m in range(7))
    keys = set(u.a_jets) | set(rec.a_jets)
    assert all(u.a_jets.get(k, FR.zero) == rec.a_jets.get(k, FR.zero)
               for k in keys)


def test_round_trip_float():
    rng = random.Random(5)
    i_jets = [0.0 + 0j, 1.7 + 0j] + [complex(rng.uniform(-1, 1))
                                     for _ in range(4)]
    a_jets = {(0, 0): 1.2 + 0.4j}
    for j in range(5):
        for l in range(5):
            if 1 <= j + l <= 4 and rng.random() < 0.7:
                a_jets[(j, l)] = complex(rng.uniform(-1, 1),
                                         rng.uniform(-1, 1))
    u = OrbitExpansion(FF, i_jets, a_jets)
    basis = _delta_basis(FF, 1.7 + 0j, 11, 7)
    pair = [forward_pairing(u, g, 4) for g in basis]
    rec = extract_jets(pair, basis, 4, i0=0j)
    assert rec.close_to(u, 1e-9)


def test_zero_pairings_rejected():
    basis = _delta_basis(FR, FR.from_int(2), 9, 5)
    pair = [[FR.zero] * 4 for _ in basis]
    with pytest.raises(MathError):
        extract_jets(pair, basis, 3)


def test_basis_deficiency():
    basis = _delta_basis(FR, FR.from_int(2), 9, 3)
    pair = [[FR.one] * 4 for _ in basis]
    with pytest.raises(RankDeficiencyError):
        extract_jets(pair, basis, 3)


def test_insufficient_jet_length():
    u = OrbitExpansion(FR, [FR.zero, FR.from_int(2), FR.one],
                       {(0, 0): FR.one})
    g = TestJet(FR, FR.from_int(2), [FR.one, FR.one])  # too short
    with pytest.raises(SchemaError):
        forward_pairing(u, g, 2)


def test_pairing_sensitivity_is_linear():
    rng = random.Random(9)
    i_jets = [0j, 1.1 + 0j, 0.3 + 0j, -0.2 + 0j]
    a_jets = {(0, 0): 1.0 + 0j, (0, 1): 0.4 + 0j, (1, 0): -0.3 + 0j}
    u = OrbitExpansion(FF, i_jets, a_jets)
    basis = _delta_basis(FF, 1.1 + 0j, 9, 5)
    base_pair = [forward_pairing(u, g, 3) for g in basis]
    rec0 = extract_jets(base_pair, basis, 3, i0=0j)
    moves = []
    for eps in (1e-6, 1e-7):
        pert = [list(row) for row in base_pair]
        pert[2][2] = pert[2][2] + eps
        rec = extract_jets(pert, basis, 3, i0=0j)
        delta = max(
            abs(rec.a_jets.get(k, FF.zero) - rec0.a_jets.get(k, FF.zero))
            for k in set(rec.a_jets) | set(rec0.a_jets))
        moves.append(delta)
    assert moves[0] > 0
    ratio = moves[0] / moves[1]
    assert 5 < ratio < 20  # O(eps) response


def test_locality_of_moments():
    # b_p only sees jets g^(m) with m <= 2p: a delta jet beyond that
    # pairs to zero at level p
    u = OrbitExpansion(FR, [FR.zero, FR.from_int(2), FR.one,
                            FR.from_rational("1/3")],
                       {(0, 0): FR.one, (0, 1): FR.from_rational("1/2"),
                        (1, 0): FR.from_rational("2/7")})
    for p in range(3):
        g = TestJet.delta(FR, FR.from_int(2), 2 * p + 4, 2 * p + 1)
        b = forward_pairing(u, g, p)
        assert b[p] == FR.zero


def test_traces_from_pairings_round_trip():
    from helpers import rt1

    F, bnf, action = rt1()
    td = make_trace_data(bnf, action, {}, 4, (3, 3))
    bundles = []
    basis = _delta_basis(F, F.one, 17, 9)  # base point I'(0) = 1
    for k in range(1, 5):
        scale = F.inv(F.from_int(k))
        i_jets = [F.zero] + [
            F.from_int(k) * action.get((), m, 0) for m in range(1, 4)]
        a_jets = {}
        for ((), m, j), c in td.coefficients[k].terms.items():
            a_jets[(j, m)] = c * scale  # the (k+1)^{-1} suppression
        orbit = OrbitExpansion(F, i_jets, a_jets, validate=False)
        # base point of the k-th bundle is k * I'(0)
        basis_k = _delta_basis(F, F.from_int(k), 17, 9)
        pair = [forward_pairing(orbit, g, 7) for g in basis_k]
        bundles.append(KPairingBundle(k - 1, basis_k, pair, i0=F.zero))
    td2 = traces_from_pairings(bundles, 7, phase=td.phase,
                               z_order=3, h_order=3)
    assert td2.k_max == td.k_max
    assert td2.action == td.action
    for k in range(1, 5):
        assert td2.coefficients[k] == td.coefficients[k]


def test_traces_from_pairings_duplicate_labels():
    basis = _delta_basis(FR, FR.one, 9, 5)
    u = OrbitExpansion(FR, [FR.zero, FR.one], {(0, 0): FR.one})
    pair = [forward_pairing(u, g, 3) for g in basis]
    b1 = KPairingBundle(0, basis, pair)
    b2 = KPairingBundle(0, basis, pair)
    with pytest.raises(SchemaError):
        traces_from_pairings([b1, b2], 3)


def test_extract_jets_too_short_test_jet():
    # level 1 needs g'' for the I_2 column; the jets stop at g'
    basis = [TestJet(FR, FR.from_int(2), [FR.one, FR.from_int(m)])
             for m in range(3)]
    pair = [[FR.one, FR.zero] for _ in basis]
    with pytest.raises(SchemaError):
        extract_jets(pair, basis, 1)


def test_extract_jets_builds_one_phase_per_level(monkeypatch):
    rng = random.Random(11)
    order = 5
    i_jets = [FR.zero, FR.from_int(2)] + [
        FR.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for _ in range(order)]
    a_jets = {(j, l): FR.from_rational(Fraction(rng.randint(1, 9), 7))
              for j in range(order + 1) for l in range(order + 1 - j)}
    u = OrbitExpansion(FR, i_jets, a_jets)
    basis = _delta_basis(FR, FR.from_int(2), 2 * order + 3, order + 3)
    pair = [forward_pairing(u, g, order) for g in basis]
    calls = {"forward_pairing": 0, "exp_series": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(oscillatory, "forward_pairing",
                        counted("forward_pairing", forward_pairing))
    monkeypatch.setattr(MultiSeries, "exp_series",
                        counted("exp_series", MultiSeries.exp_series))
    rec = extract_jets(pair, basis, order, i0=FR.zero)
    assert rec.i_jets == u.i_jets and rec.a_jets == u.a_jets
    assert calls["forward_pairing"] == 0
    assert calls["exp_series"] <= order + 1


def _reference_extract_jets(pairings, basis, order, i0=None):
    """The finite-difference inversion that the moment-vector solve
    replaced: every matrix entry is forward_pairing(perturbed) minus
    forward_pairing(current).  It returns the jets unvalidated, since only
    the solve is compared against it."""
    f = basis[0].field
    i_jets = [i0 if i0 is not None else f.zero, basis[0].base_point]
    a_jets = {}
    for p in range(order + 1):
        if p == 0:
            unknowns = [("a", (0, 0))]
        else:
            unknowns = [("a", (p - l, l)) for l in range(p + 1)]
            unknowns.append(("i", p + 1))
        rows = []
        rhs = []
        cur = OrbitExpansion(f, i_jets, a_jets or {(0, 0): f.zero},
                             validate=False)
        for b, g in enumerate(basis):
            fw = forward_pairing(cur, g, p)
            row = []
            for kind, key in unknowns:
                if kind == "a":
                    probe = dict(a_jets)
                    probe[key] = probe.get(key, f.zero) + f.one
                    pert = OrbitExpansion(f, i_jets, probe, validate=False)
                else:
                    ij = list(i_jets)
                    while len(ij) <= key:
                        ij.append(f.zero)
                    ij[key] = ij[key] + f.one
                    pert = OrbitExpansion(f, ij, a_jets or {(0, 0): f.zero},
                                          validate=False)
                row.append(forward_pairing(pert, g, p)[p] - fw[p])
            rows.append(row)
            rhs.append(pairings[b][p] - fw[p])
        sol, _res = solve_lstsq(f, rows, rhs)
        for (kind, key), val in zip(unknowns, sol):
            if kind == "a":
                if not f.is_zero(val):
                    a_jets[key] = val
            else:
                while len(i_jets) <= key:
                    i_jets.append(f.zero)
                i_jets[key] = val
        if p == 0 and f.is_zero(a_jets.get((0, 0), f.zero)):
            raise MathError("recovered a_0(0) = 0")
    return OrbitExpansion(f, i_jets, a_jets, validate=False)


_small_q = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def _orbit_and_basis(draw):
    order = draw(st.integers(0, 4))
    base = draw(_small_q)
    i_jets = [Fraction(0), base] + [draw(_small_q) for _ in range(order)]
    a_jets = {(0, 0): draw(_small_q.filter(bool))}
    for j in range(order + 1):
        for l in range(order + 1 - j):
            if (j, l) != (0, 0) and draw(st.booleans()):
                a_jets[(j, l)] = draw(_small_q)
    count = order + 2 + draw(st.integers(0, 1))
    length = 2 * order + 2
    if draw(st.booleans()):
        jets = [[Fraction(int(q == m)) for q in range(length)]
                for m in range(count)]
    else:
        jets = [[draw(_small_q) for _ in range(length)] for _ in range(count)]
    return order, i_jets, a_jets, jets


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (MathError, RankDeficiencyError) as exc:
        return type(exc)


@settings(max_examples=30, deadline=None)
@given(_orbit_and_basis(), st.sampled_from(["exact", "float"]))
def test_extract_jets_matches_finite_difference_reference(case, kind):
    order, i_jets, a_jets, jets = case
    if kind == "exact":
        f, conv = FR, FR.from_rational
    else:
        f, conv = FF, complex
    u = OrbitExpansion(f, [conv(v) for v in i_jets],
                       {k: conv(v) for k, v in a_jets.items()})
    basis = [TestJet(f, u.i_jets[1], [conv(v) for v in jet]) for jet in jets]
    pair = [forward_pairing(u, g, order) for g in basis]
    got = _outcome(extract_jets, pair, basis, order, i0=u.i_jets[0])
    want = _outcome(_reference_extract_jets, pair, basis, order,
                    i0=u.i_jets[0])
    if isinstance(want, type):
        assert got is want
    elif kind == "exact":
        assert got.i_jets == want.i_jets and got.a_jets == want.a_jets
    else:
        assert got.close_to(want, 1e-9)


def test_float_extraction_keeps_phase_jets_real():
    # order-5 inversion with a dense basis leaves rounding residues of
    # ~1e-11 in Im I_6: inside the 1e-9 consistency test, beyond the 1e-12
    # reality check of OrbitExpansion, so the recovered jet is made real
    rng = random.Random(10)

    def rq():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    order = 5
    i_jets = [0j, 2 + 0j] + [complex(rq()) for _ in range(order)]
    keys = [(0, 0), (1, 0), (0, 2), (2, 1), (1, 2), (3, 0), (0, 4), (2, 2),
            (4, 1), (1, 4), (3, 2)]
    a_jets = {k: complex(rq() or 1) for k in keys}
    u = OrbitExpansion(FF, i_jets, a_jets)
    basis = [TestJet(FF, 2 + 0j, [complex(rq()) for _ in range(2 * order + 3)])
             for _ in range(order + 3)]
    pair = [forward_pairing(u, g, order) for g in basis]
    rec = extract_jets(pair, basis, order, i0=0j)
    assert all(v.imag == 0 for v in rec.i_jets)
    assert rec.close_to(u, 1e-9)
