import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (brute_force_trace_coeffs, leading_term,
                     mixed_float_fixture, n3_bnf, random_F_total_degree,
                     random_hyperbolic_exp_half, rt1)

from bnftrace.blocks import (COMPLEX_HYPERBOLIC, ELLIPTIC, REAL_HYPERBOLIC,
                             SpectrumBlocks)
from bnftrace.errors import MathError, PoleError, ResonanceError, SchemaError
from bnftrace.fields import FloatField, RationalComplex, RationalField
from bnftrace.qbnf import (QuantumBNF, TraceData, TraceEngine, make_trace_data,
                           trace_power)
from bnftrace.series import MultiSeries, Orders, powers, zseries
from bnftrace import hypcalc as hc
from bnftrace import qbnf

FR = RationalField()
FF = FloatField()


def _zero_bnf(field, blocks, orders=(4, 3, 3)):
    jets = [zseries(field, orders[1]) for _ in range(blocks.n)]
    return QuantumBNF(blocks, jets, MultiSeries.zero(field, blocks.n, orders))


def test_trace_power_bare_product():
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    b = _zero_bnf(FR, blocks)
    phase, series = trace_power(b, 1, (3, 3))
    assert phase == FR.zero
    assert series.get((), 0, 0) == FR.from_rational("2/3")
    assert all(l == 0 for (_a, _m, l) in series.terms)
    assert all(m == 0 for (_a, m, _l) in series.terms)


def test_trace_power_constant_h_term_is_pure_phase():
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    c = FR.from_rational("2/7")
    F = MultiSeries(FR, 1, Orders(4, 3, 3), {((0,), 0, 1): c})
    b = QuantumBNF(blocks, [zseries(FR, 3)], F)
    phase, series = trace_power(b, 3, (3, 3))
    assert phase == c
    assert series == trace_power(_zero_bnf(FR, blocks), 3, (3, 3))[1]


def test_trace_power_quadratic_operator_term():
    # F = beta iota^2: h^1 coefficient is (i beta / k) * d^2 value
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    beta = FR.from_rational("3/2")
    F = MultiSeries(FR, 1, Orders(4, 3, 3), {((2,), 0, 0): beta})
    b = QuantumBNF(blocks, [zseries(FR, 3)], F)
    _phase, series = trace_power(b, 1, (3, 3))
    assert series.get((), 0, 1) == FR.i * beta * FR.from_rational("41/54")


def test_qbnf_rejects_low_order_h0_terms():
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    bad = MultiSeries(FR, 1, Orders(4, 3, 3), {((1,), 0, 0): FR.one})
    with pytest.raises(SchemaError):
        QuantumBNF(blocks, [zseries(FR, 3)], bad)
    bad2 = MultiSeries(FR, 1, Orders(4, 3, 3), {((0,), 1, 0): FR.one})
    with pytest.raises(SchemaError):
        QuantumBNF(blocks, [zseries(FR, 3)], bad2)


def test_trace_orders_must_fit_F_truncation():
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    F = MultiSeries.zero(FR, 1, Orders(3, 3, 3))
    b = QuantumBNF(blocks, [zseries(FR, 3)], F)
    with pytest.raises(SchemaError):
        trace_power(b, 1, (3, 3))  # needs iota order >= 4


def test_leading_term_values():
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    action = zseries(FR, 3, {1: FR.one})
    lt = leading_term(action, 0, blocks, 1, 3)
    assert lt.series.get((), 0, 0) == FR.from_rational("2/3")
    # Maslov phase
    lt2 = leading_term(action, 2, blocks, 1, 3)
    assert lt2.series.get((), 0, 0) == FR.from_rational("-2/3")
    # k = 2: 1/(2 sinh(2 ln 2)) = 4/15, matching the determinant bridge
    # |det(dkappa^2 - 1)|^{1/2} = 15/4 (consistency test below)
    lt3 = leading_term(action, 0, blocks, 2, 3)
    assert lt3.series.get((), 0, 0) == FR.from_rational("4/15")
    assert "I(z)/h" in lt3.oscillatory


def test_leading_term_degenerate_orbit():
    blocks = SpectrumBlocks.from_mu(FF, [(ELLIPTIC, 2j * math.pi / 3)])
    action = zseries(FF, 2, {1: FF.one})
    with pytest.raises(MathError):
        leading_term(action, 0, blocks, 3, 2)  # 3 theta = 2 pi: sinh pole


def test_leading_term_magnitude_matches_trace_h0():
    # |leading| = |a_0k| for F = 0, nu = 0: exact on rational hyperbolic
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    action = zseries(FR, 3, {1: FR.one})
    b = _zero_bnf(FR, blocks)
    for k in range(1, 7):
        lt = leading_term(action, 0, blocks, k, 0)
        lv = lt.series.get((), 0, 0)
        tv = trace_power(b, k, (0, 0))[1].get((), 0, 0)
        assert lv * lv.conjugate() == tv * tv.conjugate()
    # float: mixed block types
    blocks2 = SpectrumBlocks.from_mu(FF, [
        (COMPLEX_HYPERBOLIC, 0.8 + 0.9j), (COMPLEX_HYPERBOLIC, 0.8 - 0.9j),
        (REAL_HYPERBOLIC, 0.6), (ELLIPTIC, 1.1j)])
    action2 = zseries(FF, 2, {1: FF.one})
    b2 = _zero_bnf(FF, blocks2, orders=(3, 2, 2))
    for k in range(1, 7):
        lt = leading_term(action2, 0, blocks2, k, 0)
        _phase, series = trace_power(b2, k, (0, 0))
        assert abs(abs(lt.series.get((), 0, 0)) -
                   abs(series.get((), 0, 0))) < 1e-12
    # z-dependent exponents (rh E = 2 and 3, jets z/3 + z^2/5 and -z/2):
    # with F = 0 and I(z) = z the whole z-series agrees, exactly
    blocks3 = SpectrumBlocks(FR, [REAL_HYPERBOLIC] * 2,
                             [FR.from_int(2), FR.from_int(3)])
    jets = [zseries(FR, 3, {1: FR.from_rational("1/3"),
                            2: FR.from_rational("1/5")}),
            zseries(FR, 3, {1: FR.from_rational("-1/2")})]
    b3 = QuantumBNF(blocks3, jets, MultiSeries.zero(FR, 2, (4, 3, 3)))
    for k in range(1, 7):
        lt = leading_term(action, 0, blocks3, k, 3, mu_jets=jets)
        assert lt.series == trace_power(b3, k, (3, 0))[1]


def test_scaling_law_f_zero_exact():
    # trace at (mu, k) equals trace at (k mu, 1): exact with F = 0
    blocks_k = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    for k in (2, 3):
        blocks_1 = SpectrumBlocks(FR, [REAL_HYPERBOLIC],
                                  [FR.from_int(2) ** k])
        assert (trace_power(_zero_bnf(FR, blocks_k), k, (0, 3))[1]
                == trace_power(_zero_bnf(FR, blocks_1), 1, (0, 3))[1])


def test_scaling_law_monomial_F():
    # with F rescaled to kF the k-th power trace matches the first power
    # of the k-fold exponents
    rng = random.Random(3)
    k = 3
    mu = rng.uniform(0.5, 1.0)
    beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    blocks_k = SpectrumBlocks.from_mu(FF, [(REAL_HYPERBOLIC, mu)])
    blocks_1 = SpectrumBlocks.from_mu(FF, [(REAL_HYPERBOLIC, k * mu)])
    F_k = MultiSeries(FF, 1, Orders(4, 0, 3), {((2,), 0, 0): beta})
    F_1 = MultiSeries(FF, 1, Orders(4, 0, 3), {((2,), 0, 0): k * beta})
    b_k = QuantumBNF(blocks_k, [zseries(FF, 0)], F_k)
    b_1 = QuantumBNF(blocks_1, [zseries(FF, 0)], F_1)
    phase_k, series_k = trace_power(b_k, k, (0, 3))
    phase_1, series_1 = trace_power(b_1, 1, (0, 3))
    assert abs(phase_k - phase_1) < 1e-14
    assert series_k.close_to(series_1, 1e-12)


def test_h0_coefficient_never_vanishes():
    rng = random.Random(9)
    for n in (1, 2):
        ehm = random_hyperbolic_exp_half(FF, n, rng)
        blocks = SpectrumBlocks(FF, [REAL_HYPERBOLIC] * n, ehm)
        F = random_F_total_degree(FF, n, rng)
        b = QuantumBNF(blocks, [zseries(FF, 0)] * n, F)
        for k in range(1, 7):
            _phase, series = trace_power(b, k, (0, 2))
            assert abs(series.get((), 0, 0)) > 1e-6


def test_oracle_agreement_low_h_orders():
    """a_{j,k}(0) for j <= 2 against the independent lattice-sum expansion
    of tr e^{-ikG/h} (hyperbolic blocks)."""
    rng = random.Random(17)
    for n in (1, 2):
        ehm = random_hyperbolic_exp_half(FF, n, rng)
        blocks = SpectrumBlocks(FF, [REAL_HYPERBOLIC] * n, ehm)
        F = random_F_total_degree(FF, n, rng, orders=(3, 0, 2))
        b = QuantumBNF(blocks, [zseries(FF, 0)] * n, F)
        for k in (1, 2, 3):
            phase, series = trace_power(b, k, (0, 2))
            oracle = brute_force_trace_coeffs(b, k, 2)
            phase = cmath.exp(-1j * k * FF.to_complex(phase))
            for j in range(3):
                mine = phase * FF.to_complex(series.get((), 0, j))
                assert abs(mine - oracle[j]) <= 1e-8 * max(1.0, abs(oracle[j]))


def test_make_trace_data_f_zero_closed_form():
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(2)])
    b = _zero_bnf(FR, blocks)
    action = zseries(FR, 3, {1: FR.one})
    td = make_trace_data(b, action, {}, 6, (3, 3))
    for k in range(1, 7):
        expr = hc.csch_product(FR, 1, k)
        expected = hc.eval_csch(expr, exp_half=[FR.from_int(2)])
        assert td.coefficients[k].get((), 0, 0) == expected


def test_make_trace_data_k_max_domain():
    F, b, action = rt1()
    with pytest.raises(SchemaError):
        make_trace_data(b, action, {}, 0, (3, 3))


def test_make_trace_data_rejects_resonant_blocks():
    blocks = SpectrumBlocks.from_mu(FF, [(ELLIPTIC, 2j * math.pi / 3)])
    b = _zero_bnf(FF, blocks, orders=(3, 2, 2))
    action = zseries(FF, 2, {1: FF.one})
    with pytest.raises(ResonanceError) as exc:
        make_trace_data(b, action, {}, 4, (2, 2))
    assert exc.value.witness == ((3,), 1)


def test_trace_data_validation():
    F, b, action = rt1()
    td = make_trace_data(b, action, {1: 1, 2: 2}, 4, (3, 3))
    assert td.maslov[1] == 1 and td.maslov[3] == 0
    bad_action = zseries(F, 3, {1: F.i})
    with pytest.raises(SchemaError):
        TraceData(F, 4, bad_action, {}, F.zero, td.coefficients)
    with pytest.raises(SchemaError):
        TraceData(F, 5, action, {}, F.zero, td.coefficients)  # missing k=5


def test_mixed_fixture_forward_runs():
    F, b = mixed_float_fixture(5)
    td = make_trace_data(b, zseries(F, 2, {1: F.one}), {}, 6, (2, 2))
    assert td.k_max == 6
    assert abs(F.to_complex(td.phase).imag) < 10  # phase is a scalar


class _ScratchEngine:
    """Stands in for TraceEngine with no caches at all: every z-series is
    built from scratch by apply_derivatives + eval_series_in_z, one power
    at a time, always to the full z-order: it accepts the z-order a
    forward reads and ignores it.  Its z-phase and trace_powers memos
    start empty, so its first trace_powers runs the whole forward.  It
    takes the constants -ik and (i/k)^d, which hold no csch values, from
    a TraceEngine."""

    def __init__(self, blocks, ks, n_z):
        self.blocks = blocks
        self.field = blocks.field
        self.ks = tuple(ks)
        self.n_z = n_z
        self.z_phases = {}
        self.trace_powers = {}
        constants = TraceEngine(blocks, ks, n_z)
        self.minus_ik, self.ik_power = constants.minus_ik, constants.ik_power

    def serves(self, *_state):
        return True

    def along(self, mu_jets):
        return mu_jets

    def zseries(self, alpha, mu_jets, _top=None):
        b, ks, out = self.blocks, self.ks, {}
        for i, k in enumerate(ks):
            expr = hc.apply_derivatives(hc.csch_product(b.field, b.n, k),
                                        alpha)
            s = hc.eval_series_in_z(expr, b.exp_half, mu_jets, self.n_z)
            for ((), m, _l), c in s.terms.items():
                out.setdefault(m, [b.field.zero] * len(ks))[i] = c
        return out

    partial_zseries = zseries  # a forward reads it; its values are reduced


def _one_power(engine, k, alpha, jets):
    """``engine.zseries`` at its power k, as a z-series."""
    i = engine.ks.index(k)
    return zseries(engine.field, engine.n_z,
                   {m: v[i] for m, v in engine.zseries(alpha, jets).items()})


def _power(bnf, k, orders, engine):
    """The phase and the expansion of power k from a pass over the
    engine's powers."""
    phase, series = qbnf.trace_powers(bnf, orders, engine)
    return phase, series[k]


def _rational_fixtures():
    """rt1 with a z^2 term in its mu-jet, and an exact n=2 fixture (rh E=2,
    elliptic E=(3+4i)/5) with jets and F coupling both actions."""
    _F, b1, _a = rt1()
    jet = zseries(FR, 3, {1: FR.one, 2: FR.from_rational("-2/5")})
    b1 = QuantumBNF(b1.blocks, [jet], b1.F)
    blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC, ELLIPTIC],
                            [FR.from_int(2), FR.from_rational("3/5", "4/5")])
    jets = [zseries(FR, 3, {1: FR.from_rational("1/3")}),
            zseries(FR, 3, {1: FR.from_rational(0, "-1/2"),
                            2: FR.from_rational(0, "1/7")})]
    F2 = MultiSeries(FR, 2, Orders(4, 3, 3), {
        ((2, 0), 0, 0): FR.from_rational("1/7"),
        ((1, 1), 0, 0): FR.from_rational("-2/3"),
        ((0, 2), 1, 0): FR.from_rational("1/5"),
        ((1, 0), 0, 1): FR.from_rational("3/4"),
        ((0, 1), 2, 1): FR.from_rational("-1/9"),
        ((0, 0), 0, 1): FR.from_rational("2/9"),
        ((2, 1), 0, 1): FR.from_rational("5/6"),
        ((1, 0), 1, 3): FR.from_rational("-1/2"),
    })
    return [b1, QuantumBNF(blocks, jets, F2)]


def _alphas_up_to(n, degree):
    return [a for a in itertools.product(range(degree + 1), repeat=n)
            if sum(a) <= degree]


def test_engine_trace_power_matches_scratch_reference():
    ks = range(1, 9)
    for b in _rational_fixtures():
        engine = TraceEngine(b.blocks, ks, 3)
        phase, refs = qbnf.trace_powers(b, (3, 3),
                                        _ScratchEngine(b.blocks, ks, 3))
        for k in ks:
            ref = list(refs[k].terms.items())
            got = _power(b, k, (3, 3), engine)
            again = _power(b, k, (3, 3), engine)  # from cache
            assert got[0] == again[0] == phase
            assert list(got[1].terms.items()) == ref
            assert list(again[1].terms.items()) == ref


def test_engine_matches_scratch_for_every_alpha():
    for b in _rational_fixtures():
        ks = (1, 2, 5)
        engine = TraceEngine(b.blocks, ks, 3)
        scratch = _ScratchEngine(b.blocks, ks, 3)
        for alpha in _alphas_up_to(b.n, 4):
            values = engine.at_mu0(alpha)
            for k, value in zip(ks, values, strict=True):
                assert _one_power(engine, k, alpha,
                                  engine.along(b.mu_jets)) == \
                    _one_power(scratch, k, alpha, b.mu_jets)
                expr = hc.apply_derivatives(hc.csch_product(FR, b.n, k), alpha)
                assert value == hc.eval_csch(expr,
                                             exp_half=b.blocks.exp_half)


def test_growing_degree_bound_keeps_every_term():
    """Each derivative raises the degree bound of a CschExpression's
    polynomial by one, so a chain truncates no term: on exact blocks of
    n = 1..3 and |alpha| up to 10, eval_csch of the chain equals the
    engine's table product exactly, and the polynomial's bound is |alpha|,
    which its top term reaches."""
    ks = (1, 2, 3)
    for b in (*_rational_fixtures(), n3_bnf()):
        engine = TraceEngine(b.blocks, ks, 0)
        for alpha in itertools.product(range(11), repeat=b.n):
            if not (sum(alpha) == 10 or max(alpha) <= 1):
                continue
            for k, value in zip(ks, engine.at_mu0(alpha), strict=True):
                expr = hc.apply_derivatives(hc.csch_product(FR, b.n, k), alpha)
                assert expr.poly.degree == sum(alpha)
                assert expr.poly.degree_part(sum(alpha)).terms
                assert hc.eval_csch(expr, exp_half=b.blocks.exp_half) == value


def test_coth_polys_equal_apply_derivatives():
    """d^a (1/2)csch(k mu/2) at mu(0): the engine's table entry against
    the one-variable CschExpression calculus, evaluated by eval_csch."""
    for field in (FR, FF):
        E = field.from_rational("5/3")
        blocks = SpectrumBlocks(field, [REAL_HYPERBOLIC], [E])
        ks = (1, 2, 3)
        engine = TraceEngine(blocks, ks, 0)
        for a in range(9):
            for k, value in zip(ks, engine.at_mu0((a,)), strict=True):
                ref = hc.apply_derivatives(hc.csch_product(field, 1, k), (a,))
                assert field.close(value, hc.eval_csch(ref, exp_half=[E]),
                                   1e-13)


@st.composite
def _block_mix(draw):
    """Exact blocks for n <= 3: rational rh E > 1, Pythagorean elliptic E,
    complex hyperbolic conjugate pairs in Q(i); tags and (re, im) pairs."""
    small = st.integers(1, 6)
    tags, exps = [], []
    while True:
        room = 3 - len(tags)
        kinds = ["rh", "el"] + (["ch"] if room >= 2 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "rh":
            q = draw(small)
            tags.append(REAL_HYPERBOLIC)
            exps.append((Fraction(q + draw(small), q), Fraction(0)))
        elif kind == "el":
            m = draw(st.integers(2, 6))
            n = draw(st.integers(1, m - 1))
            a, b, c = m * m - n * n, 2 * m * n, m * m + n * n
            if draw(st.booleans()):
                a, b = b, a
            tags.append(ELLIPTIC)
            exps.append((Fraction(a, c), Fraction(b, c)))
        else:
            re, im = draw(small), draw(small)
            r = draw(small.filter(lambda r: r * r < re * re + im * im))
            E = (Fraction(re, r), Fraction(im, r))
            tags += [COMPLEX_HYPERBOLIC] * 2
            exps += [E, (E[0], -E[1])]
        if len(tags) == 3 or draw(st.booleans()):
            return tags, exps


@st.composite
def _factorization_case(draw):
    tags, exps = draw(_block_mix())
    n_z = draw(st.integers(0, 3))
    coeff = st.fractions(-3, 3, max_denominator=5)
    jets = [{m: (draw(coeff), draw(coeff)) for m in range(1, n_z + 1)
             if draw(st.booleans())} for _ in tags]
    k = draw(st.integers(1, 5))
    alpha = tuple(draw(st.integers(0, 4)) for _ in tags)
    while sum(alpha) > 4:
        j = alpha.index(max(alpha))
        alpha = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
    return tags, exps, jets, n_z, k, alpha


def _rel_close(field, got, ref, scale):
    return field.abs(got - ref) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(_factorization_case())
def test_engine_factorization_matches_n_variable_calculus(case):
    """The per-block engine equals the n-variable reference: exactly on
    the rational field, within 1e-12 relative on doubles."""
    tags, exps, jets, n_z, k, alpha = case
    for field in (FR, FF):
        blocks = SpectrumBlocks(field, tags,
                                [field.from_rational(re, im)
                                 for re, im in exps])
        mu_jets = [zseries(field, n_z, {m: field.from_rational(*c)
                                        for m, c in jet.items()})
                   for jet in jets]
        engine = TraceEngine(blocks, (k,), n_z)
        expr = hc.apply_derivatives(hc.csch_product(field, len(tags), k),
                                    alpha)
        ref_series = hc.eval_series_in_z(expr, blocks.exp_half, mu_jets, n_z)
        ref_value = hc.eval_csch(expr, exp_half=blocks.exp_half)
        got_series = _one_power(engine, k, alpha, engine.along(mu_jets))
        (got_value,) = engine.at_mu0(alpha)
        if field.exact:
            assert got_series == ref_series
            assert got_value == ref_value
            continue
        assert _rel_close(field, got_value, ref_value, field.abs(ref_value))
        scale = max(field.abs(c) for c in ref_series.terms.values())
        keys = set(got_series.terms) | set(ref_series.terms)
        assert all(_rel_close(field, got_series.terms.get(key, 0),
                              ref_series.terms.get(key, 0), scale)
                   for key in keys)


def test_trace_power_rejects_engine_of_another_state():
    """An engine serves its own blocks at any z-order up to its own,
    giving the full series truncated there; it refuses other blocks and a
    higher z-order."""
    _F, b, _a = rt1()
    own = TraceEngine(b.blocks, (1,), 3)
    full = _power(b, 1, (3, 3), own)[1]
    low = _power(b, 1, (2, 3), own)[1]
    assert low.orders == Orders(0, 2, 3)
    assert low == MultiSeries(FR, 0, Orders(0, 2, 3), full.terms)
    with pytest.raises(SchemaError):
        _power(b, 1, (4, 3), own)
    other_blocks = SpectrumBlocks(FR, [REAL_HYPERBOLIC], [FR.from_int(3)])
    for engine in (TraceEngine(other_blocks, (1,), 3),
                   TraceEngine(b.blocks, (1,), 2)):
        with pytest.raises(SchemaError, match="trace engine"):
            qbnf.trace_powers(b, (3, 3), engine)


def test_an_engine_refuses_other_powers():
    """make_trace_data refuses an engine built for other powers than
    k = 1..k_max, fewer, more or reordered, before any forward."""
    _F, b, action = rt1()
    engine = TraceEngine(b.blocks, range(1, 9), 3)
    for k_max in (7, 9):
        with pytest.raises(SchemaError, match="trace engine"):
            make_trace_data(b, action, {}, k_max, (3, 3), engine=engine)
    reordered = TraceEngine(b.blocks, (2, 1, 3, 4, 5, 6, 7, 8), 3)
    with pytest.raises(SchemaError, match="trace engine"):
        make_trace_data(b, action, {}, 8, (3, 3), engine=reordered)
    assert engine.trace_powers == reordered.trace_powers == {}
    td = make_trace_data(b, action, {}, 8, (3, 3), engine=engine)
    assert sorted(td.coefficients) == list(range(1, 9))


def test_one_engine_serves_every_jet_state():
    """One engine asked for jet states A, B, A gives the trace_power series
    of a fresh engine for each, exactly: its z-series caches are keyed by
    the jets."""
    a = _rational_fixtures()[1]
    jets_b = [zseries(FR, 3, {2: FR.from_rational("5/4")}),
              zseries(FR, 3, {1: FR.from_rational(0, "1/3")})]
    b = QuantumBNF(a.blocks, jets_b, a.F)
    ks = (1, 2, 3)
    engine = TraceEngine(a.blocks, ks, 3)
    for bnf in (a, b, a):
        got = qbnf.trace_powers(bnf, (3, 3), engine)[1]
        want = qbnf.trace_powers(bnf, (3, 3), TraceEngine(a.blocks, ks, 3))[1]
        for k in ks:
            assert got[k].terms == want[k].terms


def test_a_zseries_is_the_full_series_cut_at_its_order():
    """zseries to z-order t has the keys, values and order of the full
    series cut at t, whether the orders are asked rising or falling, on
    the rational field and bit for bit on doubles."""
    _F, float_bnf = mixed_float_fixture(3, with_jets=True)
    for bnf in (*_rational_fixtures(), n3_bnf(), float_bnf):
        n_z = bnf.mu_jets[0].orders.z
        alphas = _alphas_up_to(bnf.n, 3)
        full = TraceEngine(bnf.blocks, (1, 4), n_z)
        jets = full.along(bnf.mu_jets)
        want = {alpha: full.zseries(alpha, jets) for alpha in alphas}
        for tops in (range(n_z + 1), range(n_z, -1, -1)):
            engine = TraceEngine(bnf.blocks, (1, 4), n_z)
            for top in tops:
                for alpha in alphas:
                    got = engine.zseries(alpha, engine.along(bnf.mu_jets), top)
                    assert list(got.items()) == [
                        (m, v) for m, v in want[alpha].items() if m <= top]


def test_engine_caches_do_not_depend_on_call_order():
    """The stage forwards (low layers, then an ``added`` deflation) and
    the full forward give a fresh engine's values and key order, whichever
    of them one engine serves first."""
    ks = (1, 2, 3)
    for bnf in (*_rational_fixtures(), n3_bnf()):
        added = {((1,) + (0,) * (bnf.n - 1), 1): FR.from_rational("2/7")}
        calls = [((m, 0), None) for m in range(4)]
        calls += [((3, j), None) for j in (1, 2)] + [((3, 1), added)]

        def fresh():
            return TraceEngine(bnf.blocks, ks, 3)

        def layers(engine=None):
            return [qbnf.trace_layers(bnf, orders, engine or fresh(),
                                      added=more)
                    for orders, more in calls]

        def forward(engine):
            phase, series = qbnf.trace_powers(bnf, (3, 3), engine)
            return phase, [(k, list(s.terms.items()))
                           for k, s in series.items()]

        want = layers(), forward(fresh())
        engine = fresh()
        assert (layers(engine), forward(engine)) == want
        engine = fresh()
        assert forward(engine) == want[1]
        assert layers(engine) == want[0]


@st.composite
def _truncation_case(draw):
    """An exact normal form over an n <= 2 block mix with z-dependent jets
    and a random F at orders (n_h + 1, n_z, n_h), and a power k."""
    tags, exps = draw(_block_mix().filter(lambda mix: len(mix[0]) <= 2))
    n = len(tags)
    n_z, n_h = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    coeff = st.fractions(-3, 3, max_denominator=5)
    jets = [{m: (draw(coeff), draw(coeff)) for m in range(1, n_z + 1)
             if draw(st.booleans())} for _ in tags]
    keys = [(alpha, m, l)
            for alpha in itertools.product(range(n_h + 2), repeat=n)
            for m in range(n_z + 1) for l in range(n_h + 1)
            if 1 <= l + sum(alpha) <= n_h + 1 and (l or sum(alpha) >= 2)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=6, unique=True)
                  if keys else st.just([]))
    F_terms = {key: (draw(coeff), draw(coeff)) for key in chosen}
    return tags, exps, jets, F_terms, n_z, n_h, draw(st.integers(1, 3))


@settings(max_examples=30, deadline=None)
@given(_truncation_case())
def test_trace_power_at_lower_orders_is_the_truncation(case):
    """For every (m, j) up to (n_z, n_h), trace_power at (m, j) through
    the full-order engine equals the full series truncated to (m, j)."""
    tags, exps, jets, F_terms, n_z, n_h, k = case
    blocks = SpectrumBlocks(FR, tags, [FR.from_rational(re, im)
                                       for re, im in exps])
    mu_jets = [zseries(FR, n_z, {m: FR.from_rational(*c)
                                 for m, c in jet.items()})
               for jet in jets]
    F = MultiSeries(FR, len(tags), Orders(n_h + 1, n_z, n_h),
                    {key: FR.from_rational(*c) for key, c in F_terms.items()})
    bnf = QuantumBNF(blocks, mu_jets, F)
    engine = TraceEngine(blocks, (k,), n_z)
    phase, full = _power(bnf, k, (n_z, n_h), engine)
    for m in range(n_z + 1):
        for j in range(n_h + 1):
            low = _power(bnf, k, (m, j), engine)
            assert low == (phase, MultiSeries(FR, 0, Orders(0, m, j),
                                              full.terms))


@st.composite
def _stage_case(draw):
    """Rational data of a normal form over an n <= 3 block mix: z-jets, a
    random F at orders (n_h + 1, n_z, n_h) with z-dependent f0 terms
    drawn on their own, and a power k."""
    tags, exps = draw(_block_mix())
    n = len(tags)
    n_z, n_h = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    coeff = st.fractions(-3, 3, max_denominator=5)
    jets = [{m: (draw(coeff), draw(coeff)) for m in range(1, n_z + 1)
             if draw(st.booleans())} for _ in tags]
    zero = (0,) * n
    keys = [(alpha, m, l)
            for alpha in itertools.product(range(n_h + 2), repeat=n)
            for m in range(n_z + 1) for l in range(n_h + 1)
            if 1 <= l + sum(alpha) <= n_h + 1 and (l or sum(alpha) >= 2)]
    f0_keys = [(zero, m, 1) for m in range(n_z + 1) if n_h >= 1]
    chosen = set()
    for pool, size in ((keys, 5), (f0_keys, 2)):
        if pool:
            chosen.update(draw(st.lists(st.sampled_from(pool),
                                        max_size=size)))
    F_terms = {key: (draw(coeff), draw(coeff)) for key in sorted(chosen)}
    return tags, exps, jets, F_terms, n_z, n_h, draw(st.integers(1, 4))


@settings(max_examples=25, deadline=None)
@given(_stage_case())
def test_a_layer_entry_is_the_trace_power_coefficient(case):
    """The z^m entry of trace_layers at (m, j) is the z^m h^j coefficient
    of trace_powers at (m, j) for every (m, j) up to the orders: exactly
    on the rational field, within 1e-12 relative on doubles."""
    tags, exps, jets, F_terms, n_z, n_h, k = case
    for field in (FR, FF):
        q = field.from_rational
        blocks = SpectrumBlocks(field, tags, [q(*e) for e in exps])
        mu_jets = [zseries(field, n_z, {m: q(*c) for m, c in jet.items()})
                   for jet in jets]
        F = MultiSeries(field, len(tags), Orders(n_h + 1, n_z, n_h),
                        {key: q(*c) for key, c in F_terms.items()})
        bnf = QuantumBNF(blocks, mu_jets, F)
        engine = TraceEngine(blocks, (k,), n_z)
        for m in range(n_z + 1):
            for j in range(n_h + 1):
                series = _power(bnf, k, (m, j), engine)[1]
                want = series.get((), m, j)
                (got,) = qbnf.trace_layers(bnf, (m, j), engine)[m]
                if field.exact:
                    assert got == want
                    continue
                scale = max(field.abs(c) for c in series.terms.values())
                assert field.abs(got - want) <= 1e-12 * scale


def test_trace_layers_checks_like_trace_powers():
    _F, b, _a = rt1()
    with pytest.raises(SchemaError, match="trace engine"):
        qbnf.trace_layers(b, (2, 2), TraceEngine(b.blocks, (1,), 1))
    with pytest.raises(SchemaError):
        qbnf.trace_layers(b, (4, 2), TraceEngine(b.blocks, (1,), 4))
    with pytest.raises(SchemaError, match="k must be a positive integer"):
        TraceEngine(b.blocks, (0,), 1)
    assert qbnf.trace_layers(b, (2, 2), TraceEngine(b.blocks, (3,), 2))[2] \
        == [trace_power(b, 3, (3, 3))[1].get((), 2, 2)]


def _per_k_trace_power(bnf, k, orders, engine):
    """trace_power with its F side rebuilt for this k: the operator
    exponential and the z-dependent phase come from exp_series of the
    k-scaled series, as before the F side was shared between powers."""
    f = bnf.field
    n_z, n_h = orders
    # F(h y, z; h)/h: iota^alpha z^m h^l goes to h^(l + |alpha| - 1)
    fs = MultiSeries(f, bnf.n, Orders(2 * n_h + 2, n_z, n_h),
                     {(alpha, m, l + sum(alpha) - 1): c
                      for (alpha, m, l), c in bnf.F.terms.items()
                      if l + sum(alpha) - 1 <= n_h})
    f0 = MultiSeries(f, 0, Orders(0, n_z, n_h),
                     {((), m, 0): c for (_a, m, l), c in fs.terms.items()
                      if l == 0})
    phase = f0.constant_term()
    f0plus = f0 - MultiSeries.scalar(f, 0, f0.orders, phase)
    minus_ik = -(f.i * f.from_int(k))
    X = MultiSeries(f, bnf.n, fs.orders,
                    {key: c for key, c in fs.terms.items() if key[2] >= 1})
    op = X.scale(minus_ik).exp_series()
    pz = f0plus.scale(minus_ik).exp_series()
    ik_inv = f.i * f.inv(f.from_int(k))
    out = {}
    for (alpha, m, l), c in op.terms.items():
        factor = c * ik_inv ** sum(alpha) if sum(alpha) else c
        for ((), m2, _), ec in _one_power(
                engine, k, alpha, engine.along(bnf.mu_jets)).terms.items():
            if m + m2 <= n_z:
                key = ((), m + m2, l)
                out[key] = out[key] + factor * ec if key in out \
                    else factor * ec
    return phase, MultiSeries(f, 0, Orders(0, n_z, n_h), out) * pz


def _with_z_dependent_f0(b, c1, c2):
    """``b`` with f0(z) = f0(0) + c1 z + c2 z^2 (h^1 terms, alpha = 0)."""
    terms = dict(b.F.terms)
    zero = (0,) * b.n
    terms[(zero, 1, 1)] = c1
    terms[(zero, 2, 1)] = c2
    F = MultiSeries(b.field, b.n, b.F.orders, terms)
    return QuantumBNF(b.blocks, b.mu_jets, F)


def test_trace_power_matches_per_k_exp_series_exact():
    for b in _rational_fixtures():
        b = _with_z_dependent_f0(b, FR.from_rational("-3/4"),
                                 FR.from_rational("2/5"))
        engine = TraceEngine(b.blocks, range(1, 9), 3)
        for k in range(1, 9):
            phase, coeffs = _per_k_trace_power(b, k, (3, 3), engine)
            got_phase, got = _power(b, k, (3, 3), engine)
            assert got_phase == phase
            assert got.terms == coeffs.terms


def _canonical(x):
    assert type(x) is RationalComplex
    assert x.d > 0 and math.gcd(x.a, x.b, x.d) == 1
    return x


@st.composite
def _exact_forward_case(draw):
    """One of the n <= 3 rational fixtures with an F term of weight
    n_h + 1 set to a drawn x (``plus``) and removed (``base``), the
    term's (alpha, m) and x, powers ks (K <= 3 at n = 3) and orders."""
    forms = (*_rational_fixtures(), n3_bnf())
    bnf = forms[draw(st.integers(0, len(forms) - 1))]
    n_z, n_h = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    ks = draw(st.sets(st.integers(1, 3 if bnf.n == 3 else 8), min_size=1,
                      max_size=2))
    alpha = draw(st.sampled_from(
        [a for a in itertools.product(range(n_h + 2), repeat=bnf.n)
         if 1 <= sum(a) <= n_h + 1 and n_h + 1 - sum(a) <= bnf.F.orders.h]))
    m = draw(st.integers(0, n_z))
    x = FR.from_rational(draw(st.fractions(-3, 3, max_denominator=7)),
                         draw(st.fractions(-3, 3, max_denominator=7)))
    terms = dict(bnf.F.terms)
    terms.pop((alpha, m, n_h + 1 - sum(alpha)), None)
    base = QuantumBNF(bnf.blocks, bnf.mu_jets,
                      MultiSeries(FR, bnf.n, bnf.F.orders, terms))
    terms[(alpha, m, n_h + 1 - sum(alpha))] = x
    plus = QuantumBNF(bnf.blocks, bnf.mu_jets,
                      MultiSeries(FR, bnf.n, bnf.F.orders, terms))
    return plus, base, (alpha, m), x, sorted(ks), (n_z, n_h)


@settings(max_examples=12, deadline=None)
@given(_exact_forward_case())
def test_values_leave_the_exact_forward_canonical(case):
    """The exact forward passes its sums unreduced between its steps, but
    every value it hands out is a canonical RationalComplex: the
    expansions, the layers with and without ``added``, the engine's
    z-series and values at mu(0), and every row of its closed-form csch
    tables.  The expansions and layers equal the reduce-every-step
    reference, and the ``added`` layer is what the term adds to the
    reference."""
    plus, base, (alpha, m), x, ks, orders = case
    n_z, n_h = orders
    engine = TraceEngine(plus.blocks, ks, n_z)
    phase, series = qbnf.trace_powers(plus, orders, engine)
    layers = qbnf.trace_layers(plus, orders, engine)
    added = qbnf.trace_layers(base, orders, engine, added={(alpha, m): x})
    for i, k in enumerate(ks):
        want_phase, want = _per_k_trace_power(plus, k, orders, engine)
        without = _per_k_trace_power(base, k, orders, engine)[1]
        assert _canonical(phase) == want_phase
        assert series[k].terms == want.terms
        assert [row[i] for row in layers] == [
            want.get((), z, n_h) for z in range(n_z + 1)]
        assert [row[i] for row in added] == [
            want.get((), z, n_h) - without.get((), z, n_h)
            for z in range(n_z + 1)]
    jets = engine.along(plus.mu_jets)
    rows = [*layers, *added]
    for a in _alphas_up_to(plus.n, n_h + 1):
        rows += [engine.at_mu0(a), *engine.zseries(a, jets).values()]
    assert engine._tables
    for table in engine._tables.values():
        assert isinstance(table, hc.CschClosedForm)
        rows += table.d
    rows += [list(s.terms.values()) for s in series.values()]
    assert all(_canonical(v) for row in rows for v in row)


def test_trace_power_matches_per_k_exp_series_float():
    _F, b = mixed_float_fixture(31, with_jets=True)
    b = _with_z_dependent_f0(b, 0.3 - 0.1j, -0.2 + 0j)
    engine = TraceEngine(b.blocks, range(1, 9), 2)
    for k in range(1, 9):
        phase, coeffs = _per_k_trace_power(b, k, (2, 2), engine)
        got_phase, got = _power(b, k, (2, 2), engine)
        assert FF.close(got_phase, phase, 1e-13)
        assert got.close_to(coeffs, 1e-13)


def test_a_forward_raises_X_to_powers_once(monkeypatch):
    """A forward forms the powers of X once for all the engine's powers,
    and exp_series never; an ``added`` deflation forms no powers at all,
    and reads the z-phase that its layer's forward left on the engine."""
    raised = []

    def counting(s):
        raised.append(s.n_actions)
        return powers(s)

    def no_exp(self):
        raise AssertionError("a forward must not call exp_series")

    monkeypatch.setattr(qbnf, "powers", counting)
    monkeypatch.setattr(MultiSeries, "exp_series", no_exp)
    for b in _rational_fixtures():
        raised.clear()
        b = _with_z_dependent_f0(b, FR.from_rational("-3/4"),
                                 FR.from_rational("2/5"))
        engine = TraceEngine(b.blocks, range(1, 9), 3)
        td = make_trace_data(b, zseries(FR, 3, {1: FR.one}), {}, 8, (3, 3),
                             engine=engine)
        assert sorted(td.coefficients) == list(range(1, 9))
        assert raised.count(b.n) == 1 and len(engine.z_phases) == 1
        raised.clear()
        qbnf.trace_layers(b, (3, 1), engine)
        assert raised == [b.n]  # X alone: the z-phase is on the engine
        z_phases = dict(engine.z_phases)
        added = {((1,) + (0,) * (b.n - 1), 1): FR.from_rational("2/7")}
        qbnf.trace_layers(b, (3, 1), engine, added=added)
        assert raised == [b.n]
        assert engine.z_phases == z_phases


def test_each_f0_gets_its_own_z_phase():
    """Two normal forms that differ in one f0 term z^m h^1 share an
    engine: each gets its own z-phase, and its layers and expansions are
    a fresh engine's in values and key order."""
    ks = (1, 2, 3)
    for b in _rational_fixtures():
        c1 = FR.from_rational("-3/4")
        forms = [_with_z_dependent_f0(b, c1, FR.from_rational(c2))
                 for c2 in ("2/5", "1/5")]

        def run(bnf, engine):
            layers = [qbnf.trace_layers(bnf, (3, j), engine)
                      for j in range(4)]
            phase, series = qbnf.trace_powers(bnf, (3, 3), engine)
            return layers, phase, [(k, list(s.terms.items()))
                                   for k, s in series.items()]

        engine = TraceEngine(b.blocks, ks, 3)
        for bnf in (*forms, forms[0]):
            assert run(bnf, engine) == run(bnf, TraceEngine(b.blocks, ks, 3))
        assert len(engine.z_phases) == 2


def _counting_forwards(monkeypatch):
    """The k of every full forward expansion (qbnf._forward without a
    layer) made from here on, one entry per power."""
    forward, full = qbnf._forward, []

    def counting(bnf, orders, engine, layer=None, added=None):
        if layer is None:
            full.extend(engine.ks)
        return forward(bnf, orders, engine, layer, added)

    monkeypatch.setattr(qbnf, "_forward", counting)
    return full


def _with_F_term(b, key, c):
    terms = dict(b.F.terms)
    terms[key] = c
    return QuantumBNF(b.blocks, b.mu_jets,
                      MultiSeries(b.field, b.n, b.F.orders, terms))


def test_trace_power_memo_hits_only_an_equal_normal_form(monkeypatch):
    """The engine keeps its powers' expansions by the orders, F's terms
    and the jets' terms: an equal normal form built anew reads them back,
    one that differs in one F term, or by one ulp of a double in F or a
    jet, runs its own forward, and so does another engine's power."""
    full = _counting_forwards(monkeypatch)
    _F, b, _a = rt1()
    engine = TraceEngine(b.blocks, (2,), 3)
    tp = _power(b, 2, (3, 3), engine)[1]
    again = QuantumBNF(b.blocks, [zseries(FR, 3, {1: FR.one})],
                       MultiSeries(FR, 1, b.F.orders, dict(b.F.terms)))
    assert _power(again, 2, (3, 3), engine)[1] is tp
    assert full == [2]
    other = _with_F_term(b, ((2,), 1, 1), FR.from_rational("1/9"))
    assert _power(other, 2, (3, 3), engine)[1] is not tp
    assert trace_power(b, 3, (3, 3))[1] is not tp
    assert _power(b, 2, (2, 3), engine)[1] is not tp
    assert full == [2, 2, 3, 2]

    _F, fb = mixed_float_fixture(31, with_jets=True)
    engine = TraceEngine(fb.blocks, (1,), 2)
    tp = _power(fb, 1, (2, 2), engine)[1]
    key, c = next(iter(fb.F.terms.items()))
    ulp = complex(math.nextafter(c.real, math.inf), c.imag)
    jet = fb.mu_jets[0]
    jet_ulp = zseries(FF, 2, {1: complex(math.nextafter(
        jet.get((), 1, 0).real, 1.0)), 2: jet.get((), 2, 0)})
    for nudged in (_with_F_term(fb, key, ulp),
                   QuantumBNF(fb.blocks, [jet_ulp, fb.mu_jets[1]], fb.F)):
        assert _power(nudged, 1, (2, 2), engine)[1] is not tp
    assert full == [2, 2, 3, 2, 1, 1, 1]


def test_trace_power_memo_hit_equals_a_fresh_expansion(monkeypatch):
    """A memo hit is term for term the expansion a fresh engine makes, on
    the rational field and on doubles, and the orders are still checked
    before the lookup."""
    _F, fb = mixed_float_fixture(31, with_jets=True)
    for b, orders in [(b, (3, 3)) for b in _rational_fixtures()] + [
            (fb, (2, 2))]:
        ks = (1, 4)
        engine = TraceEngine(b.blocks, ks, orders[0])
        qbnf.trace_powers(b, orders, engine)
        for k in ks:
            hit = _power(b, k, orders, engine)
            fresh = trace_power(b, k, orders)
            assert hit[0] == fresh[0]
            assert list(hit[1].terms.items()) == list(fresh[1].terms.items())
        with pytest.raises(SchemaError):
            _power(b, 1, (orders[0] + 1, orders[1]), engine)


def test_a_power_reads_the_same_in_any_pass():
    """A power's expansion is term for term, in the same order, what a
    pass for that power alone gives, whichever powers share the pass: all
    of 1..8 at once, or a repeated and unsorted few, on fresh engines.  On
    the rational fixtures and on doubles with a z-dependent f0."""
    _F, fb = mixed_float_fixture(31, with_jets=True)
    fb = _with_z_dependent_f0(fb, 0.3 - 0.1j, -0.2 + 0j)
    for b, orders in [(b, (3, 3)) for b in _rational_fixtures()] + [
            (fb, (2, 2))]:
        alone = {k: trace_power(b, k, orders) for k in range(1, 9)}
        for ks in (range(1, 9), (5, 2, 5, 1)):
            engine = TraceEngine(b.blocks, ks, orders[0])
            phase, series = qbnf.trace_powers(b, orders, engine)
            assert sorted(series) == sorted(set(ks))
            for k, s in series.items():
                assert phase == alone[k][0]
                assert list(s.terms.items()) == \
                    list(alone[k][1].terms.items())


def test_a_pole_at_one_power_is_named():
    """A float elliptic block E = exp(i pi/3) has poles at k = 3 and 6.  A
    pass over k = 1..6 raises the pole of k = 3 with the one-power text,
    and one over (6, 5, 3) names k = 6, the first pole in the engine's
    order.  make_trace_data refuses the form before any forward, as
    resonant at k=[3]."""
    # exp(i pi/3) as cmath.exp gives it, spelled out so that the pole's
    # size does not hang on the platform's exp
    blocks = SpectrumBlocks(FF, [ELLIPTIC], [0.5000000000000001 +
                                             0.8660254037844386j])
    F = MultiSeries(FF, 1, Orders(3, 2, 2), {
        ((2,), 0, 0): 0.3 + 0.1j, ((1,), 1, 1): -0.2 + 0j,
        ((0,), 1, 1): 0.25 + 0j, ((1,), 0, 2): 0.1j})
    b = QuantumBNF(blocks, [zseries(FF, 2, {1: 0.1j, 2: 0.02j})], F)
    engine = TraceEngine(blocks, range(1, 7), 2)
    with pytest.raises(PoleError) as exc:
        qbnf.trace_powers(b, (2, 2), engine)
    assert str(exc.value) == ("|sinh(k mu/2)| = 3.886e-16 below pole "
                              "tolerance 1.0e-09 (k=3)")
    with pytest.raises(PoleError, match=r"\(k=6\)$"):
        qbnf.trace_layers(b, (2, 2), TraceEngine(blocks, (6, 5, 3), 2))
    with pytest.raises(ResonanceError, match=r"k=\[3\]"):
        make_trace_data(b, zseries(FF, 2, {1: FF.one}), {}, 6, (2, 2))
