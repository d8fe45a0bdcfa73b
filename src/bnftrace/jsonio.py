"""JSON formats for every serialized type.

Numbers travel as strings: exact rationals as "p/q", floats as decimal
strings with enough digits for their precision, so parse(serialize(x)) == x
on both backends.  Variable order inside series terms is fixed as
(iota_1..iota_n, z, h).

Exponent data in blocks is stored through exp_half_mu = exp(mu_j/2); the
exponent itself is mu_j = 2 Log exp_half_mu (principal branch, safe under
the block normalizations).  Trace coefficients are stored with the
constant scalar phase factored out: the represented trace is
e^{ikS(z)/h} e^{-ik*phase} sum_j c_{jk}(z) h^j.
"""

import json

from .blocks import SpectrumBlocks
from .errors import SchemaError
from .fields import field_from_name
from .oscillatory import OrbitExpansion, TestJet
from .qbnf import QuantumBNF, TraceData
from .series import MultiSeries, Orders


def _need(obj, key, kind=None):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"missing required key {key!r}")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise SchemaError(f"key {key!r} has wrong type {type(val).__name__}")
    return val


def _parsed(key, parse, *text):
    """``parse(*text)``, where ``text`` is the value of ``key``; a malformed
    number is an input error that names both."""
    try:
        return parse(*text)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"malformed number under key {key}: "
                          f"{', '.join(map(repr, text))} ({exc})") from None


def scalar_to_json(field, x):
    re, im = field.format(x)
    return {"re": re, "im": im}


def scalar_from_json(field, obj):
    return _parsed("'re'/'im'", field.parse, str(_need(obj, "re")),
                   str(obj.get("im", "0")))


def maslov_from_json(obj):
    """The Maslov indices k -> m of a trace or action file."""
    return {_parsed("'maslov'", int, k): _parsed(f"'maslov'/{k!r}", int, v)
            for k, v in obj.items()}


def series_to_json(s):
    terms = []
    for (alpha, m, l) in sorted(s.terms):
        c = s.terms[(alpha, m, l)]
        re, im = s.field.format(c)
        terms.append({"iota": list(alpha), "z": m, "h": l, "re": re, "im": im})
    return {
        "n_actions": s.n_actions,
        "orders": {"iota": s.orders.iota, "z": s.orders.z, "h": s.orders.h},
        "field": s.field.name,
        "terms": terms,
    }


def series_from_json(obj, field=None):
    name = _need(obj, "field", str)
    field = field or field_from_name(name)
    n = _need(obj, "n_actions", int)
    od = _need(obj, "orders", dict)
    orders = Orders(_need(od, "iota", int), _need(od, "z", int),
                    _need(od, "h", int))
    terms = {}
    for t in _need(obj, "terms", list):
        alpha = tuple(_need(t, "iota", list))
        key = (alpha, _need(t, "z", int), _need(t, "h", int))
        terms[key] = scalar_from_json(field, t)
    return MultiSeries(field, n, orders, terms)


def blocks_to_json(blocks):
    f = blocks.field
    out = []
    for tag, E in zip(blocks.tags, blocks.exp_half):
        entry = {"type": tag, "exp_half_mu": scalar_to_json(f, E)}
        mu = 2 * __import__("cmath").log(f.to_complex(E))
        entry["mu_display"] = [mu.real, mu.imag]
        out.append(entry)
    return out


def blocks_from_json(obj, field):
    tagged = []
    for entry in obj:
        tag = _need(entry, "type", str)
        E = scalar_from_json(field, _need(entry, "exp_half_mu", dict))
        tagged.append((tag, E))
    return SpectrumBlocks.from_exp_half(field, tagged)


def qbnf_to_json(b):
    return {
        "field": b.field.name,
        "n": b.n,
        "blocks": blocks_to_json(b.blocks),
        "mu_jets": [series_to_json(j) for j in b.mu_jets],
        "F": series_to_json(b.F),
    }


def qbnf_from_json(obj, precision=64):
    field = field_from_name(_need(obj, "field", str), precision)
    blocks = blocks_from_json(_need(obj, "blocks", list), field)
    jets = [series_from_json(j, field) for j in _need(obj, "mu_jets", list)]
    F = series_from_json(_need(obj, "F", dict), field)
    return QuantumBNF(blocks, jets, F)


def trace_data_to_json(t):
    f = t.field
    return {
        "field": f.name,
        "k_max": t.k_max,
        "action": series_to_json(t.action),
        "phase": scalar_to_json(f, t.phase),
        "maslov": {str(k): v for k, v in sorted(t.maslov.items())},
        "coefficients": {
            str(k): series_to_json(t.coefficients[k])
            for k in range(1, t.k_max + 1)
        },
    }


def trace_data_from_json(obj, precision=64):
    field = field_from_name(_need(obj, "field", str), precision)
    k_max = _need(obj, "k_max", int)
    action = series_from_json(_need(obj, "action", dict), field)
    phase = scalar_from_json(field, _need(obj, "phase", dict))
    maslov = maslov_from_json(_need(obj, "maslov", dict))
    coeffs = {}
    for k, s in _need(obj, "coefficients", dict).items():
        coeffs[_parsed("'coefficients'", int, k)] = series_from_json(s, field)
    return TraceData(field, k_max, action, maslov, phase, coeffs)


def taylor_map_to_json(tm):
    f = tm.field
    comps = []
    for comp in tm.pmap.comps:
        entries = []
        for exps in sorted(comp.terms):
            re, im = f.format(comp.terms[exps])
            entries.append({"exps": list(exps), "re": re, "im": im})
        comps.append(entries)
    return {"field": f.name, "n": tm.n, "degree": tm.degree,
            "components": comps}


def taylor_map_from_json(obj, precision=64, tol=1e-8):
    from .classical import TaylorMap

    field = field_from_name(_need(obj, "field", str), precision)
    n = _need(obj, "n", int)
    degree = _need(obj, "degree", int)
    comps = []
    for entries in _need(obj, "components", list):
        terms = {}
        for e in entries:
            terms[tuple(_need(e, "exps", list))] = scalar_from_json(field, e)
        comps.append(terms)
    return TaylorMap(field, n, degree, comps, tol=tol)


def test_jet_to_json(g):
    f = g.field
    return {"field": f.name,
            "base_point": scalar_to_json(f, g.base_point),
            "jet": [scalar_to_json(f, v) for v in g.jet]}


def test_jet_from_json(obj, precision=64):
    field = field_from_name(_need(obj, "field", str), precision)
    base = scalar_from_json(field, _need(obj, "base_point", dict))
    jet = [scalar_from_json(field, v) for v in _need(obj, "jet", list)]
    return TestJet(field, base, jet)


def orbit_to_json(o):
    f = o.field
    return {
        "field": f.name,
        "i_jets": [scalar_to_json(f, v) for v in o.i_jets],
        "a_jets": [
            {"j": j, "l": l, **scalar_to_json(f, c)}
            for (j, l), c in sorted(o.a_jets.items())
        ],
    }


def orbit_from_json(obj, precision=64):
    field = field_from_name(_need(obj, "field", str), precision)
    i_jets = [scalar_from_json(field, v) for v in _need(obj, "i_jets", list)]
    a_jets = {}
    for e in _need(obj, "a_jets", list):
        a_jets[(_need(e, "j", int), _need(e, "l", int))] = scalar_from_json(field, e)
    return OrbitExpansion(field, i_jets, a_jets)


def recovery_report_to_json(rep):
    rec = rep.recovered
    f = rec.field
    worst_by_stage = {}
    for (j, k, m), v in rep.residuals.items():
        key = f"h{j}:z{m}"
        worst_by_stage[key] = max(worst_by_stage.get(key, 0.0), v)
    return {
        "failed": rep.failed,
        "max_residual": rep.max_residual,
        "residual_by_stage": worst_by_stage,
        "conditioning": {k: v for k, v in rep.conditioning.items()},
        "normalization_notes": list(rep.normalization_notes),
        "recovered": qbnf_to_json(rec),
    }


def render_report_text(rep):
    lines = []
    lines.append("recovery " + ("FAILED" if rep.failed else "succeeded"))
    lines.append(f"max self-check residual: {rep.max_residual:.3e}")
    lines.append("condition numbers per stage:")
    for stage in sorted(rep.conditioning):
        lines.append(f"  {stage:>10s}: {rep.conditioning[stage]:.6e}")
    for note in rep.normalization_notes:
        lines.append("note: " + note)
    return "\n".join(lines)


def dump(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON in {path}: {exc}") from exc
