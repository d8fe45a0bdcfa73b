"""JSON formats of every file the CLI reads or writes, and their checks:
normal forms, action files, trace data, Taylor maps, recovery and
``classical-bnf`` reports (and a writer for orbit expansions).

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
import math
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii

from .blocks import SpectrumBlocks
from .errors import MathError, SchemaError
from .fields import field_from_name, nan_max
from .phasepoly import exponents
from .qbnf import QuantumBNF, TraceData
from .series import MultiSeries, Orders


def _need(obj, key, kind=None):
    """``obj[key]``, of type ``kind`` if given; a JSON true or false is
    never a number, though bool subclasses int."""
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"missing required key {key!r}")
    val = obj[key]
    if kind is not None and (isinstance(val, bool)
                             or not isinstance(val, kind)):
        raise SchemaError(f"key {key!r} has wrong type {type(val).__name__}")
    return val


def _integer(v):
    """``int(v)`` for an integral number or the text of an integer; a
    bool or a number with a fractional part is a ValueError."""
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"not an integer: {v!r}")
    return int(v)


def _exponents(obj, key):
    """The exponent tuple under ``key``: a list of integers (the series
    checks arity and signs)."""
    exps = _need(obj, key, list)
    if not all(type(e) is int for e in exps):
        raise SchemaError(f"key {key!r} must list integer exponents, "
                          f"got {exps!r}")
    return tuple(exps)


def _parsed(key, parse, *text):
    """``parse(*text)``, where ``text`` is the value of ``key``; a malformed
    number, or an integer beyond the double range where a double belongs,
    is an input error that names both."""
    try:
        return parse(*text)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SchemaError(f"malformed number under key {key}: "
                          f"{', '.join(map(repr, text))} ({exc})") from None


def _field(obj, precision=64, outer=None):
    """The field named under 'field', which inside a file of field
    ``outer`` must be ``outer``."""
    name = _need(obj, "field", str)
    if name not in ("rational", "float") or outer and name != outer.name:
        raise SchemaError(f"key 'field' is {name!r}, not " + (
            f"{outer.name!r}, the file's field" if outer
            else "'rational' or 'float'"))
    return outer or field_from_name(name, precision)


def scalar_to_json(field, x):
    re, im = field.format(x)
    return {"re": re, "im": im}


def scalar_from_json(field, obj):
    """A number of ``field``; an infinite or nan one is an input error,
    judged at the field's precision."""
    text = str(_need(obj, "re")), str(obj.get("im", "0"))
    x = _parsed("'re'/'im'", field.parse, *text)
    if not field.is_finite(x):
        raise SchemaError("non-finite number under key 're'/'im': "
                          f"{', '.join(map(repr, text))}")
    return x


def _by_power(key, obj, k_max, read):
    """``read(text, value)`` of each entry of ``obj``, keyed by the trace
    power k = 1..``k_max`` that its key ``text`` under ``key`` names; two
    keys that name one power, as "1" and "01" do, are refused."""
    out, named = {}, {}
    for text, v in obj.items():
        k = _parsed(key, int, text)
        if k < 1:
            raise SchemaError(f"key {key} names power {text!r}, below k = 1")
        if k > k_max:
            raise SchemaError(f"key {key} names power k={k} above "
                              f"k_max = {k_max}")
        if named.setdefault(k, text) != text:
            raise SchemaError(f"key {key} names power k={k} twice: "
                              f"{named[k]!r} and {text!r}")
        out[k] = read(text, v)
    return out


def maslov_from_json(obj, k_max=math.inf):
    """The Maslov indices k -> m of a trace or action file."""
    return _by_power("'maslov'", obj, k_max,
                     lambda k, v: _parsed(f"'maslov'/{k!r}", _integer, v))


def series_to_json(s):
    """The terms of ``s``; an exact coefficient with an integer beyond
    Python's limit on integer text is a MathError that names its term."""
    terms = []
    for (alpha, m, l) in sorted(s.terms):
        c = s.terms[(alpha, m, l)]
        try:
            re, im = s.field.format(c)
        except ValueError:
            term = (f"iota^{list(alpha)} " if alpha else "") + f"z^{m} h^{l}"
            raise MathError(
                f"the coefficient of {term} has an integer of more than "
                f"{sys.get_int_max_str_digits()} digits, which Python does "
                "not write as text") from None
        terms.append({"iota": list(alpha), "z": m, "h": l, "re": re, "im": im})
    return {
        "n_actions": s.n_actions,
        "orders": {"iota": s.orders.iota, "z": s.orders.z, "h": s.orders.h},
        "field": s.field.name,
        "terms": terms,
    }


def series_from_json(obj, field=None):
    field = _field(obj, outer=field)
    n = _need(obj, "n_actions", int)
    od = _need(obj, "orders", dict)
    orders = Orders(*(_need(od, key, int) for key in Orders._fields))
    # a negative order would drop terms silently
    if min(orders) < 0:
        raise SchemaError(f"key 'orders' must be nonnegative, got {od!r}")
    terms = {}
    for t in _need(obj, "terms", list):
        key = (_exponents(t, "iota"), _need(t, "z", int), _need(t, "h", int))
        terms[key] = scalar_from_json(field, t)
    return MultiSeries(field, n, orders, terms)


def blocks_to_json(blocks):
    return [{"type": tag, "exp_half_mu": scalar_to_json(blocks.field, E),
             "mu_display": [mu.real, mu.imag]}
            for tag, E, mu in zip(blocks.tags, blocks.exp_half, blocks.mu())]


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
    field = _field(obj, precision)
    n = _need(obj, "n", int)
    blocks = blocks_from_json(_need(obj, "blocks", list), field)
    if n != blocks.n:
        raise SchemaError(f"key 'n' is {n}, but 'blocks' lists {blocks.n}")
    jets = [series_from_json(j, field) for j in _need(obj, "mu_jets", list)]
    F = series_from_json(_need(obj, "F", dict), field)
    return QuantumBNF(blocks, jets, F)


def trace_data_to_json(t):
    f = t.field
    coefficients = {}
    for k in range(1, t.k_max + 1):
        try:
            coefficients[str(k)] = series_to_json(t.coefficients[k])
        except MathError as exc:
            raise MathError(f"trace power k={k}: {exc}") from None
    return {
        "field": f.name,
        "k_max": t.k_max,
        "action": series_to_json(t.action),
        "phase": scalar_to_json(f, t.phase),
        "maslov": {str(k): v for k, v in sorted(t.maslov.items())},
        "coefficients": coefficients,
    }


def trace_data_from_json(obj, precision=64):
    field = _field(obj, precision)
    k_max = _need(obj, "k_max", int)
    action = series_from_json(_need(obj, "action", dict), field)
    phase = scalar_from_json(field, _need(obj, "phase", dict))
    maslov = maslov_from_json(_need(obj, "maslov", dict), k_max)
    coeffs = _by_power("'coefficients'", _need(obj, "coefficients", dict),
                       k_max, lambda _k, s: series_from_json(s, field))
    return TraceData(field, k_max, action, maslov, phase, coeffs)


def action_from_json(obj, field):
    """The action series and Maslov indices k -> m of an action file, read
    in the normal form's ``field``; 'maslov' may be left out."""
    action = series_from_json(_need(obj, "action", dict), field)
    maslov = (maslov_from_json(_need(obj, "maslov", dict))
              if "maslov" in obj else {})
    return action, maslov


def taylor_map_to_json(tm):
    f = tm.field
    comps = []
    for comp in tm.pmap.comps:
        entries = []
        for key in sorted(comp.terms):
            re, im = f.format(comp.terms[key])
            entries.append({"exps": list(exponents(key, comp.nvars)),
                            "re": re, "im": im})
        comps.append(entries)
    return {"field": f.name, "n": tm.n, "degree": tm.degree,
            "components": comps}


def taylor_map_from_json(obj):
    from .classical import TaylorMap

    field = _field(obj)
    n = _need(obj, "n", int)
    degree = _need(obj, "degree", int)
    comps = []
    for entries in _need(obj, "components", list):
        if not isinstance(entries, list):
            raise SchemaError("each of 'components' must be a list of "
                              f"terms, got {entries!r}")
        comps.append({_exponents(e, "exps"): scalar_from_json(field, e)
                      for e in entries})
    return TaylorMap(field, n, degree, comps)


def classical_report_to_json(res):
    """The ``classical-bnf`` report of a :class:`BNFResult`."""
    f = res.blocks.field
    return {"blocks": blocks_to_json(res.blocks),
            "p": [{"m": list(m), **scalar_to_json(f, c)}
                  for m, c in sorted(res.p_complex.items())],
            "conditioning": _finite(res.conditioning),
            "residual": _finite(res.residual)}


def _finite(x):
    """A report number as written: null when it is infinite or nan."""
    return x if math.isfinite(x) else None


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


def recovery_report_to_json(rep):
    rec = rep.recovered
    f = rec.field
    worst_by_stage = {}
    for (j, k, m), v in rep.residuals.items():
        key = f"h{j}:z{m}"
        worst_by_stage[key] = nan_max([worst_by_stage.get(key, 0.0), v])
    return {
        "failed": rep.failed,
        "max_residual": _finite(rep.max_residual),
        "residual_by_stage": {k: _finite(v) for k, v in worst_by_stage.items()},
        "conditioning": {k: _finite(v) for k, v in rep.conditioning.items()},
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


def _encode(obj, indent=""):
    """The text of ``json.dumps(obj, indent=1, allow_nan=False)`` for a
    value nested at ``indent``, without the stdlib's pure-Python encoder
    that an indent selects: containers are joined here, and every other
    value goes to the C encoder.  Object keys are strings."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    inner = indent + " "
    if isinstance(obj, dict):
        body = [f"{encode_basestring_ascii(k)}: {_encode(v, inner)}"
                for k, v in obj.items()]
        ends = "{}"
    elif isinstance(obj, list) or isinstance(obj, tuple):
        body = [_encode(v, inner) for v in obj]
        ends = "[]"
    else:
        return json.dumps(obj, allow_nan=False)
    if not body:
        return ends
    return (f"{ends[0]}\n{inner}" + f",\n{inner}".join(body)
            + f"\n{indent}{ends[1]}")


def dump(path, obj):
    """Serialize ``obj``, then write it: a value json refuses writes no file."""
    text = _encode(obj) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _object(pairs):
    """A JSON object as a dict; a key it repeats is an input error, where
    json would keep the later value silently."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(k for k, _v in pairs)
        key = next(k for k, n in counts.items() if n > 1)
        raise SchemaError(f"key {key!r} appears twice in one object")
    return obj


def load(path):
    """The JSON document in the file ``path``; a file that is not UTF-8
    JSON, is nested too deep to parse or repeats a key in one object is
    an input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_object)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"JSON in {path} is nested too deep") from None
    except SchemaError as exc:
        raise SchemaError(f"{exc} in {path}") from None
