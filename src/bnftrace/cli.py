"""Command line interface.

Exit codes: 0 success, 2 input/schema error, 3 mathematical failure
(resonance, pole, rank deficiency, conditioning, ...).

Subcommands: forward, recover, roundtrip, classical-bnf, classify, oracle.
All file formats are defined in :mod:`bnftrace.jsonio`.
"""

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import hypcalc, jsonio
from .classical import birkhoff_normal_form, classify_eigenvalues
from .config import RunConfig
from .errors import MathError, SchemaError
from .fields import field_from_name
from .qbnf import TraceEngine, make_trace_data
from .recover import recover_qbnf, require_recoverable
from .series import MultiSeries, Orders


def _fmt_value(field, v):
    re, im = field.format(v)
    if field.exact:
        return f"{re} + {im} i"
    c = field.to_complex(v)
    return f"{re} + {im} i   (~ {c.real:.6g} + {c.imag:.6g} i)"


# every option a subcommand can take, keyed by its destination: a RunConfig
# field, whose default it shares, or an argument read by the command itself
_OPTIONS = {
    "backend": ("--backend", {"choices": ["rational", "float"]}),
    "float_precision": ("--precision", {"type": int}),
    "orders": ("--orders", {"help": "IOTA,Z,H truncation orders; the "
                            "trace at h-order H reads F through iota^(H+1), "
                            "so IOTA >= H + 1"}),
    "k_max": ("--kmax", {"type": int}),
    "tol_pole": ("--tol-pole", {"type": float}),
    "tol_resonance": ("--tol-resonance", {"type": float}),
    "tol_conditioning": ("--tol-conditioning", {"type": float}),
    "tol_residual": ("--tol-residual", {"type": float}),
    "out": ("--out", {}),
    "report": ("--report", {}),
}
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _add_options(p, *dests):
    """Give subcommand ``p`` the options it reads, and only those."""
    for dest in dests:
        flag, kwargs = _OPTIONS[dest]
        p.add_argument(flag, dest=dest, default=getattr(RunConfig, dest, None),
                       **kwargs)


def _config_from_args(args):
    """The RunConfig of a subcommand's options; RunConfig's defaults stand
    for the options it does not take."""
    opts = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS}
    if isinstance(opts.get("orders"), str):
        parts = opts["orders"].split(",")
        if len(parts) != 3 or not all(x.strip().isdigit() for x in parts):
            raise SchemaError("--orders expects IOTA,Z,H")
        opts["orders"] = tuple(int(x) for x in parts)
    return RunConfig(**opts)


def _load_action(path, field, n_z):
    if path is None:
        # default action I(z) = z
        return MultiSeries(field, 0, Orders(0, n_z, 0),
                           {((), 1, 0): field.one}), {}
    obj = jsonio.load(path)
    action = jsonio.series_from_json(jsonio._need(obj, "action", dict), field)
    maslov = jsonio.maslov_from_json(obj.get("maslov", {}))
    return action, maslov


def _forward_tracedata(bnf, action, maslov, cfg, engine=None):
    return make_trace_data(bnf, action, maslov, cfg.k_max, cfg.orders[1:],
                           pole_tol=cfg.tol_pole,
                           resonance_tol=cfg.tol_resonance, engine=engine)


def cmd_forward(args):
    cfg = _config_from_args(args)
    bnf = jsonio.qbnf_from_json(jsonio.load(args.bnf), cfg.float_precision)
    action, maslov = _load_action(args.action, bnf.field, cfg.orders[1])
    td = _forward_tracedata(bnf, action, maslov, cfg)
    out = args.out or "traces.json"
    jsonio.dump(out, jsonio.trace_data_to_json(td))
    print(f"wrote {out}: k_max={td.k_max}, orders z<={cfg.orders[1]} "
          f"h<={cfg.orders[2]}")
    return 0


def cmd_recover(args):
    cfg = _config_from_args(args)
    td = jsonio.trace_data_from_json(jsonio.load(args.traces),
                                     cfg.float_precision)
    rep = recover_qbnf(td, args.n, tol=cfg.tol_residual,
                       cond_gate=cfg.tol_conditioning,
                       pole_tol=cfg.tol_pole)
    out = args.out or "bnf_recovered.json"
    jsonio.dump(out, jsonio.qbnf_to_json(rep.recovered))
    if args.report:
        jsonio.dump(args.report, jsonio.recovery_report_to_json(rep))
    print(jsonio.render_report_text(rep))
    if rep.failed:
        raise MathError(
            f"recovery self-check residual {rep.max_residual:.3e} exceeds "
            f"tolerance {cfg.tol_residual:.1e}"
        )
    print(f"wrote {out}")
    return 0


def cmd_roundtrip(args):
    cfg = _config_from_args(args)
    bnf = jsonio.qbnf_from_json(jsonio.load(args.bnf), cfg.float_precision)
    # the recovery returns the blocks in canonical order, and the comparison
    # below goes slot by slot
    perm = bnf.blocks.canonical_order()
    if perm != list(range(bnf.n)):
        raise SchemaError(
            "roundtrip needs the blocks in canonical order (complex "
            "hyperbolic pairs, real hyperbolic, elliptic, each sorted): "
            f"list the given blocks in the order {perm}"
        )
    require_recoverable(bnf, *cfg.orders[1:])
    action, maslov = _load_action(args.action, bnf.field, cfg.orders[1])
    # the recovery reuses the forward engine for every stage whose state
    # it serves: all the late ones, when the round trip is exact
    engine = TraceEngine(bnf.blocks, bnf.mu_jets, cfg.orders[1], cfg.tol_pole)
    td = _forward_tracedata(bnf, action, maslov, cfg, engine)
    rep = recover_qbnf(td, bnf.n, tol=cfg.tol_residual,
                       cond_gate=cfg.tol_conditioning, pole_tol=cfg.tol_pole,
                       engine=engine)
    if args.report:
        jsonio.dump(args.report, jsonio.recovery_report_to_json(rep))
    print(jsonio.render_report_text(rep))
    if rep.failed:
        raise MathError("forward self-check failed")
    # exact on the rational field, whose closeness is equality
    if not rep.recovered.close_to(bnf, cfg.tol_residual):
        raise MathError("round trip mismatch: recovered data differs from input")
    print("round trip ok: recovered data equals the input" +
          (" exactly" if bnf.field.exact else
           f" within {cfg.tol_residual:.1e}"))
    return 0


def cmd_classical_bnf(args):
    cfg = _config_from_args(args)
    tmap = jsonio.taylor_map_from_json(jsonio.load(args.map),
                                       cfg.float_precision)
    res = birkhoff_normal_form(tmap, args.degree,
                               small_denominator_tol=cfg.tol_resonance)
    print(f"blocks: {res.blocks!r}")
    print(f"smallest homological denominator: {res.conditioning:.6e}")
    print(f"normal form defect at truncation: {res.residual:.3e}")
    print("p coefficients (complexified actions iota_j = a_j b_j):")
    for m in sorted(res.p_complex):
        c = tmap.field.to_complex(res.p_complex[m])
        print(f"  iota^{m}: {c.real:+.12g} {c.imag:+.12g}i")
    if args.report:
        f = tmap.field
        jsonio.dump(args.report, {
            "blocks": jsonio.blocks_to_json(res.blocks),
            "p": [{"m": list(m), "re": f.format(c)[0], "im": f.format(c)[1]}
                  for m, c in sorted(res.p_complex.items())],
            "conditioning": res.conditioning,
            "residual": res.residual,
        })
    return 0


def cmd_classify(args):
    obj = jsonio.load(args.matrix)
    M = jsonio._parsed("'matrix'", lambda rows: np.array(rows, dtype=float),
                       jsonio._need(obj, "matrix", list))
    blocks = classify_eigenvalues(M)
    print(f"n = {blocks.n}: n_e={blocks.n_e} n_rh={blocks.n_rh} "
          f"n_ch={blocks.n_ch}")
    for tag, mu in zip(blocks.tags, blocks.mu()):
        print(f"  {tag:>20s}: mu = {mu.real:+.12g} {mu.imag:+.12g}i")
    return 0


def _parse_exp_half(field, text):
    out = []
    for part in text.split(";"):
        bits = part.split(",")
        re = bits[0].strip()
        im = bits[1].strip() if len(bits) > 1 else "0"
        out.append(field.parse(re, im))
    return out


def _parse_oracle_input(args, field):
    """(field, exp_half, alpha) from the oracle flags; a malformed flag is
    an input error."""
    try:
        if args.mu is not None:
            field = field_from_name(args.backend or "float",
                                    args.float_precision)
            ehm = [field.exp(complex(s) * 0.5) for s in args.mu.split(";")]
        elif args.exp_half is not None:
            ehm = _parse_exp_half(field, args.exp_half)
        else:
            raise SchemaError("need --mu or --exp-half")
        alpha = (tuple(int(x) for x in args.alpha.split(","))
                 if args.alpha else (0,) * len(ehm))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"malformed oracle input: {exc}") from None
    if len(alpha) != len(ehm):
        raise SchemaError("alpha arity must match the exponent count")
    if min(alpha) < 0:
        raise SchemaError(f"alpha entries must be >= 0, got {alpha}")
    return field, ehm, alpha


def cmd_oracle(args):
    _config_from_args(args)  # validates --precision and --tol-pole
    field = field_from_name(args.backend or "rational", args.float_precision)
    field, ehm, alpha = _parse_oracle_input(args, field)
    if args.oracle_cmd == "lattice-sum":
        v = hypcalc.lattice_sum_oracle({alpha: field.one}, exp_half=ehm,
                                       k=args.k, truncation=args.truncation,
                                       field=field)
    else:  # csch-derivative
        expr = hypcalc.apply_derivatives(
            hypcalc.csch_product(field, len(ehm), args.k), alpha)
        v = hypcalc.eval_csch(expr, exp_half=ehm, pole_tol=args.tol_pole)
    print(_fmt_value(field, v))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="bnftrace",
        description="Semiclassical trace expansions from quantum Birkhoff "
                    "normal forms, and their inverse recovery.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("forward", help="QuantumBNF file -> TraceData file")
    p.add_argument("--bnf", required=True)
    p.add_argument("--action", default=None)
    _add_options(p, "float_precision", "orders", "k_max", "tol_pole",
                 "tol_resonance", "out")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("recover", help="TraceData file -> QuantumBNF file")
    p.add_argument("--traces", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_options(p, "float_precision", "tol_pole", "tol_conditioning",
                 "tol_residual", "out", "report")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("roundtrip",
                       help="forward then recover; exit 0 iff equal")
    p.add_argument("--bnf", required=True)
    p.add_argument("--action", default=None)
    _add_options(p, "float_precision", "orders", "k_max", "tol_pole",
                 "tol_resonance", "tol_conditioning", "tol_residual",
                 "report")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("classical-bnf",
                       help="Birkhoff normal form of a TaylorMap file")
    p.add_argument("--map", required=True)
    p.add_argument("--degree", type=int, default=2,
                   help="iota degree of the reported normal form")
    _add_options(p, "float_precision", "tol_resonance", "report")
    p.set_defaults(func=cmd_classical_bnf)

    p = sub.add_parser("classify", help="classify a symplectic matrix")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("oracle", help="desk-check oracles")
    p.add_argument("oracle_cmd", choices=["lattice-sum", "csch-derivative"])
    p.add_argument("--mu", default=None,
                   help="exponents as complex literals 'a+bj;...'")
    p.add_argument("--exp-half", default=None, dest="exp_half",
                   help="exp(mu/2) values 're,im;re,im' (rationals allowed)")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--truncation", type=int, default=60)
    p.add_argument("--alpha", default=None,
                   help="derivative/monomial multi-index 'a1,a2,...'")
    _add_options(p, "backend", "float_precision", "tol_pole")
    p.set_defaults(func=cmd_oracle)
    return ap


# one parser per process; each cmd_* still looks up the functions it calls
# at call time
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except MathError as exc:
        print(f"math error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
