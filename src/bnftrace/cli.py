"""Command line interface.

Exit codes: 0 success, 2 input/schema error, 3 mathematical failure
(resonance, pole, rank deficiency, a float stage's cond * u > tol, ...).

Subcommands: forward, recover, roundtrip, classical-bnf.  The recovery
reads the number of blocks from the traces.  Each option is checked by
its argparse type, and each file by its reader in :mod:`bnftrace.jsonio`,
which defines every file format.
"""

import argparse
import functools
import math
import sys

from . import jsonio
from .classical import birkhoff_normal_form
from .errors import MathError, SchemaError
from .qbnf import TraceEngine, make_trace_data
from .recover import recover_qbnf, require_recoverable
from .series import zseries


# option types: argparse quotes a type's name in the usage error for text
# the type cannot convert, and a value it converts but refuses is an input
# error
def _tolerance(dest):
    # a nan would turn a gate off and an inf would pass anything
    def tolerance(text):
        v = float(text)
        if not (v > 0 and math.isfinite(v)):
            raise SchemaError(f"{dest} must be positive and finite, "
                              f"got {v!r}")
        return v
    return tolerance


def precision(text):
    # 64 bits select native doubles, more select mpmath: none is narrower
    bits = int(text)
    if bits < 64:
        raise SchemaError(f"float_precision must be >= 64 bits, got {bits}")
    return bits


def orders(text):
    parts = text.split(",")
    if len(parts) != 3 or not all(x.strip().isdigit() for x in parts):
        raise SchemaError("--orders expects IOTA,Z,H")
    iota, z, h = map(int, parts)
    # the trace at h-order H reads F through iota^(H+1); nothing else
    # reads IOTA
    if iota < h + 1:
        raise SchemaError(f"orders IOTA,Z,H need IOTA >= H + 1 = {h + 1}, "
                          f"got IOTA = {iota}")
    return iota, z, h


# every option a subcommand can take, keyed by its destination
_OPTIONS = {
    "float_precision": ("--precision", {"type": precision, "default": 64}),
    "orders": ("--orders", {"type": orders, "default": (4, 3, 3),
                            "help": "IOTA,Z,H truncation orders, with "
                            "IOTA >= H + 1"}),
    "k_max": ("--kmax", {"type": int, "default": 8}),
    "out": ("--out", {}),
    "report": ("--report", {}),
}
_OPTIONS.update((dest, ("--" + dest.replace("_", "-"),
                         {"type": _tolerance(dest), "default": 1e-8}))
                for dest in ("tol_resonance", "tol_residual"))


def _add_options(p, *dests):
    """Give subcommand ``p`` the options it reads, and only those."""
    for dest in dests:
        flag, kwargs = _OPTIONS[dest]
        p.add_argument(flag, dest=dest, **kwargs)


def _forward_tracedata(args, bnf, engine=None):
    if args.action is None:
        # default action I(z) = z
        action, maslov = zseries(bnf.field, args.orders[1],
                                 {1: bnf.field.one}), {}
    else:
        action, maslov = jsonio.action_from_json(jsonio.load(args.action),
                                                 bnf.field)
    return make_trace_data(bnf, action, maslov, args.k_max, args.orders[1:],
                           engine=engine)


def _report(args, rep):
    """Write the recovery report if asked, print it, and refuse a recovery
    whose self-check failed."""
    if args.report:
        jsonio.dump(args.report, jsonio.recovery_report_to_json(rep))
    print(jsonio.render_report_text(rep))
    if rep.failed:
        raise MathError(f"recovery self-check residual {rep.max_residual:.3e} "
                        f"exceeds tolerance {args.tol_residual:.1e}")


def cmd_forward(args):
    bnf = jsonio.qbnf_from_json(jsonio.load(args.bnf), args.float_precision)
    td = _forward_tracedata(args, bnf)
    out = args.out or "traces.json"
    jsonio.dump(out, jsonio.trace_data_to_json(td))
    print(f"wrote {out}: k_max={td.k_max}, orders z<={args.orders[1]} "
          f"h<={args.orders[2]}")
    return 0


def cmd_recover(args):
    td = jsonio.trace_data_from_json(jsonio.load(args.traces),
                                     args.float_precision)
    rep = recover_qbnf(td, tol=args.tol_residual)
    out = args.out or "bnf_recovered.json"
    jsonio.dump(out, jsonio.qbnf_to_json(rep.recovered))
    _report(args, rep)
    print(f"wrote {out}")
    return 0


def cmd_roundtrip(args):
    bnf = jsonio.qbnf_from_json(jsonio.load(args.bnf), args.float_precision)
    # the recovery returns the blocks in canonical order, and the comparison
    # below goes slot by slot
    perm = bnf.blocks.canonical_order()
    if perm != list(range(bnf.n)):
        raise SchemaError(
            "roundtrip needs the blocks in canonical order (complex "
            "hyperbolic pairs, real hyperbolic, elliptic, each sorted): "
            f"list the given blocks in the order {perm}"
        )
    require_recoverable(bnf, *args.orders[1:], args.k_max)
    # the recovery reuses the forward engine for every stage when it
    # serves the recovered blocks, as it does when the round trip is exact
    engine = TraceEngine(bnf.blocks, range(1, args.k_max + 1), args.orders[1])
    td = _forward_tracedata(args, bnf, engine)
    rep = recover_qbnf(td, tol=args.tol_residual, engine=engine)
    _report(args, rep)
    # exact on the rational field, whose closeness is equality
    if not rep.recovered.close_to(bnf, args.tol_residual):
        raise MathError("round trip mismatch: recovered data differs from input")
    print("round trip ok: recovered data equals the input" +
          (" exactly" if bnf.field.exact else
           f" within {args.tol_residual:.1e}"))
    return 0


def cmd_classical_bnf(args):
    # the normalizer works from a double eigendecomposition, pure Python
    # like the rest of the package, so the map is read in doubles
    tmap = jsonio.taylor_map_from_json(jsonio.load(args.map))
    res = birkhoff_normal_form(tmap, args.degree,
                               small_denominator_tol=args.tol_resonance)
    print(f"blocks: {res.blocks!r}")
    print(f"smallest homological denominator: {res.conditioning:.6e}")
    print(f"normal form defect at truncation: {res.residual:.3e}")
    print("p coefficients (complexified actions iota_j = a_j b_j):")
    for m in sorted(res.p_complex):
        c = tmap.field.to_complex(res.p_complex[m])
        print(f"  iota^{m}: {c.real:+.12g} {c.imag:+.12g}i")
    if args.report:
        jsonio.dump(args.report, jsonio.classical_report_to_json(res))
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
    _add_options(p, "float_precision", "orders", "k_max", "out")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("recover", help="TraceData file -> QuantumBNF file")
    p.add_argument("--traces", required=True)
    _add_options(p, "float_precision", "tol_residual", "out", "report")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("roundtrip",
                       help="forward then recover; exit 0 iff equal")
    p.add_argument("--bnf", required=True)
    _add_options(p, "float_precision", "orders", "k_max", "tol_residual",
                 "report")
    # the recovery reads no action file: forward with the default action
    p.set_defaults(func=cmd_roundtrip, action=None)

    p = sub.add_parser("classical-bnf",
                       help="Birkhoff normal form of a TaylorMap file")
    p.add_argument("--map", required=True)
    p.add_argument("--degree", type=int, default=2,
                   help="iota degree of the reported normal form")
    _add_options(p, "tol_resonance", "report")
    p.set_defaults(func=cmd_classical_bnf)
    return ap


# one parser per process; each cmd_* still looks up the functions it calls
# at call time
_parser = functools.cache(build_parser)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
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
