"""Command-line front end.

Responses are JSON on stdout with sorted keys and no floats; integers
past the 53-bit safe range are rendered as decimal strings so nothing
downstream rounds them.  Identical requests produce byte-identical
output.  Exit codes: 0 success, 1 a check command found failures, 2 bad
flags or unparseable input.
"""

import argparse
import json
import sys

from .checks import run_all
from .exterior import SurfaceTopology, format_int, format_multivector, parse_multivector
from .indices import RuledSurfaceGeometry, abelian_v
from .invariants import ggw_abelian, quot_count, sw_ruled
from .slant import AlgebraContext, evaluate_abelian, normalize, parse_expr, print_normal

_SAFE_MAX = 2**53 - 1


def _safe(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return format_int(obj) if abs(obj) > _SAFE_MAX else obj
    if isinstance(obj, dict):
        return {k: _safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_safe(v) for v in obj]
    return obj


def _emit(command: str, inputs: dict, result: dict):
    payload = {"command": command, "inputs": inputs, "result": result}
    print(json.dumps(_safe(payload), sort_keys=True))


def _parse_k0(pairs):
    table = {}
    for item in pairs or []:
        name, eq, value = item.partition("=")
        if not eq or not name:
            raise ValueError(f"bad --k0 entry {item!r}, expected name=integer")
        try:
            table[name] = int(value)
        except ValueError:
            raise ValueError(f"bad --k0 value in {item!r}, expected an integer") from None
    return table


def _cmd_ggw(args):
    topo = SurfaceTopology(args.genus)
    l = parse_multivector(args.form, topo)
    value = 0 if args.chamber == "empty" else ggw_abelian(args.genus, args.r0, args.v, l)
    _emit(
        "ggw",
        {
            "genus": args.genus,
            "r0": args.r0,
            "v": args.v,
            "form": format_multivector(l, topo),
            "chamber": args.chamber,
        },
        {"value": value},
    )
    return 0


def _cmd_ggw_bundle(args):
    topo = SurfaceTopology(args.genus)
    l = parse_multivector(args.form, topo)
    v = abelian_v(args.r0, args.deg_e, args.deg_e0, args.genus)
    value = 0 if args.chamber == "empty" else ggw_abelian(args.genus, args.r0, v, l)
    _emit(
        "ggw-bundle",
        {
            "genus": args.genus,
            "r0": args.r0,
            "deg_e": args.deg_e,
            "deg_e0": args.deg_e0,
            "form": format_multivector(l, topo),
            "chamber": args.chamber,
        },
        {"v": v, "value": value},
    )
    return 0


def _cmd_sw(args):
    topo = SurfaceTopology(args.genus)
    l = parse_multivector(args.form, topo)
    geom = RuledSurfaceGeometry(args.genus, args.deg_v0)
    res = sw_ruled(args.d, args.n, geom, l)
    plus = res.value_signed_chamber if res.sign > 0 else 0
    minus = res.value_signed_chamber if res.sign < 0 else 0
    _emit(
        "sw",
        {
            "genus": args.genus,
            "d": args.d,
            "n": args.n,
            "deg_v0": args.deg_v0,
            "form": format_multivector(l, topo),
        },
        {
            "sign": res.sign,
            "plus": plus,
            "minus": minus,
            "w_c": res.w_c,
            "pair_with_fibre": res.pair_with_fibre,
            "c": {"s": res.c.s, "f": res.c.f},
        },
    )
    return 0


def _cmd_quot_count(args):
    _emit(
        "quot-count",
        {"genus": args.genus, "r0": args.r0},
        {"value": quot_count(args.genus, args.r0)},
    )
    return 0


def _context(args):
    return AlgebraContext(
        r=args.r,
        genus=args.genus,
        scalar_degree=args.scalar_degree,
        k0_eval=_parse_k0(args.k0),
    )


def _cmd_normalize(args):
    ctx = _context(args)
    nf = normalize(parse_expr(args.expr, ctx), ctx)
    _emit(
        "normalize",
        {
            "r": ctx.r,
            "genus": ctx.genus,
            "scalar_degree": ctx.scalar_degree,
            "k0": dict(sorted(ctx.k0_eval.items())),
            "expr": args.expr,
        },
        {"normal_form": print_normal(nf)},
    )
    return 0


def _cmd_evaluate(args):
    if args.r != 1:
        raise ValueError("evaluate only supports the rank-1 algebra (--r 1)")
    ctx = _context(args)
    nf = normalize(parse_expr(args.expr, ctx), ctx)
    value = evaluate_abelian(nf, args.genus, args.r0, args.v)
    _emit(
        "evaluate",
        {
            "r": ctx.r,
            "genus": ctx.genus,
            "scalar_degree": ctx.scalar_degree,
            "k0": dict(sorted(ctx.k0_eval.items())),
            "r0": args.r0,
            "v": args.v,
            "expr": args.expr,
        },
        {"normal_form": print_normal(nf), "value": value},
    )
    return 0


def _cmd_check(args):
    reports = run_all(args.max_genus, args.max_r0, args.max_deg)
    grids = [
        {
            "name": r.name,
            "cases": r.cases,
            "failures": r.failures,
            "first_counterexample": r.first_counterexample,
        }
        for r in reports
    ]
    failures = sum(r.failures for r in reports)
    _emit(
        "check",
        {"max_genus": args.max_genus, "max_r0": args.max_r0, "max_deg": args.max_deg},
        {
            "grids": grids,
            "total_cases": sum(r.cases for r in reports),
            "total_failures": failures,
            "passed": failures == 0,
        },
    )
    return 0 if failures == 0 else 1


def _add_form_flag(sub):
    sub.add_argument("--form", default="1", help="multivector like '2*a1^b1 - a2^b2 + 3'")


def _add_chamber_flag(sub):
    sub.add_argument(
        "--chamber",
        choices=("interesting", "empty"),
        default="interesting",
        help="empty-chamber override reports 0 without evaluating",
    )


def _add_slant_flags(sub):
    sub.add_argument("--r", type=int, default=1, help="number of Chern generators")
    sub.add_argument("--genus", type=int, required=True)
    sub.add_argument("--scalar-degree", type=int, default=0, dest="scalar_degree")
    sub.add_argument(
        "--k0",
        action="append",
        metavar="NAME=INT",
        help="integral of a named degree-2 class pulled back from the curve",
    )
    sub.add_argument("expr", help="slant-algebra expression")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruledinv",
        description="Exact quotient counts and Seiberg-Witten invariants of ruled surfaces",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)

    p = subs.add_parser("ggw", help="closed-form count at explicit v")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--r0", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    _add_form_flag(p)
    _add_chamber_flag(p)
    p.set_defaults(run=_cmd_ggw)

    p = subs.add_parser("ggw-bundle", help="count from bundle degrees")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--r0", type=int, required=True)
    p.add_argument("--deg-e", type=int, required=True, dest="deg_e")
    p.add_argument("--deg-e0", type=int, required=True, dest="deg_e0")
    _add_form_flag(p)
    _add_chamber_flag(p)
    p.set_defaults(run=_cmd_ggw_bundle)

    p = subs.add_parser("sw", help="Seiberg-Witten values on the ruled surface")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--deg-v0", type=int, required=True, dest="deg_v0")
    _add_form_flag(p)
    p.set_defaults(run=_cmd_sw)

    p = subs.add_parser("quot-count", help="count in the zero-dimensional regime")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--r0", type=int, required=True)
    p.set_defaults(run=_cmd_quot_count)

    p = subs.add_parser("normalize", help="normal form of a slant expression")
    _add_slant_flags(p)
    p.set_defaults(run=_cmd_normalize)

    p = subs.add_parser("evaluate", help="normalize then evaluate in the rank-1 algebra")
    _add_slant_flags(p)
    p.add_argument("--r0", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.set_defaults(run=_cmd_evaluate)

    p = subs.add_parser("check", help="run the cross-validation grids")
    p.add_argument("--max-genus", type=int, default=4, dest="max_genus")
    p.add_argument("--max-r0", type=int, default=4, dest="max_r0")
    p.add_argument("--max-deg", type=int, default=3, dest="max_deg")
    p.set_defaults(run=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, NotImplementedError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
