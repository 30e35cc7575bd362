"""Command-line front end.

Responses are JSON on stdout with sorted keys and no floats; integers
past the 53-bit safe range are rendered as decimal strings so nothing
downstream rounds them.  Identical requests produce byte-identical
output.  Exit codes: 0 success, 1 a check command found failures, 2 bad
flags, unparseable input or a stdout closed before the response.  main
returns them all, argparse's too; run(argv) adds stdout and stderr.

Every request needs exterior; each handler imports the other layers it
uses where it runs, so a request loads only those.
"""

import argparse
import json
import os
import re
import sys

from .exterior import WORD, SurfaceTopology, _too_many_digits, clip, format_int
from .exterior import format_multivector, parse_multivector

_SAFE_MAX = 2**53 - 1
_INT_TEXT = re.compile(r"\s*[+-]?\d+\s*")


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


def _parse_k0(pairs):
    table = {}
    for item in pairs or []:
        name, eq, value = item.partition("=")
        if not eq or not name:
            raise ValueError(f"bad --k0 entry {clip(repr(item))}, expected name=integer")
        try:
            n = int(value)
        except ValueError:
            if _INT_TEXT.fullmatch(value):
                # a well-formed integer that int() refuses is past the digit limit
                why = f"for {clip(repr(name))}, {_too_many_digits()}"
            else:
                why = f"in {clip(repr(item))}, expected an integer"
            raise ValueError(f"bad --k0 value {why}") from None
        # a word as the tokenizer reads it, so k0[name] can refer to it
        if not re.fullmatch(WORD, name):
            raise ValueError(f"bad --k0 name {clip(repr(name))}, expected a word")
        if name in table:
            raise ValueError(f"--k0 name {clip(repr(name))} given twice")
        table[name] = n
    return table


def _respond(args) -> int:
    """Run one parsed request, print its JSON line and return the exit code.

    inputs repeats every flag as parsed, with --form in canonical text
    and --k0 as a sorted table.  The handler finds --form parsed in
    args.form and a slant expression's normal form in args.nf; it
    returns the result dict.
    """
    inputs = {k: v for k, v in vars(args).items() if k not in ("cmd", "run")}
    if "form" in inputs:
        topo = SurfaceTopology(args.genus)
        args.form = parse_multivector(args.form, topo)
    if "expr" in inputs:
        from .slant import AlgebraContext, normalize, parse_expr

        if args.cmd == "evaluate" and args.r != 1:
            raise ValueError("evaluate only supports the rank-1 algebra (--r 1)")
        inputs["k0"] = dict(sorted(_parse_k0(args.k0).items()))
        ctx = AlgebraContext(args.r, args.genus, args.scalar_degree, inputs["k0"])
        args.nf = normalize(parse_expr(args.expr, ctx), ctx)
    result = args.run(args)
    if "form" in inputs:
        inputs["form"] = format_multivector(args.form, topo)
    payload = {"command": args.cmd, "inputs": inputs, "result": result}
    print(json.dumps(_safe(payload), sort_keys=True), flush=True)
    return 1 if result.get("passed") is False else 0


def _cmd_ggw(args):
    from .invariants import ggw_abelian

    value = 0 if args.chamber == "empty" else ggw_abelian(args.genus, args.r0, args.v, args.form)
    return {"value": value}


def _cmd_ggw_bundle(args):
    from .indices import abelian_v

    args.v = abelian_v(args.r0, args.deg_e, args.deg_e0, args.genus)
    return {"v": args.v, **_cmd_ggw(args)}


def _cmd_sw(args):
    from .indices import RuledSurfaceGeometry
    from .invariants import sw_ruled

    res = sw_ruled(args.d, args.n, RuledSurfaceGeometry(args.genus, args.deg_v0), args.form)
    return {
        "sign": res.sign,
        "plus": res.value_signed_chamber if res.sign > 0 else 0,
        "minus": res.value_signed_chamber if res.sign < 0 else 0,
        "w_c": res.w_c,
        "pair_with_fibre": res.pair_with_fibre,
        "c": {"s": res.c.s, "f": res.c.f},
    }


def _cmd_quot_count(args):
    from .invariants import quot_count

    # r0 >= 2^(bits - 1), so past this budget r0^genus >= 16^limit > 10^limit could
    # not print: refuse before the power; a bad genus or rank is quot_count's to refuse
    limit = sys.get_int_max_str_digits()
    if limit and args.r0 > 1 and args.genus * (args.r0.bit_length() - 1) >= 4 * limit:
        raise ValueError(_too_many_digits())
    return {"value": quot_count(args.genus, args.r0)}


def _cmd_normalize(args):
    from .slant import print_normal

    return {"normal_form": print_normal(args.nf)}


def _cmd_evaluate(args):
    from .slant import evaluate_abelian

    value = evaluate_abelian(args.nf, args.genus, args.r0, args.v)
    return {**_cmd_normalize(args), "value": value}


def _cmd_check(args):
    from .checks import run_all

    reports = run_all(args.max_genus, args.max_r0, args.max_deg)
    failures = sum(r.failures for r in reports)
    return {
        "grids": [{name: getattr(r, name) for name in r.__slots__} for r in reports],
        "total_cases": sum(r.cases for r in reports),
        "total_failures": failures,
        "passed": failures == 0,
    }


def _add_ints(sub, *names):
    # in the given order, which argparse's "required" messages follow
    for name in names:
        sub.add_argument(name, type=int, required=True)


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
    _add_ints(sub, "--genus")
    sub.add_argument("--scalar-degree", type=int, default=0)
    sub.add_argument(
        "--k0",
        action="append",
        metavar="NAME=INT",
        help="integral of a named degree-2 class pulled back from the curve",
    )
    sub.add_argument("expr", help="slant-algebra expression")


class _ArgParser(argparse.ArgumentParser):
    """Flag errors exit 2 with one line, as every other error does; subparsers share the class."""

    def error(self, message):
        # argparse takes a value that starts with '-' for a flag, so expr reads as
        # missing and --form as bare
        if "expr" in message.partition("arguments are required: ")[2].split(", "):
            message += " (an expr that starts with '-' goes after --)"
        elif message == "argument --form: expected one argument":
            message += " (a form that starts with '-' goes as --form=...)"
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgParser(
        prog="ruledinv",
        description="Exact quotient counts and Seiberg-Witten invariants of ruled surfaces",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)

    p = subs.add_parser("ggw", help="closed-form count at explicit v")
    _add_ints(p, "--genus", "--r0", "--v")
    _add_form_flag(p)
    _add_chamber_flag(p)
    p.set_defaults(run=_cmd_ggw)

    p = subs.add_parser("ggw-bundle", help="count from bundle degrees")
    _add_ints(p, "--genus", "--r0", "--deg-e", "--deg-e0")
    _add_form_flag(p)
    _add_chamber_flag(p)
    p.set_defaults(run=_cmd_ggw_bundle)

    p = subs.add_parser("sw", help="Seiberg-Witten values on the ruled surface")
    _add_ints(p, "--genus", "--d", "--n", "--deg-v0")
    _add_form_flag(p)
    p.set_defaults(run=_cmd_sw)

    p = subs.add_parser("quot-count", help="count in the zero-dimensional regime")
    _add_ints(p, "--genus", "--r0")
    p.set_defaults(run=_cmd_quot_count)

    p = subs.add_parser("normalize", help="normal form of a slant expression")
    _add_slant_flags(p)
    p.set_defaults(run=_cmd_normalize)

    p = subs.add_parser("evaluate", help="normalize then evaluate in the rank-1 algebra")
    _add_slant_flags(p)
    _add_ints(p, "--r0", "--v")
    p.set_defaults(run=_cmd_evaluate)

    p = subs.add_parser("check", help="run the cross-validation grids")
    p.add_argument("--max-genus", type=int, default=4)
    p.add_argument("--max-r0", type=int, default=4)
    p.add_argument("--max-deg", type=int, default=3)
    p.set_defaults(run=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exit_:
            return exit_.code
        finally:
            # argparse prints --help before it exits; flushing here lets a
            # closed stdout take the branch below, not fail in the exit flush
            sys.stdout.flush()
        return _respond(args)
    except (ValueError, NotImplementedError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
    except BrokenPipeError:
        # the reader left early; as Python's signal docs advise, keep the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the response was written", file=sys.stderr)
    return 2


def run(argv) -> tuple:
    """main(argv) run in this process: (exit code, stdout, stderr), a cli.jsonl line's fields."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    sys.exit(main())
