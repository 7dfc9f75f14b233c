"""Command-line front end for scripted checks and exploration.

Subcommands:

    check <algebra>                 run all axiom, derived, unitarity checks
    eval <algebra> <diagram-file>   evaluate a ribbon diagram file
    partition <algebra> <surface>   closed-surface partition function
    states <algebra>                NS and R circle state spaces
    abk <presentation>              Gauss-sum invariant of an enhancement
    classify <algebra>              invertible-theory class
    stack <algA> <algB> <surface..> stacking multiplicativity report

Algebra specs use the grammar cl(p,q) | clc(n) | mat(p|q) combined with (+)
and (x), with an optional @alpha=<literal> suffix.  Output is deterministic;
--format kv switches to flat "key = value" lines.  Exit codes: 0 success,
1 failed check, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .axioms import full_report
from .cyclo import CycloNum, zeta_pow
from .pingeo import abk, parse_presentation, render_presentation
from .ribbon import DiagramError, evaluate, parse
from .superalgebra import parse_algebra
from .tqft import (
    classify_invertible,
    parse_surface,
    partition_function,
    stacking_check,
    state_space,
)


def _decimal(z: CycloNum) -> str:
    c = z.to_complex()
    return f"{c.real:.6f}{c.imag:+.6f}i"


def _root_label(z: CycloNum) -> str | None:
    for k in range(8):
        if z == zeta_pow(k):
            return f"ABK^{k}"
    return None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halftwist",
        description="Exact pin state sums from half twist algebras.",
    )
    parser.add_argument(
        "--format", choices=("text", "kv"), default="text", help="output style"
    )
    parser.add_argument(
        "--alpha", default=None, help="default alpha literal for algebra specs"
    )
    parser.add_argument(
        "--max-width", type=int, default=None, help="evaluator boundary-width guard"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the thirteen axioms and more")
    p.add_argument("algebra")
    p = sub.add_parser("eval", help="evaluate a ribbon diagram file")
    p.add_argument("algebra")
    p.add_argument("diagram_file")
    p = sub.add_parser("partition", help="closed-surface partition function")
    p.add_argument("algebra")
    p.add_argument("surface")
    p = sub.add_parser("states", help="NS and R state spaces")
    p.add_argument("algebra")
    p = sub.add_parser("abk", help="Gauss sum of a quadratic enhancement")
    p.add_argument("presentation")
    p = sub.add_parser("classify", help="invertible-theory class")
    p.add_argument("algebra")
    p = sub.add_parser("stack", help="stacking multiplicativity report")
    p.add_argument("algebra_a")
    p.add_argument("algebra_b")
    p.add_argument("surfaces", nargs="+")
    return parser


def _algebra(args, spec: str):
    alpha = None if args.alpha is None else CycloNum.parse(args.alpha)
    return parse_algebra(spec, default_alpha=alpha)


def _cmd_check(args, out) -> int:
    algebra = _algebra(args, args.algebra)
    report = full_report(algebra)
    if args.format == "kv":
        out.write(report.render_kv() + "\n")
        out.write(f"all = {'pass' if report.all_passed else 'fail'}\n")
    else:
        out.write(report.render_text() + "\n")
        out.write(
            f"{args.algebra}: {'all checks pass' if report.all_passed else 'CHECKS FAILED'}\n"
        )
    return 0 if report.all_passed else 1


def _cmd_eval(args, out) -> int:
    algebra = _algebra(args, args.algebra)
    with open(args.diagram_file, "r", encoding="utf-8") as fh:
        text = fh.read()
    diagram = parse(text)
    block = evaluate(diagram, algebra, max_width=args.max_width)
    if args.format == "kv":
        out.write(f"n = {block.n}\nm = {block.m}\n")
        for (ins, outs), v in block.entries():
            key_in = ",".join(map(str, ins))
            key_out = ",".join(map(str, outs))
            out.write(f"entry {key_in} -> {key_out} = {v.render()}\n")
    else:
        out.write(f"map: {block.n} strand(s) -> {block.m} strand(s)\n")
        if block.n == 0 and block.m == 0:
            z = block.scalar()
            out.write(f"scalar = {z!r}  ({_decimal(z)})\n")
        else:
            for (ins, outs), v in block.entries():
                labels_in = "(x)".join(algebra.labels[i] for i in ins) or "1"
                labels_out = "(x)".join(algebra.labels[i] for i in outs) or "1"
                out.write(f"  {labels_in} -> {labels_out}: {v!r}\n")
    return 0


def _cmd_partition(args, out) -> int:
    algebra = _algebra(args, args.algebra)
    surface = parse_surface(args.surface)
    z = partition_function(algebra, surface)
    label = _root_label(z)
    if args.format == "kv":
        out.write(f"algebra = {args.algebra}\n")
        out.write(f"surface = {surface.render()}\n")
        out.write(f"Z = {z.render()}\n")
        out.write(f"Z.decimal = {_decimal(z)}\n")
        out.write(f"Z.label = {label or '-'}\n")
    else:
        out.write(f"Z({surface.render()}) over {args.algebra} = {z!r}\n")
        out.write(f"  decimal: {_decimal(z)}\n")
        if label:
            out.write(f"  matches: {label}\n")
    return 0


def _cmd_states(args, out) -> int:
    algebra = _algebra(args, args.algebra)
    for sector in ("NS", "R"):
        space = state_space(algebra, sector)
        if args.format == "kv":
            key = sector.lower()
            out.write(f"{key}.even = {space.even_dim}\n")
            out.write(f"{key}.odd = {space.odd_dim}\n")
            for i, (vec, par) in enumerate(zip(space.basis, space.parities)):
                out.write(f"{key}.basis.{i} = {vec.render()}\n")
                out.write(f"{key}.basis.{i}.parity = {par}\n")
        else:
            out.write(f"{sector}: C^({space.even_dim}|{space.odd_dim})\n")
            for vec, par in zip(space.basis, space.parities):
                out.write(f"  [{'odd' if par else 'even'}] {vec.render()}\n")
    return 0


def _cmd_abk(args, out) -> int:
    presentation = parse_presentation(args.presentation)
    value = abk(presentation)
    label = _root_label(value)
    if args.format == "kv":
        out.write(f"presentation = {render_presentation(presentation)}\n")
        out.write(f"abk = {value.render()}\n")
        out.write(f"abk.decimal = {_decimal(value)}\n")
        out.write(f"abk.label = {label or '-'}\n")
    else:
        out.write(f"ABK({render_presentation(presentation)}) = {value!r}\n")
        out.write(f"  decimal: {_decimal(value)}\n")
        if label:
            out.write(f"  matches: {label}\n")
    return 0


def _cmd_classify(args, out) -> int:
    algebra = _algebra(args, args.algebra)
    result = classify_invertible(algebra)
    if args.format == "kv":
        out.write(f"invertible = {'true' if result.invertible else 'false'}\n")
        if result.invertible:
            out.write(f"k = {result.k}\n")
            out.write(f"euler_alpha = {result.euler_alpha.render()}\n")
    else:
        out.write(f"{args.algebra}: {result.render()}\n")
        if result.invertible:
            out.write(f"  euler alpha = {result.euler_alpha!r}\n")
    return 0


def _cmd_stack(args, out) -> int:
    algebra_a = _algebra(args, args.algebra_a)
    algebra_b = _algebra(args, args.algebra_b)
    surfaces = [parse_surface(s) for s in args.surfaces]
    report = stacking_check(algebra_a, algebra_b, surfaces)
    if args.format == "kv":
        for name, za, zb, zt, ok in report.surface_rows:
            out.write(f"{name}.A = {za.render()}\n")
            out.write(f"{name}.B = {zb.render()}\n")
            out.write(f"{name}.AxB = {zt.render()}\n")
            out.write(f"{name}.ok = {'true' if ok else 'false'}\n")
        for sector, got, want, ok in report.sector_rows:
            key = sector.lower()
            out.write(f"{key}.dims = {got[0]}|{got[1]}\n")
            out.write(f"{key}.expected = {want[0]}|{want[1]}\n")
            out.write(f"{key}.ok = {'true' if ok else 'false'}\n")
        out.write(f"all = {'pass' if report.all_passed else 'fail'}\n")
    else:
        out.write(report.render_text() + "\n")
        out.write(f"stacking: {'ok' if report.all_passed else 'MISMATCH'}\n")
    return 0 if report.all_passed else 1


_COMMANDS = {
    "check": _cmd_check,
    "eval": _cmd_eval,
    "partition": _cmd_partition,
    "states": _cmd_states,
    "abk": _cmd_abk,
    "classify": _cmd_classify,
    "stack": _cmd_stack,
}


def main(argv=None, out=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = out or sys.stdout
    try:
        return _COMMANDS[args.command](args, out)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DiagramError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
