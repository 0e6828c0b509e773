"""Command-line front end: check, derive, eval, and test.

Exit codes: 0 success, 1 domain failure (diagnostics or a counterexample),
2 usage or I/O trouble.  All payload output is deterministic for fixed
inputs and flags.

Every command loads its declarations through analysis.analyze, the one
path from a program to its groups, and the diagnostics of a ParseError or
AnalysisError are printed as they are, one line each.  So parsing, analysis
and diagnostics load with this module.  Each command imports the rest of what it runs when
it runs: eval the runtime, derive the derivation and the emitter, test the
property suite, and the agda hook subprocess.  `check` loads nothing more.

eval reads its --type target once, with parse_type_context, and hands the
target's head declaration to parse_value_literal.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

from .analysis import GroupContext, analyze, context_to_index
from .diagnostics import DiagnosticError, NestfoldError
from .parser import (
    TApp,
    check_type_context,
    parse_program,
    parse_type_context,
    parse_value_literal,
    render_value,
)


def _read(path: Path) -> str:
    """An input file's text; bytes that are not UTF-8 are an I/O error."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise OSError(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})") from None


def _load(path: Path) -> list[GroupContext]:
    """Parse a declaration file and analyze it: every group's context, built
    before anything is printed to stdout."""
    return analyze(parse_program(_read(path), source=str(path)))


def _describe_group(ctx: GroupContext) -> str:
    names = ", ".join(ctx.group.decls)
    bits = [ctx.group.classification]
    if len(ctx.group.decls) > 1:
        bits.append("mutual")
    if ctx.group.nested:
        if ctx.nat_index_eligible:
            bits.append("index ≅ Nat")
        else:
            bits.append(f"index universe {ctx.spec.name}")
    return f"{names}: {', '.join(bits)}"


def cmd_check(args: argparse.Namespace) -> int:
    for ctx in _load(args.decls):
        print(_describe_group(ctx))
    return 0


def cmd_derive(args: argparse.Namespace) -> int:
    from .derivation import derive_group
    from .emitter import emit_agda, module_for_group

    ctxs = _load(args.decls)
    # A group's module, and so its file, is named ctx.name.
    owner: dict[str, GroupContext] = {}
    for ctx in ctxs:
        if ctx.name in owner:
            print(
                f"error: groups ({', '.join(owner[ctx.name].group.decls)}) and "
                f"({', '.join(ctx.group.decls)}) would both be written to {ctx.name}.agda",
                file=sys.stderr,
            )
            return 1
        owner[ctx.name] = ctx
    # Every group is derived and emitted before a file is written or a line
    # printed, so a failure leaves no partial output.
    groups = [derive_group(ctx, nat_index=args.nat_index) for ctx in ctxs]
    texts = [emit_agda(module_for_group(group)) for group in groups]
    args.out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for ctx, group, text in zip(ctxs, groups, texts):
        path = args.out / f"{group.name}.agda"
        path.write_text(text)
        written.append(path)
        source = set(ctx.decls)
        derived = [d.name for d in group.defs if d.name not in source]
        print(f"{group.name}: derived {', '.join(derived)}")
        for note in group.notes:
            print(f"{group.name}: {note}")
        print(f"wrote {path}")
    return _agda_hook(written)


def _agda_hook(paths: list[Path]) -> int:
    """Optionally type-check the emitted files with an external Agda."""
    agda = os.environ.get("NESTFOLD_AGDA")
    if not agda:
        print("note: external agda check skipped (NESTFOLD_AGDA is not set)")
        return 0
    import subprocess

    for path in paths:
        proc = subprocess.run([agda, str(path)], capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"error: agda rejected {path}", file=sys.stderr)
            return 1
        print(f"agda accepted {path}")
    return 0


def _default_target(program) -> TApp:
    """The first declaration with every parameter over naturals, checked as
    the typed target would be (a declaration named Nat is the universe)."""
    decl = program.decls[0]
    target = TApp(decl.name, (TApp("Nat"),) * len(decl.params), (1, 1))
    return check_type_context(target, program)


def cmd_eval(args: argparse.Namespace) -> int:
    from .runtime import catalogue, fold_tape, typecheck_value

    ctxs = _load(args.decls)
    program = ctxs[0].program
    if args.target is None:
        target = _default_target(program)
    else:
        target = parse_type_context(args.target, program)
    ctx = next(c for c in ctxs if target.head in c.group.decls)
    idx, universes = context_to_index(target, ctx)
    algs = catalogue(ctx)
    if args.algebra not in algs:
        options = ", ".join(algs)
        print(
            f"error: unknown algebra {args.algebra!r} (available: {options})",
            file=sys.stderr,
        )
        return 2
    source = str(args.value)
    v = parse_value_literal(_read(args.value), program, ctx.decls[target.head], source)
    diags, tape = typecheck_value(ctx, idx, universes, v)
    if diags:
        for d in diags:
            print(dataclasses.replace(d, file=source).render(), file=sys.stderr)
        return 1
    print(render_value(fold_tape(ctx, algs[args.algebra], tape)))
    return 0


def cmd_test(args: argparse.Namespace) -> int:
    if args.max_size < 1:
        print("error: --max-size must be at least 1", file=sys.stderr)
        return 2
    from .properties import run_suite

    failed = False
    for ctx in _load(args.decls):
        report = run_suite(ctx, args.max_size)
        print(f"{ctx.name}: property suite at max size {args.max_size}")
        for r in report.results:
            status = "ok" if r.ok else "FAIL"
            print(
                f"  {r.name}: {status}, {r.cases} cases "
                f"({r.distinct} distinct value/algebra pairs)"
            )
        for r in report.results:
            if not r.ok:
                failed = True
                for line in r.counterexample.lines():
                    print(line, file=sys.stderr)
                break
    return 1 if failed else 0


_COMMANDS = {
    "check": cmd_check,
    "derive": cmd_derive,
    "eval": cmd_eval,
    "test": cmd_test,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state
    on it, so each main() call gets a fresh namespace from the same parser."""
    p = argparse.ArgumentParser(
        prog="nestfold",
        description=(
            "Derive folds, induction principles, and maps for data-type "
            "declarations, including nested ones."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="parse and classify the declarations")
    c.add_argument("decls", type=Path, help="declaration file (.ndt)")

    d = sub.add_parser("derive", help="write <Group>.agda for every group")
    d.add_argument("decls", type=Path, help="declaration file (.ndt)")
    d.add_argument("--out", "-o", type=Path, default=Path("."), help="output directory")
    d.add_argument(
        "--nat-index",
        action="store_true",
        help="present the index universe as Nat (single self-nesting declaration)",
    )

    e = sub.add_parser("eval", help="run a catalogue algebra over a value literal")
    e.add_argument("decls", type=Path, help="declaration file (.ndt)")
    e.add_argument("value", type=Path, help="value-literal file (.ndv)")
    e.add_argument("--algebra", default="sum", help="catalogue algebra name")
    e.add_argument(
        "--type",
        dest="target",
        default=None,
        help='target type context, e.g. "Bush Nat" (default: first declaration over Nat)',
    )

    t = sub.add_parser("test", help="run the exhaustive property suite")
    t.add_argument("decls", type=Path, help="declaration file (.ndt)")
    t.add_argument("--max-size", type=int, default=6, help="value size bound (>= 1)")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DiagnosticError as e:
        print(e, file=sys.stderr)  # each diagnostic rendered, one a line
        return 1
    except NestfoldError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nests too deeply (recursion limit reached)", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
