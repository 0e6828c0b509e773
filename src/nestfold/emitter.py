"""Render derived groups as deterministic ASCII modules.

The output is plain Agda-style text: 80-column lines, two-space indents,
byte-identical across runs.  Layout is rule-driven, never heuristic:

* a signature stays on one line when it fits; otherwise each named binder
  starts its own line (continuations align under the first segment) and
  anonymous segments glue onto the current line,
* an oversized segment wraps at its own top-level arrows, two columns in,
* a clause whose body overflows puts the body on following lines, packing
  application atoms greedily and recursing into atoms that still overflow.

Every definition is scope-checked before rendering; an unbound name is an
internal error (EmitError), not something to quietly render anyway.  So is a
top-level name bound twice, which a source name that collides with a derived
one produces.
"""

from __future__ import annotations

import textwrap
from collections.abc import Set as AbstractSet
from dataclasses import dataclass

from .derivation import (
    App,
    Binder,
    Clause,
    DataDecl,
    DerivedDef,
    DerivedGroup,
    Lam,
    Pattern,
    PCon,
    PVar,
    Pi,
    Term,
    Var,
    recursion_witnesses,
)
from .diagnostics import EmitError

WIDTH = 80


@dataclass(frozen=True)
class EmitModule:
    name: str
    defs: tuple[DerivedDef, ...]
    notes: tuple[str, ...] = ()


def module_for_group(group: DerivedGroup) -> EmitModule:
    return EmitModule(group.name, group.defs, group.notes)


# ---------------------------------------------------------------------------
# One-line term and pattern rendering


def render_term(t: Term, atom: bool = False) -> str:
    match t:
        case Var(name):
            return name
        case App(fn, args):
            s = " ".join([render_term(fn, atom=True)] + [render_term(a, atom=True) for a in args])
            return f"({s})" if atom else s
        case Lam(params, body):
            s = "\\ " + " ".join(params) + " -> " + render_term(body)
            return f"({s})" if atom else s
        case Pi(segments):
            s = " -> ".join(_segment_str(seg) for seg in segments)
            return f"({s})" if atom else s
    raise AssertionError


def _segment_str(seg: Binder | Term) -> str:
    if isinstance(seg, Binder):
        if seg.type is None:
            return "forall " + " ".join(seg.names)
        o, c = ("{", "}") if seg.implicit else ("(", ")")
        return o + " ".join(seg.names) + " : " + render_term(seg.type) + c
    return render_term(seg, atom=isinstance(seg, (Pi, Lam)))


def render_pattern(p: Pattern) -> str:
    match p:
        case PVar(name, implicit):
            return "{" + name + "}" if implicit else name
        case PCon(head, ()):
            return head
        case PCon(head, args):
            return "(" + " ".join([head] + [render_pattern(a) for a in args]) + ")"
    raise AssertionError


# ---------------------------------------------------------------------------
# Layout: pieces with optional internal structure for overflow


@dataclass(frozen=True)
class _Piece:
    text: str
    named: bool = False
    open: str = ""
    inner: tuple["_Piece", ...] | None = None
    close: str = ""


def _with_close(pieces: tuple[_Piece, ...], extra: str) -> list[_Piece]:
    if not extra:
        return list(pieces)
    last = pieces[-1]
    patched = _Piece(last.text + extra, last.named, last.open, last.inner, last.close + extra)
    return list(pieces[:-1]) + [patched]


def _layout(pieces: list[_Piece], first: str, cont: int, break_named: bool = False) -> list[str]:
    lines: list[str] = []
    cur = first
    placed = 0
    for p in pieces:
        if placed and ((break_named and p.named) or len(cur) + 1 + len(p.text) > WIDTH):
            lines.append(cur)
            cur = " " * cont
            placed = 0
        if placed:
            cur += " " + p.text
            placed += 1
            continue
        if len(cur) + len(p.text) <= WIDTH or p.inner is None:
            cur += p.text
            placed = 1
            continue
        lines.extend(_layout(_with_close(p.inner, p.close), cur + p.open, cont + 2))
        cur = " " * cont
        placed = 0
    if placed:
        lines.append(cur)
    return lines


def _sig_pieces(t: Term) -> list[_Piece]:
    if not isinstance(t, Pi):
        return [_Piece(render_term(t))]
    out: list[_Piece] = []
    last = len(t.segments) - 1
    for k, seg in enumerate(t.segments):
        arrow = " ->" if k < last else ""
        if isinstance(seg, Binder):
            if seg.type is None:
                out.append(_Piece("forall " + " ".join(seg.names) + arrow, named=True))
                continue
            o, c = ("{", "}") if seg.implicit else ("(", ")")
            head = o + " ".join(seg.names) + " : "
            inner = _sig_pieces(seg.type)
            out.append(
                _Piece(head + render_term(seg.type) + c + arrow, True, head, tuple(inner), c + arrow)
            )
        elif isinstance(seg, Pi):
            out.append(
                _Piece(
                    _segment_str(seg) + arrow, False, "(", tuple(_sig_pieces(seg)), ")" + arrow
                )
            )
        else:
            out.append(_Piece(_segment_str(seg) + arrow))
    return out


def _atom_piece(a: Term) -> _Piece:
    text = render_term(a, atom=True)
    match a:
        case App():
            return _Piece(text, False, "(", tuple(_app_pieces(a)), ")")
        case Lam(params, body):
            head = "(\\ " + " ".join(params) + " -> "
            return _Piece(text, False, head, tuple(_app_pieces(body)), ")")
        case Pi():
            return _Piece(text, False, "(", tuple(_sig_pieces(a)), ")")
        case _:
            return _Piece(text)


def _app_pieces(t: Term) -> list[_Piece]:
    if isinstance(t, App):
        return [_atom_piece(t.fn)] + [_atom_piece(a) for a in t.args]
    return [_atom_piece(t)]


# ---------------------------------------------------------------------------
# Definitions to lines


def _sig_lines(name: str, sig: Term, base: int) -> list[str]:
    head = " " * base + name + " : "
    one = head + render_term(sig)
    if len(one) <= WIDTH:
        return [one]
    return _layout(_sig_pieces(sig), head, base + len(name) + 3, break_named=True)


def _clause_lines(name: str, cl: Clause, base: int) -> list[str]:
    pad = " " * base
    lhs_atoms = [name] + [render_pattern(p) for p in cl.patterns]
    lhs = " ".join(lhs_atoms)
    one = pad + lhs + " = " + render_term(cl.body)
    if len(one) <= WIDTH:
        lines = [one]
    else:
        if len(pad + lhs + " =") > WIDTH:
            pieces = [_Piece(a) for a in lhs_atoms[:-1]] + [_Piece(lhs_atoms[-1] + " =")]
            lines = _layout(pieces, pad, base + 2)
        else:
            lines = [pad + lhs + " ="]
        body_pieces = _sig_pieces(cl.body) if isinstance(cl.body, Pi) else _app_pieces(cl.body)
        lines += _layout(body_pieces, " " * (base + 2), base + 4)
    if cl.wheres:
        lines.append(pad + "  where")
        for w in cl.wheres:
            lines += _sig_lines(w.name, w.signature, base + 4)
            for wcl in w.clauses:
                lines += _clause_lines(w.name, wcl, base + 4)
    return lines


def _data_header(d: DerivedDef) -> str:
    assert d.data is not None
    if d.data.params:
        return f"data {d.name} (" + " ".join(d.data.params) + " : Set) : Set"
    return f"data {d.name} : Set"


def _data_lines(header: str, d: DerivedDef) -> list[str]:
    """A data block: the header line, then one signature per constructor."""
    lines = [header + " where"]
    for cn, ct in d.data.ctors:
        lines += _sig_lines(cn, ct, 2)
    return lines


def _certificate(d: DerivedDef) -> list[str]:
    ws = recursion_witnesses(d)
    if ws:
        msg = (
            "Terminates: each recursive call consumes a strict subterm of a "
            f"constructor pattern (witnesses: {', '.join(ws)})."
        )
    else:
        msg = "Terminates: no recursive calls."
    return ["-- " + line for line in textwrap.wrap(msg, WIDTH - 3)]


def _def_lines(d: DerivedDef) -> list[str]:
    lines = _certificate(d) + _sig_lines(d.name, d.signature, 0)
    for cl in d.clauses:
        lines += _clause_lines(d.name, cl, 0)
    return lines


# ---------------------------------------------------------------------------
# Scope validation


def _free_vars(t: Term, bound: frozenset[str], out: set[str]) -> None:
    match t:
        case Var(name):
            if name not in bound:
                out.add(name)
        case App(fn, args):
            _free_vars(fn, bound, out)
            for a in args:
                _free_vars(a, bound, out)
        case Lam(params, body):
            _free_vars(body, bound | frozenset(params), out)
        case Pi(segments):
            b = bound
            for seg in segments:
                if isinstance(seg, Binder):
                    if seg.type is not None:
                        _free_vars(seg.type, b, out)
                    b = b | frozenset(seg.names)
                else:
                    _free_vars(seg, b, out)


def _pattern_vars(patterns: tuple[Pattern, ...], ctors: set[str], where: str) -> set[str]:
    out: set[str] = set()

    def walk(p: Pattern) -> None:
        match p:
            case PVar(name, _):
                out.add(name)
            case PCon(head, args):
                if head not in ctors:
                    raise EmitError(f"unknown constructor {head!r} in a pattern of {where!r}")
                for a in args:
                    walk(a)

    for p in patterns:
        walk(p)
    return out


def _check_term(t: Term, bound: frozenset[str], known: AbstractSet[str], where: str) -> None:
    free: set[str] = set()
    _free_vars(t, bound, free)
    loose = sorted(free - known)
    if loose:
        raise EmitError(f"unscoped name {loose[0]!r} in definition {where!r}")


def _validate(module: EmitModule) -> None:
    """Every top-level data type, constructor and definition name is bound
    once, and every term mentions only names in scope."""
    roles: dict[str, str] = {"Set": "the universe"}

    def bind(name: str, role: str) -> None:
        if name in roles:
            raise EmitError(
                f"module {module.name} binds {name!r} twice: as {roles[name]} and as {role}"
            )
        roles[name] = role

    known = roles.keys()  # every name bound so far
    ctors: set[str] = set()
    for d in module.defs:
        if d.data is not None:
            bind(d.name, "a data type")
            for cn, _ in d.data.ctors:
                bind(cn, f"a constructor of {d.name}")
                ctors.add(cn)
    for d in module.defs:
        if d.data is not None:
            env = frozenset(d.data.params)
            for _, ct in d.data.ctors:
                _check_term(ct, env, known, d.name)
            continue
        bind(d.name, "a definition")
        _check_term(d.signature, frozenset(), known, d.name)
        for cl in d.clauses:
            pv = _pattern_vars(cl.patterns, ctors, d.name)
            wnames = {w.name for w in cl.wheres}
            scope = known | wnames
            _check_term(cl.body, frozenset(pv), scope, d.name)
            for w in cl.wheres:
                _check_term(w.signature, frozenset(pv), scope, w.name)
                for wcl in w.clauses:
                    wpv = pv | _pattern_vars(wcl.patterns, ctors, w.name)
                    _check_term(wcl.body, frozenset(wpv), scope, w.name)


# ---------------------------------------------------------------------------
# Module assembly


def _header(module: EmitModule) -> list[str]:
    lines = [
        f"-- {module.name}: mechanically derived recursion schemes.",
        "-- Generated output; change the source declarations, not this file.",
        "-- ASCII notation: -> arrow, \\ lambda, forall quantifier.",
        "--",
        "-- Contents:",
    ]
    width = max(len(d.name) for d in module.defs)
    for d in module.defs:
        lines.append("--   " + d.name.ljust(width) + "  " + d.role)
    if module.notes:
        lines.append("--")
        lines.extend(f"-- {note}" for note in module.notes)
    return lines


def emit_agda(module: EmitModule) -> str:
    """Render a module to its one canonical text."""
    if not module.defs:
        raise EmitError("refusing to emit an empty module")
    _validate(module)
    blocks: list[list[str]] = [_header(module), [f"module {module.name} where"]]
    k = 0
    defs = module.defs
    while k < len(defs):
        d = defs[k]
        if d.data is not None and d.data.forward:
            run = [d]
            while k + 1 < len(defs) and defs[k + 1].data is not None and defs[k + 1].data.forward:
                k += 1
                run.append(defs[k])
            blocks.append([_data_header(x) for x in run])
            blocks.extend(
                _data_lines(" ".join(["data", x.name, *x.data.params]), x) for x in run
            )
        elif d.data is not None:
            blocks.append(_data_lines(_data_header(d), d))
        else:
            blocks.append(_def_lines(d))
        k += 1
    text = "\n\n".join("\n".join(b) for b in blocks) + "\n"
    for line in text.splitlines():
        if not line.isascii():
            raise EmitError("emitted a non-ASCII line")
    return text
