"""Render derived groups as deterministic ASCII modules.

The output is plain Agda-style text: 80-column lines, two-space indents,
byte-identical across runs.  Layout is rule-driven, never heuristic:

* a signature stays on one line when it fits; otherwise each named binder
  starts its own line (continuations align under the first segment) and
  anonymous segments glue onto the current line,
* an oversized segment wraps at its own top-level arrows or application
  spine, two columns in, and a contents-header role wraps under its column,
* a clause whose body overflows puts the body on following lines, packing
  application atoms greedily and recursing into atoms that still overflow,
* a pattern, a binder's name list and a lambda's parameters break between
  their words like an application, when one alone overflows a fresh line.

A term or a pattern is printed once, as layout pieces; its one-line text is
read off the pieces, so the flat and the broken rendering cannot disagree.

Every definition is certified here, once, before any text is returned (a
recursive call recursion_witnesses cannot certify is a DerivationError), and
scope-checked before rendering: an unbound name is an internal error
(EmitError), not something to quietly render anyway.  So is a top-level name
bound twice, which a source name that collides with a derived one produces,
a name that a signature's top-level binders or a clause's patterns bind
twice, which Agda would reject, and a pattern variable named like a
constructor, which Agda would read as that constructor.
"""

from __future__ import annotations

import textwrap
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from itertools import groupby

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
# Terms as layout pieces: the one printer


class _Piece:
    """One unit of layout: `open`, the inner pieces separated by single
    spaces, then `close`.  That concatenation is the piece's one-line text.
    A piece that does not fit breaks between its inner pieces; a piece with
    none never breaks.  A named piece (a binder) starts its own line when a
    signature breaks."""

    __slots__ = ("open", "inner", "close", "named", "text")

    def __init__(
        self, open: str, inner: tuple["_Piece", ...] = (), close: str = "", named: bool = False
    ):
        self.open = open
        self.inner = inner
        self.close = close
        self.named = named
        self.text = open + " ".join([p.text for p in inner]) + close


def _term_pieces(t: Term) -> tuple[_Piece, ...]:
    """t's top-level pieces: an application's atoms, a function type's
    segments, or else t as one piece."""
    match t:
        case App(fn, args):
            return (_piece(fn, True), *[_piece(a, True) for a in args])
        case Pi(segments):
            return _segment_pieces(segments)
    return (_piece(t, False),)


def _names(names: tuple[str, ...]) -> tuple[_Piece, ...]:
    """A piece per name; no names is one empty piece, as in `( : A)`."""
    return tuple(map(_Piece, names or ("",)))


def _piece(t: Term, atom: bool, tail: str = "") -> _Piece:
    """t as one piece followed by tail; an atom (an argument) is
    parenthesized unless it is a name."""
    if isinstance(t, Var):
        return _Piece(t.name + tail)
    o, c = ("(", ")" + tail) if atom else ("", tail)
    if isinstance(t, Lam):
        return _Piece(o + "\\ ", (*_names(t.params), _Piece("->"), *_term_pieces(t.body)), c)
    return _Piece(o, _term_pieces(t), c)


def _segment_pieces(segments: tuple[Binder | Term, ...]) -> tuple[_Piece, ...]:
    out: list[_Piece] = []
    last = len(segments) - 1
    for k, seg in enumerate(segments):
        arrow = " ->" if k < last else ""
        if not isinstance(seg, Binder):
            out.append(_piece(seg, isinstance(seg, (Pi, Lam)), arrow))
        elif seg.type is None:
            out.append(_Piece("forall ", _names(seg.names), arrow, named=True))
        else:
            o, c = ("{", "}") if seg.implicit else ("(", ")")
            inner = (*_names(seg.names), _Piece(":"), *_term_pieces(seg.type))
            out.append(_Piece(o, inner, c + arrow, named=True))
    return tuple(out)


def render_term(t: Term, atom: bool = False) -> str:
    return _piece(t, atom).text


def _pattern_piece(p: Pattern) -> _Piece:
    match p:
        case PVar(name, implicit):
            return _Piece("{" + name + "}" if implicit else name)
        case PCon(head, ()):
            return _Piece(head)
        case PCon(head, args):
            return _Piece("(", (_Piece(head), *map(_pattern_piece, args)), ")")
    raise AssertionError


def render_pattern(p: Pattern) -> str:
    return _pattern_piece(p).text


# ---------------------------------------------------------------------------
# Layout


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
        if len(cur) + len(p.text) <= WIDTH or not p.inner:
            cur += p.text
            placed = 1
            continue
        *rest, last = p.inner  # the piece's close follows its last inner piece
        inner = [*rest, _Piece(last.open, last.inner, last.close + p.close, last.named)]
        lines.extend(_layout(inner, cur + p.open, cont + 2))
        cur = " " * cont
        placed = 0
    if placed:
        lines.append(cur)
    return lines


# ---------------------------------------------------------------------------
# Definitions to lines


def _sig_lines(name: str, sig: Term, base: int) -> list[str]:
    head = " " * base + name + " : "
    pieces = _term_pieces(sig)
    one = head + " ".join([p.text for p in pieces])
    if len(one) <= WIDTH:
        return [one]
    return _layout(list(pieces), head, base + len(name) + 3, break_named=True)


def _clause_lines(name: str, cl: Clause, base: int) -> list[str]:
    pad = " " * base
    lhs = _Piece("", (_Piece(name), *map(_pattern_piece, cl.patterns)), " =")
    body = _term_pieces(cl.body)
    one = pad + lhs.text + " " + " ".join([p.text for p in body])
    if len(one) <= WIDTH:
        lines = [one]
    else:
        lines = _layout([lhs], pad, base) + _layout(list(body), pad + "  ", base + 4)
    if cl.wheres:
        lines.append(pad + "  where")
        for w in cl.wheres:
            lines += _body_lines(w, base + 4)
    return lines


def _body_lines(d: DerivedDef, base: int) -> list[str]:
    """A definition's signature and clauses, indented by base."""
    lines = _sig_lines(d.name, d.signature, base)
    for cl in d.clauses:
        lines += _clause_lines(d.name, cl, base)
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


def _pattern_vars(
    patterns: tuple[Pattern, ...], ctors: set[str], where: str, out: list[str] | None = None
) -> list[str]:
    """The variables the patterns bind, left to right, appended to out."""
    if out is None:
        out = []
    for p in patterns:
        match p:
            case PVar(name, _):
                if name in ctors:  # Agda would read it as the constructor
                    raise EmitError(
                        f"definition {where!r} binds constructor name {name!r} "
                        "as a pattern variable"
                    )
                out.append(name)
            case PCon(head, args):
                if head not in ctors:
                    raise EmitError(f"unknown constructor {head!r} in a pattern of {where!r}")
                _pattern_vars(args, ctors, where, out)
    return out


def _bound_once(names: list[str], where: str, place: str) -> frozenset[str]:
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise EmitError(f"definition {where!r} binds {name!r} twice in {place}")
        seen.add(name)
    return frozenset(seen)


def _check_term(t: Term, bound: frozenset[str], known: AbstractSet[str], where: str) -> None:
    free: set[str] = set()
    _free_vars(t, bound, free)
    loose = sorted(free - known)
    if loose:
        raise EmitError(f"unscoped name {loose[0]!r} in definition {where!r}")


def _check_def(
    d: DerivedDef, bound: frozenset[str], known: AbstractSet[str], ctors: set[str]
) -> None:
    """d and its where definitions mention only names in scope, and bind
    each top-level signature binder and each clause's pattern variable once."""
    segs = d.signature.segments if isinstance(d.signature, Pi) else ()
    binders = [n for seg in segs if isinstance(seg, Binder) for n in seg.names]
    _bound_once(binders, d.name, "its signature")
    _check_term(d.signature, bound, known, d.name)
    for cl in d.clauses:
        pv = bound | _bound_once(_pattern_vars(cl.patterns, ctors, d.name), d.name, "one clause")
        scope = known | {w.name for w in cl.wheres}
        _check_term(cl.body, pv, scope, d.name)
        for w in cl.wheres:
            _check_def(w, pv, scope, ctors)


def _validate(module: EmitModule) -> None:
    """Every top-level data type, constructor and definition name is bound
    once, and every definition passes _check_def."""
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
        _check_def(d, frozenset(), known, ctors)


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
        lead = "--   " + d.name.ljust(width) + "  "  # a long role wraps under its column
        role = textwrap.wrap(
            d.role, max(WIDTH - len(lead), 20), break_long_words=False, break_on_hyphens=False
        )
        lines += [lead + role[0], *("--" + " " * (len(lead) - 2) + r for r in role[1:])]
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
    for forward, run in groupby(module.defs, lambda d: d.data is not None and d.data.forward):
        if forward:
            run = list(run)
            blocks.append([_data_header(d) for d in run])
            blocks.extend(_data_lines(" ".join(["data", d.name, *d.data.params]), d) for d in run)
            continue
        for d in run:
            if d.data is not None:
                blocks.append(_data_lines(_data_header(d), d))
            else:
                blocks.append(_certificate(d) + _body_lines(d, 0))
    text = "\n\n".join("\n".join(b) for b in blocks) + "\n"
    for line in text.splitlines():
        if not line.isascii():
            raise EmitError("emitted a non-ASCII line")
    return text
