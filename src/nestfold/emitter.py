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
Each definition is headed by the termination certificate that
terms.check_module gives it; a module that check refuses is never printed.
"""

from __future__ import annotations

import textwrap
from itertools import groupby

from .diagnostics import EmitError, Record
from .terms import (
    App,
    Binder,
    Clause,
    DerivedDef,
    DerivedGroup,
    Lam,
    Pattern,
    PCon,
    PVar,
    Pi,
    Term,
    Var,
    check_module,
)

WIDTH = 80


class EmitModule(Record):
    __slots__ = __match_args__ = ("name", "defs", "notes")
    _defaults = ((),)


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


def _piece(t: Term, atom: bool, tail: str = "") -> _Piece:
    """t as one piece followed by tail; an atom (an argument) is
    parenthesized unless it is a name."""
    if isinstance(t, Var):
        return _Piece(t.name + tail)
    o, c = ("(", ")" + tail) if atom else ("", tail)
    if isinstance(t, Lam):
        inner = (*map(_Piece, t.params), _Piece("->"), *_term_pieces(t.body))
        return _Piece(o + "\\ ", inner, c)
    return _Piece(o, _term_pieces(t), c)


def _segment_pieces(segments: tuple[Binder | Term, ...]) -> tuple[_Piece, ...]:
    out: list[_Piece] = []
    last = len(segments) - 1
    for k, seg in enumerate(segments):
        arrow = " ->" if k < last else ""
        if not isinstance(seg, Binder):
            out.append(_piece(seg, isinstance(seg, (Pi, Lam)), arrow))
        elif seg.type is None:
            out.append(_Piece("forall ", tuple(map(_Piece, seg.names)), arrow, named=True))
        else:
            o, c = ("{", "}") if seg.implicit else ("(", ")")
            inner = (*map(_Piece, seg.names), _Piece(":"), *_term_pieces(seg.type))
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


def _certificate(ws: tuple[str, ...]) -> list[str]:
    """The comment certifying a definition by its recursion witnesses."""
    if ws:
        msg = (
            "Terminates: each recursive call consumes a strict subterm of a "
            f"constructor pattern (witnesses: {', '.join(ws)})."
        )
    else:
        msg = "Terminates: no recursive calls."
    return ["-- " + line for line in textwrap.wrap(msg, WIDTH - 3)]


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
    witnesses = check_module(module.name, module.defs)
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
                blocks.append(_certificate(witnesses[d.name]) + _body_lines(d, 0))
    text = "\n\n".join("\n".join(b) for b in blocks) + "\n"
    for line in text.splitlines():
        if not line.isascii():
            raise EmitError("emitted a non-ASCII line")
    return text
