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
A piece is a plain tuple (text, open, inner, close, named): `text` is
`open`, the inner pieces separated by single spaces, then `close`.  A piece
that does not fit breaks between its inner pieces, and one with none never
breaks; a named piece (a binder) starts its own line when a signature
breaks.  The walks that build pieces run once per node of every derived
term, so a piece has no constructor to call and they dispatch on a node's
exact class, not on class patterns.
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


_Piece = tuple  # (text, open, inner, close, named), as the module docstring says
_ARROW = ("->", "->", (), "", False)
_COLON = (":", ":", (), "", False)


def _words(names: tuple[str, ...]) -> list[_Piece]:
    return [(n, n, (), "", False) for n in names]


def _term_pieces(t: Term) -> tuple[_Piece, ...]:
    """t's top-level pieces: an application's atoms, a function type's
    segments, or else t as one piece."""
    cls = t.__class__
    if cls is App:
        return (_piece(t.fn, True), *[_piece(a, True) for a in t.args])
    if cls is Pi:
        return _segment_pieces(t.segments)
    return (_piece(t, False),)


def _piece(t: Term, atom: bool, tail: str = "") -> _Piece:
    """t as one piece followed by tail; an atom (an argument) is
    parenthesized unless it is a name."""
    cls = t.__class__
    if cls is Var:
        text = t.name + tail
        return (text, text, (), "", False)
    o, c = ("(", ")" + tail) if atom else ("", tail)
    if cls is Lam:
        o += "\\ "
        inner = (*_words(t.params), _ARROW, *_term_pieces(t.body))
    else:
        inner = _term_pieces(t)
    return (o + " ".join([p[0] for p in inner]) + c, o, inner, c, False)


def _segment_pieces(segments: tuple[Binder | Term, ...]) -> tuple[_Piece, ...]:
    out: list[_Piece] = []
    last = len(segments) - 1
    for k, seg in enumerate(segments):
        arrow = " ->" if k < last else ""
        cls = seg.__class__
        if cls is not Binder:
            out.append(_piece(seg, cls is Pi or cls is Lam, arrow))
            continue
        if seg.type is None:
            o, c, inner = "forall ", arrow, _words(seg.names)
        else:
            o, c = ("{", "}" + arrow) if seg.implicit else ("(", ")" + arrow)
            inner = (*_words(seg.names), _COLON, *_term_pieces(seg.type))
        out.append((o + " ".join([p[0] for p in inner]) + c, o, tuple(inner), c, True))
    return tuple(out)


def render_term(t: Term, atom: bool = False) -> str:
    return _piece(t, atom)[0]


def _pattern_piece(p: Pattern) -> _Piece:
    if p.__class__ is PVar:
        text = "{" + p.name + "}" if p.implicit else p.name
        return (text, text, (), "", False)
    if not p.args:
        return (p.head, p.head, (), "", False)
    inner = ((p.head, p.head, (), "", False), *map(_pattern_piece, p.args))
    return ("(" + " ".join([q[0] for q in inner]) + ")", "(", inner, ")", False)


def render_pattern(p: Pattern) -> str:
    return _pattern_piece(p)[0]


# ---------------------------------------------------------------------------
# Layout


def _layout(pieces: list[_Piece], first: str, cont: int, break_named: bool = False) -> list[str]:
    lines: list[str] = []
    cur = first
    placed = 0
    for text, opening, inner, close, named in pieces:
        if placed and ((break_named and named) or len(cur) + 1 + len(text) > WIDTH):
            lines.append(cur)
            cur = " " * cont
            placed = 0
        if placed:
            cur += " " + text
            placed += 1
            continue
        if len(cur) + len(text) <= WIDTH or not inner:
            cur += text
            placed = 1
            continue
        *rest, (ltext, lopen, linner, lclose, lnamed) = inner
        # the piece's close follows its last inner piece
        rest.append((ltext + close, lopen, linner, lclose + close, lnamed))
        lines.extend(_layout(rest, cur + opening, cont + 2))
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
    one = head + " ".join([p[0] for p in pieces])
    if len(one) <= WIDTH:
        return [one]
    return _layout(list(pieces), head, base + len(name) + 3, break_named=True)


def _clause_lines(name: str, cl: Clause, base: int) -> list[str]:
    pad = " " * base
    inner = ((name, name, (), "", False), *map(_pattern_piece, cl.patterns))
    lhs = (" ".join([p[0] for p in inner]) + " =", "", inner, " =", False)
    body = _term_pieces(cl.body)
    one = pad + lhs[0] + " " + " ".join([p[0] for p in body])
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
    if not text.isascii():
        raise EmitError("emitted a non-ASCII line")
    return text
