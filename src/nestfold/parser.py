"""Parser for data-type declarations (.ndt) and eval targets.

The surface syntax is a small Agda-like language:

    data Bush (a : Set) : Set where
      leaf : Bush a
      cons : a -> Bush (Bush a) -> Bush a

Declarations may reference each other in any order.  Parsing checks syntax
only; names, arities and the result-shape rule are checked by
``analysis.well_formed``.

An eval target (``Bush (Bush Nat)``) is a type expression parsed by the
same parser, whose base universes ``Nat`` and ``Atom`` become type variables:
``Bush (Bush a)`` with ``a := Nat``.  Names are ASCII, as the emitted module is.

Value literals (.ndv) are read, rendered and measured by ``values``, which
parsing and analyzing declarations do not load.  It shares this module's
lexer, NAT_MAX, KEYWORDS and spine_shape.  parse_value_literal,
render_value and value_size also read as attributes of this module, loading
``values`` on first use: the benchmark's tracer names them parser layers.
"""

from __future__ import annotations

from .diagnostics import ParseError, Record, _set

NAT_MAX = 2**64 - 1

KEYWORDS = frozenset({"data", "where"})

#: The Agda keywords the lexer can read as a name (the user manual, Lexical
#: structure, "Keywords and special symbols"; eta-equality and
#: no-eta-equality cannot be lexed).  Set is left out: analysis.well_formed
#: refuses a name Set as a second binding of the universe.
AGDA_KEYWORDS = frozenset(
    "abstract coinductive constructor data do field forall hiding import in inductive infix "
    "infixl infixr instance interleaved let macro module mutual opaque open overlap pattern "
    "postulate primitive private public quote quoteTerm record renaming rewrite syntax tactic "
    "to unfolding unquote unquoteDecl unquoteDef using variable where with".split()
)


# ---------------------------------------------------------------------------
# AST


class TVar(Record):
    """A type-parameter occurrence."""

    __slots__ = __match_args__ = ("name", "pos")

    def __init__(self, name: str, pos: tuple[int, int] | None = None):
        _set(self, "name", name)
        _set(self, "pos", pos)


class TApp(Record):
    """A declared type constructor applied to zero or more arguments."""

    __slots__ = __match_args__ = ("head", "args", "pos")

    def __init__(
        self, head: str, args: tuple[TypeExpr, ...] = (), pos: tuple[int, int] | None = None
    ):
        _set(self, "head", head)
        _set(self, "args", args)
        _set(self, "pos", pos)


TypeExpr = TVar | TApp


class Constructor(Record):
    __slots__ = __match_args__ = ("name", "args", "result", "pos")

    def __init__(
        self,
        name: str,
        args: tuple[TypeExpr, ...],
        result: TypeExpr,
        pos: tuple[int, int] | None = None,
    ):
        _set(self, "name", name)
        _set(self, "args", args)
        _set(self, "result", result)
        _set(self, "pos", pos)


class TypeDecl(Record):
    """A declaration.  param_pos holds each parameter's position, or is
    empty; like pos, it is neither compared nor shown."""

    __slots__ = ("name", "params", "ctors", "pos", "param_pos")
    __match_args__ = ("name", "params", "ctors", "pos")

    def __init__(
        self,
        name: str,
        params: tuple[str, ...],
        ctors: tuple[Constructor, ...],
        pos: tuple[int, int] | None = None,
        param_pos: tuple[tuple[int, int], ...] = (),
    ):
        _set(self, "name", name)
        _set(self, "params", params)
        _set(self, "ctors", ctors)
        _set(self, "pos", pos)
        _set(self, "param_pos", param_pos)

    def ctor(self, name: str) -> Constructor | None:
        for c in self.ctors:
            if c.name == name:
                return c
        return None


def spine_shape(decl: TypeDecl) -> tuple[str, str] | None:
    """(nullary ctor, binary ctor) when decl has exactly those two
    constructors, as lists and bushes do; None otherwise."""
    nils = [c.name for c in decl.ctors if not c.args]
    twos = [c.name for c in decl.ctors if len(c.args) == 2]
    if len(decl.ctors) == 2 and len(nils) == len(twos) == 1:
        return nils[0], twos[0]
    return None


class Program(Record):
    __slots__ = __match_args__ = ("decls", "source")

    def __init__(self, decls: tuple[TypeDecl, ...], source: str = "<input>"):
        _set(self, "decls", decls)
        _set(self, "source", source)

    def decl(self, name: str) -> TypeDecl | None:
        for d in self.decls:
            if d.name == name:
                return d
        return None


# ---------------------------------------------------------------------------
# Lexer


class Token:
    """One lexeme at its 1-based line and column: a plain slotted class, not a
    Record, as nothing compares or hashes a token."""

    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # one of: ident, uident, nat, atom, punct, newline, eof
        self.text = text
        self.line = line
        self.col = col


_PUNCT = {"(": "(", ")": ")", "[": "[", "]": "]", ",": ",", ":": ":"}

#: A natural literal is a run of ASCII digits.  Past its leading zeros, a
#: run longer than NAT_MAX's digits is out of range without int() reading it
#: (int() refuses more than 4300 digits).
_DIGITS = frozenset("0123456789")
_NAT_MAX_LEN = len(str(NAT_MAX))

#: A name is ASCII, as the emitted module is: a letter or "_", then letters,
#: digits, "_" and "'".  An atom is a quote and the name's characters.
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NAME_CHARS = _NAME_START | _DIGITS | {"'"}

#: An out-of-range literal longer than this is named by its first digits and
#: its length, so that its error stays one short line.
_SHOWN_DIGITS = 24


def _end(s: str, j: int, chars: frozenset[str] = _NAME_CHARS) -> int:
    """Where the run of chars that starts at s[j] ends; s ends in a "\\0"."""
    while s[j] in chars:
        j += 1
    return j


def _lex(text: str, file: str, keep_newlines: bool) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    text, i, n = text + "\0", 0, len(text)  # _end stops at the "\0"

    def err(msg: str, l: int, c: int) -> ParseError:
        return ParseError(msg, l, c, file)

    while i < n:
        ch = text[i]
        if ch == "\n":
            if keep_newlines and toks and toks[-1].kind != "newline":
                toks.append(Token("newline", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "-":
            if text.startswith("--", i):
                while i < n and text[i] != "\n":
                    i += 1
                    col += 1
                continue
            if text.startswith("->", i):
                toks.append(Token("punct", "->", line, col))
                i += 2
                col += 2
                continue
            raise err("stray '-' (expected '->' or a '--' comment)", line, col)
        if ch in _PUNCT:
            toks.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch == "'":
            j = _end(text, i + 1)
            if j == i + 1:
                raise err("expected a name after the atom quote '", line, col)
            toks.append(Token("atom", text[i + 1 : j], line, col))
            col += j - i
            i = j
            continue
        if ch in _DIGITS:
            j = _end(text, i, _DIGITS)
            lit = text[i:j]
            digits = lit.lstrip("0") or "0"
            if len(digits) > _NAT_MAX_LEN or int(digits) > NAT_MAX:
                if len(lit) > _SHOWN_DIGITS:
                    lit = f"{lit[:_SHOWN_DIGITS]}... ({len(lit)} digits)"
                raise err(f"natural literal {lit} exceeds the 64-bit range", line, col)
            toks.append(Token("nat", digits, line, col))
            col += j - i
            i = j
            continue
        if ch in _NAME_START:
            j = _end(text, i)
            word = text[i:j]
            kind = "uident" if word[0].isupper() else "ident"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise err(f"unexpected character {ch!r}", line, col)

    if keep_newlines and toks and toks[-1].kind != "newline":
        toks.append(Token("newline", "\n", line, col))
    toks.append(Token("eof", "", line, col))
    return toks


class _Cursor:
    """A token stream with one-token lookahead."""

    def __init__(self, toks: list[Token], file: str):
        self.toks = toks
        self.i = 0
        self.file = file

    @property
    def tok(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        t = self.tok
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.tok
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None, what: str = "") -> Token:
        if not self.at(kind, text):
            want = what or (text if text is not None else kind)
            raise self.error(f"expected {want}, found {self._describe(self.tok)}")
        return self.advance()

    def error(self, msg: str, tok: Token | None = None) -> ParseError:
        t = tok or self.tok
        return ParseError(msg, t.line, t.col, self.file)

    @staticmethod
    def _describe(t: Token) -> str:
        if t.kind == "eof":
            return "end of input"
        if t.kind == "newline":
            return "end of line"
        return repr(t.text)

    def skip_newlines(self) -> None:
        while self.at("newline"):
            self.advance()


# ---------------------------------------------------------------------------
# Declaration parsing


def parse_program(text: str, source: str = "<input>") -> Program:
    """Parse a full .ndt file; names and arities are left unchecked."""
    cur = _Cursor(_lex(text, source, keep_newlines=True), source)
    decls: list[TypeDecl] = []
    cur.skip_newlines()
    while not cur.at("eof"):
        decls.append(_parse_decl(cur))
        cur.skip_newlines()
    if not decls:
        raise cur.error("expected at least one data declaration")
    return Program(tuple(decls), source)


def _parse_decl(cur: _Cursor) -> TypeDecl:
    start = cur.expect("ident", "data", what="'data'")
    name_tok = cur.expect("uident", what="a capitalized type name")
    params: list[Token] = []
    while True:
        if cur.at("ident"):
            if cur.tok.text in KEYWORDS:
                break
            params.append(cur.advance())
        elif cur.at("punct", "("):
            # A parenthesized parameter group with a kind annotation: (a b : Set)
            cur.advance()
            group = []
            while cur.at("ident") and cur.tok.text not in KEYWORDS:
                group.append(cur.advance())
            if not group:
                raise cur.error("expected parameter names inside parentheses")
            cur.expect("punct", ":")
            cur.expect("uident", "Set", what="'Set'")
            cur.expect("punct", ")")
            params.extend(group)
        else:
            break
    if cur.at("punct", ":"):
        cur.advance()
        cur.expect("uident", "Set", what="'Set'")
    cur.expect("ident", "where", what="'where'")
    cur.expect("newline", what="a line break after 'where'")
    cur.skip_newlines()

    ctors: list[Constructor] = []
    # constructor lines run until the next 'data' keyword or end of file
    while (cur.at("ident") or cur.at("uident")) and cur.tok.text != "data":
        ctors.append(_parse_ctor(cur))
        cur.skip_newlines()
    return TypeDecl(
        name_tok.text,
        tuple(t.text for t in params),
        tuple(ctors),
        (start.line, start.col),
        tuple((t.line, t.col) for t in params),
    )


def _parse_ctor(cur: _Cursor) -> Constructor:
    if not (cur.at("ident") or cur.at("uident")):
        raise cur.error(f"expected a constructor name, found {cur._describe(cur.tok)}")
    name_tok = cur.advance()
    if name_tok.text in KEYWORDS:
        raise cur.error(f"{name_tok.text!r} cannot name a constructor", name_tok)
    cur.expect("punct", ":")
    segments = [_parse_atom_seq(cur)]
    while cur.at("punct", "->"):
        cur.advance()
        segments.append(_parse_atom_seq(cur))
    cur.expect("newline", what="a line break after the constructor type")
    return Constructor(
        name_tok.text,
        tuple(segments[:-1]),
        segments[-1],
        (name_tok.line, name_tok.col),
    )


def _parse_atom_seq(cur: _Cursor) -> TypeExpr:
    head = _parse_type_atom(cur)
    args: list[TypeExpr] = []
    while (
        cur.at("uident")
        or (cur.at("ident") and cur.tok.text not in KEYWORDS)
        or cur.at("punct", "(")
    ):
        args.append(_parse_type_atom(cur))
    if not args:
        return head
    match head:
        case TApp(h, existing, _):
            return TApp(h, existing + tuple(args), head.pos)
        case TVar():
            raise ParseError(
                "a type parameter cannot be applied to arguments",
                head.pos[0],
                head.pos[1],
                cur.file,
            )
    raise AssertionError


def _parse_type_atom(cur: _Cursor) -> TypeExpr:
    t = cur.tok
    if t.kind == "uident":
        cur.advance()
        return TApp(t.text, (), (t.line, t.col))
    if t.kind == "ident" and t.text not in KEYWORDS:
        cur.advance()
        return TVar(t.text, (t.line, t.col))
    if cur.at("punct", "("):
        open_tok = cur.advance()
        inner = _parse_atom_seq(cur)
        if cur.at("punct", "->"):
            raise ParseError(
                "function types are not permitted inside a type",
                open_tok.line,
                open_tok.col,
                cur.file,
            )
        cur.expect("punct", ")")
        return inner
    raise cur.error(f"expected a type, found {_Cursor._describe(t)}")


# ---------------------------------------------------------------------------
# Targets ("Bush Nat", "Dylan (Bob Nat) Atom", ...)

#: The base universes a target may name, and the runtime's word for each.
BASE_TYPES = {"Nat": "nat", "Atom": "atom"}


def parse_type_context(text: str, program: Program) -> TApp:
    """Parse an eval target: a declaration applied to type expressions over
    the declarations and BASE_TYPES, each base universe a TVar of its name."""
    cur = _Cursor(_lex(text, "<target>", keep_newlines=False), "<target>")
    t = _parse_atom_seq(cur)
    cur.expect("eof", what="end of target type")
    return check_type_context(t, program)


def check_type_context(t: TypeExpr, program: Program) -> TApp:
    """t as an eval target.  Every rule a target obeys is checked here, as a
    ParseError at <target>."""
    arity = {d.name: len(d.params) for d in program.decls} | dict.fromkeys(BASE_TYPES, 0)
    t = _check_target(t, arity)
    if not isinstance(t, TApp):
        raise ParseError("target type context must name a declaration", 1, 1, "<target>")
    return t


def _check_target(t: TypeExpr, arity: dict[str, int]) -> TypeExpr:
    """t with its base universes made variables, or its first error."""
    if isinstance(t, TVar):
        msg = f"expected a type context, found {t.name!r}"
    elif t.head not in arity:
        msg = f"unknown type {t.head} in target context"
    elif len(t.args) != arity[t.head]:
        msg = f"{t.head} expects {arity[t.head]} argument(s)"
    elif t.head in BASE_TYPES:
        return TVar(t.head, t.pos)
    else:
        return TApp(t.head, tuple(_check_target(a, arity) for a in t.args), t.pos)
    raise ParseError(msg, *t.pos, "<target>")


# ---------------------------------------------------------------------------
# Pretty-printers (inverse of the parsers, used for round-trips and reports)


def render_type_expr(t: TypeExpr, atom: bool = False) -> str:
    match t:
        case TVar(name, _):
            return name
        case TApp(head, (), _):
            return head
        case TApp(head, args, _):
            s = " ".join([head] + [render_type_expr(a, atom=True) for a in args])
            return f"({s})" if atom else s
    raise AssertionError


def render_program(program: Program) -> str:
    chunks = []
    for d in program.decls:
        header = " ".join(["data", d.name, *d.params]) + " where"
        lines = [header]
        for c in d.ctors:
            parts = [render_type_expr(t) for t in c.args + (c.result,)]
            lines.append(f"  {c.name} : " + " -> ".join(parts))
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def __getattr__(name: str):
    """parse_value_literal, render_value or value_size, from values (PEP 562)."""
    if name in ("parse_value_literal", "render_value", "value_size"):
        from . import values

        return getattr(values, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
