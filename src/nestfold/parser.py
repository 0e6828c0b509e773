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

One loop, _read, reads declarations and targets alike: it steps over the
characters, building no token and keeping its open parentheses on an
explicit stack, so that it does not recurse however deep parentheses nest.
Application nests at most MAX_APPLICATIONS deep: _read works out each
application's depth as it closes and refuses a deeper one, so every later
walk over a type is bounded.  _refused words a refusal in one more pass
over the characters, with the same character classes: the text's first
lexical error if it has one anywhere, else the refusal at the token found
where the loop stopped.  So the first error reported is the one a lexer
followed by a parser would report.

Value literals (.ndv) are read, rendered and measured by ``values``, which
parsing and analyzing declarations do not load.  It shares this module's
character classes and refusals, NAT_MAX, KEYWORDS and spine_shape.
parse_value_literal, render_value and value_size also read as attributes of
this module, loading ``values`` on first use: the benchmark's tracer names
them parser layers.
"""

from __future__ import annotations

from .diagnostics import ParseError, Record

NAT_MAX = 2**64 - 1

#: The deepest a type may nest by application (a parenthesis alone does not
#: count): T (T a) is 2 deep.  _read refuses a deeper one, so that every
#: later walk over a type is bounded.
MAX_APPLICATIONS = 128

KEYWORDS = frozenset({"data", "where"})

#: The Agda keywords the readers can read as a name (the user manual, Lexical
#: structure, "Keywords and special symbols"; eta-equality and
#: no-eta-equality cannot be read).  Set is left out: analysis.well_formed
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
    _defaults = (None,)


class TApp(Record):
    """A declared type constructor applied to zero or more arguments."""

    __slots__ = __match_args__ = ("head", "args", "pos")
    _defaults = ((), None)


TypeExpr = TVar | TApp


class Constructor(Record):
    __slots__ = __match_args__ = ("name", "args", "result", "pos")
    _defaults = (None,)


class TypeDecl(Record):
    """A declaration.  param_pos holds each parameter's position, or is
    empty; like pos, it is neither compared nor shown."""

    __slots__ = ("name", "params", "ctors", "pos", "param_pos")
    __match_args__ = ("name", "params", "ctors", "pos")
    _defaults = (None, ())

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
    _defaults = ("<input>",)

    def decl(self, name: str) -> TypeDecl | None:
        for d in self.decls:
            if d.name == name:
                return d
        return None


# ---------------------------------------------------------------------------
# Characters, and the wording of a refusal


_PUNCT = frozenset("()[],:")

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


def _refused(
    text: str, source: str, msg: str, at: tuple | None, found: bool = True, lines: bool = False
) -> ParseError:
    """The error of a text refused at line:col `at`: the first lexical error
    in text, else msg at the token that starts at `at` (end of input if none
    does), saying what that token is if found.  With lines, text is
    declarations, whose line breaks are tokens: a refusal at the end of a
    text that ends without one is at the end of its last line.  One pass
    over the characters, building no token."""
    s, n = text + "\n\0", len(text)  # a comment ends at the "\n"; _end stops at the "\0"
    i, line, bol, word = 0, 1, 0, None  # word: the text of the token at `at`, once passed
    while i < n:
        c, j = s[i], i + 1
        here = (line, j - bol)
        if c == "\n":
            line, bol = line + 1, j
        elif c == "-":
            if s[j] == "-":
                j = s.find("\n", i)
            elif s[j] == ">":
                j += 1
            else:
                raise ParseError("stray '-' (expected '->' or a '--' comment)", *here, source)
        elif c == "'":
            j = _end(s, j)
            if j == i + 1:
                raise ParseError("expected a name after the atom quote '", *here, source)
            i += 1  # the atom's text is its name
        elif c in _DIGITS:
            j = _end(s, j, _DIGITS)
            lit = s[i:j]
            digits = lit.lstrip("0") or "0"
            if len(digits) > _NAT_MAX_LEN or int(digits) > NAT_MAX:
                if len(lit) > _SHOWN_DIGITS:
                    lit = f"{lit[:_SHOWN_DIGITS]}... ({len(lit)} digits)"
                raise ParseError(f"natural literal {lit} exceeds the 64-bit range", *here, source)
            i = j - len(digits)  # the literal's text is its digits past the leading zeros
        elif c in _NAME_START:
            j = _end(s, j)
        elif c not in _PUNCT and c not in " \t\r":
            raise ParseError(f"unexpected character {c!r}", *here, source)
        if here == at:
            word = s[i:j]
        i = j
    if word is None:
        end = (line, n - bol + 1)
        word = "\n" if lines and at == end else ""
        at = end
    if found:
        what = {"": "end of input", "\n": "end of line"}.get(word, repr(word))
        msg = f"{msg}, found {what}"
    return ParseError(msg, *at, source)


# ---------------------------------------------------------------------------
# Reading declarations and targets

#: What _read skips: blanks and comments (a "-" that a "-" follows), and in
#: a target line breaks too.
_BLANK = frozenset(" \t\r-")
_BLANK_LINES = _BLANK | {"\n"}
_UPPER = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ")

#: _read's states.  _TYPE wants a type, and _MORE has read one and takes an
#: argument or what ends the sequence; _LINE is between lines, wanting a
#: constructor or 'data'; _PARAMS and _GROUP read parameters, outside and
#: inside parentheses, after _NAME.  Each later state wants the one token
#: _STEP names, then goes on to the state it names.  _WANT words what each
#: state wants, as its refusal says (_MORE words its own).
_TYPE, _MORE, _LINE, _PARAMS, _GROUP, _NAME, _GSET, _GEND, _SET, _WHERE, _BREAK, _COLON = range(12)
_STEP = {
    _GSET: ("Set", _GEND),
    _GEND: (")", _PARAMS),
    _SET: ("Set", _WHERE),
    _WHERE: ("where", _BREAK),
    _BREAK: ("\n", _LINE),
    _COLON: (":", _TYPE),
}
_WANT = (
    "a type", "", "'data'", "'where'", ":", "a capitalized type name", "'Set'", ")", "'Set'",
    "'where'", "a line break after 'where'", ":",
)


def _read(text: str, source: str, target: bool):
    """The Program that text declares, or with target the one type it is."""
    # a comment ends at the "\n", which is also the last line's break if text has none
    s, n = text + "\n\0", len(text)
    i, line, bol = 0, 1, 0  # offset, its line, and that line's first offset
    skip, state, lines = _BLANK_LINES if target else _BLANK, _TYPE if target else _LINE, not target
    decls: list[TypeDecl] = []
    name = None  # the declaration being read
    # The sequence, and one per "(": [its pos, its depth so far, head, arg, ...].  A
    # sequence is as deep as its deepest parenthesized head, or as one more than
    # its deepest argument: 1 if that is a name.
    frames: list[list] = [[None, 0]]
    while True:
        c = s[i]
        while c in skip and (c != "-" or s[i + 1] == "-"):
            if c == "\n":
                line, bol = line + 1, i + 1
            i = s.find("\n", i) if c == "-" else i + 1
            c = s[i]
        pos = (line, i - bol + 1)
        if c in _NAME_START:  # kind is "A" capitalized, "k" a keyword or "a"
            j = i + 1
            while s[j] in _NAME_CHARS:
                j += 1
            word = s[i:j]
            kind = "A" if c in _UPPER else "k" if word in KEYWORDS else "a"
        else:  # kind is the text: punctuation, a line break, what no state takes, "" at the end
            j = i + 2 if c == "-" and s[i + 1] == ">" else i + 1
            kind = word = s[i:j] if i <= n else ""
            if c == "\n":
                line, bol = line + 1, j
        if state <= _MORE:
            if kind == "A" or kind == "a":
                frames[-1].append(TApp(word, (), pos) if kind == "A" else TVar(word, pos))
                i, state = j, _MORE
                continue
            if kind == "(":
                frames.append([pos, 0])
                i, state = j, _TYPE
                continue
            if state == _MORE:  # the sequence ends
                opened, d, t, *args = frames.pop()
                if args:
                    if t.__class__ is TVar:
                        msg = "a type parameter cannot be applied to arguments"
                        raise _refused(text, source, msg, t.pos, False, lines)
                    t = TApp(t.head, t.args + tuple(args), t.pos)
                    d = d or 1
                    if d > MAX_APPLICATIONS:
                        msg = f"type nests too deeply: {d} applications, at most {MAX_APPLICATIONS}"
                        raise _refused(text, source, msg, t.pos, False, lines)
                if opened:
                    if kind == "->":
                        msg = "function types are not permitted inside a type"
                        raise _refused(text, source, msg, opened, False, lines)
                    if kind == ")":
                        f = frames[-1]
                        f.append(t)
                        d += len(f) > 3  # t is an argument
                        if d > f[1]:
                            f[1] = d
                        i = j
                        continue
                    msg = "expected )"
                elif target:
                    if not kind:
                        return t
                    msg = "expected end of target type"
                else:
                    segments.append(t)
                    frames.append([None, 0])
                    if kind == "->":
                        i, state = j, _TYPE
                        continue
                    if kind == "\n":
                        ctors.append(Constructor(ctor, tuple(segments[:-1]), t, at))
                        i, state = j, _LINE
                        continue
                    msg = "expected a line break after the constructor type"
                raise _refused(text, source, msg, pos, True, lines)
        elif state == _LINE:
            if kind == "\n":
                i = j
                continue
            if name is not None and c in _NAME_START and word != "data":
                if word == "where":
                    msg = "'where' cannot name a constructor"
                    raise _refused(text, source, msg, pos, False, True)
                ctor, at, segments = word, pos, []
                i, state = j, _COLON
                continue
            if name is not None:
                decls.append(TypeDecl(name, tuple(params), tuple(ctors), start, tuple(param_pos)))
            if word == "data":
                i, state, start = j, _NAME, pos
                continue
            if not kind:
                if decls:
                    return Program(tuple(decls), source)
                msg = "expected at least one data declaration"
                raise _refused(text, source, msg, None, False, True)
        elif state == _PARAMS or state == _GROUP:
            if kind == "a":
                params.append(word)
                param_pos.append(pos)
                i = j
                continue
            if state == _GROUP and len(params) == group:
                msg = "expected parameter names inside parentheses"
                raise _refused(text, source, msg, pos, False, True)
            if kind == "(" and state == _PARAMS:
                i, state, group = j, _GROUP, len(params)
                continue
            if kind == ":":
                i, state = j, _GSET if state == _GROUP else _SET
                continue
            if word == "where" and state == _PARAMS:
                i, state = j, _BREAK
                continue
        elif state == _NAME:
            if kind == "A":
                name, params, param_pos, ctors = word, [], [], []
                i, state = j, _PARAMS
                continue
        elif word == _STEP[state][0]:
            i, state = j, _STEP[state][1]
            continue
        raise _refused(text, source, f"expected {_WANT[state]}", pos, True, lines)


def parse_program(text: str, source: str = "<input>") -> Program:
    """Parse a full .ndt file; names and arities are left unchecked."""
    return _read(text, source, False)


# ---------------------------------------------------------------------------
# Targets ("Bush Nat", "Dylan (Bob Nat) Atom", ...)

#: The base universes a target may name, and the runtime's word for each.
BASE_TYPES = {"Nat": "nat", "Atom": "atom"}


def parse_type_context(text: str, program: Program) -> TApp:
    """Parse an eval target: a declaration applied to type expressions over
    the declarations and BASE_TYPES, each base universe a TVar of its name."""
    return check_type_context(_read(text, "<target>", True), program)


def check_type_context(t: TypeExpr, program: Program) -> TApp:
    """t as an eval target.  Every rule a target obeys is checked here, as a
    ParseError at <target>."""
    arity = {d.name: len(d.params) for d in program.decls} | dict.fromkeys(BASE_TYPES, 0)
    t = _check_target(t, arity)
    if not isinstance(t, TApp):
        raise ParseError("target type context must name a declaration", 1, 1, "<target>")
    return t


def _check_target(t: TypeExpr, arity: dict[str, int]) -> TypeExpr:
    """t with its base universes made variables, or its first error.  Not a
    fold_type: it checks each node before its arguments, so the outermost
    error is the one reported, where a fold would report the innermost."""
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


def fold_type(t: TypeExpr, var, app):
    """The one structural recursion over a type: var(name) at a TVar, and
    app(head, the folded args) at a TApp.  It recurses once per application
    level, which _read and analysis.well_formed bound (MAX_APPLICATIONS)."""
    if t.__class__ is TVar:
        return var(t.name)
    return app(t.head, tuple(fold_type(a, var, app) for a in t.args))


def render_app(head: str, args) -> str:
    """head applied to the rendered args.  A name has no space, so an
    argument with one is an application, and it is parenthesized."""
    return " ".join([head, *(f"({a})" if " " in a else a for a in args)])


def render_type_expr(t: TypeExpr) -> str:
    return fold_type(t, str, render_app)


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
