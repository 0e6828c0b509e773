"""Value literals (.ndv): their records, reader, renderer and size.

A value literal is an explicit constructor application (``cons 4 leaf``),
a natural, a quoted atom (``'x``), or a bracket list ``[ 4, [ 8 ] ]``, which
desugars to the target declaration's nil/cons-style constructors.  One loop
reads a literal's characters over an explicit stack, building no token and
not recursing; a refused literal is worded by the declaration reader's
refusal (parser._refused), so that a lexical error anywhere is the one
reported.

Only `eval` and `test` load this module (through the runtime, the property
suite and the CLI's eval command): parsing and analyzing declarations never
compile it.
"""

from __future__ import annotations

from .diagnostics import Record, _set
from .parser import (
    KEYWORDS,
    NAT_MAX,
    _DIGITS,
    _NAME_CHARS,
    _NAME_START,
    _NAT_MAX_LEN,
    Program,
    TypeDecl,
    _BLANK_LINES,
    _UPPER,
    _end,
    _refused,
    spine_shape,
)


class Atom(Record):
    """A named base payload, written 'name in value literals."""

    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)

    def __str__(self) -> str:
        return f"'{self.name}"


Payload = int | Atom


# VBase and VCon are built and compared once per node of every value: each
# sets its fields through its slot descriptors and compares them itself.


class VBase(Record):
    __slots__ = __match_args__ = ("payload", "pos")

    def __init__(self, payload: Payload, pos: tuple[int, int] | None = None):
        _vbase_payload(self, payload)
        _vbase_pos(self, pos)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is VBase:
            return self.payload == other.payload
        return NotImplemented

    __hash__ = Record.__hash__


class VCon(Record):
    __slots__ = __match_args__ = ("ctor", "args", "pos")

    def __init__(
        self, ctor: str, args: tuple[Value, ...] = (), pos: tuple[int, int] | None = None
    ):
        _vcon_ctor(self, ctor)
        _vcon_args(self, args)
        _vcon_pos(self, pos)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is VCon:
            return self.ctor == other.ctor and self.args == other.args
        return NotImplemented

    __hash__ = Record.__hash__


_vbase_payload, _vbase_pos = VBase.payload.__set__, VBase.pos.__set__
_vcon_ctor, _vcon_args, _vcon_pos = VCon.ctor.__set__, VCon.args.__set__, VCon.pos.__set__

Value = VBase | VCon


# ---------------------------------------------------------------------------
# Reading


#: parse_value_literal's frame of an open parenthesis, and what starts a
#: constructor argument, but a keyword.  It skips parser._BLANK_LINES.
_PAREN = object()
_ARG_START = (_NAME_START - _UPPER) | _DIGITS | {"'", "(", "["}


def parse_value_literal(
    text: str, program: Program, decl: TypeDecl, source: str = "<value>"
) -> Value:
    """Parse one value literal; `decl` is the target's head declaration
    (program.decl(parse_type_context(...).head)).

    The head declaration supplies the constructors that bracket sugar
    expands to, and program every constructor's arity.  Typing the result
    against the full target is the runtime's job.
    """
    arities = {c.name: len(c.args) for d in program.decls for c in d.ctors}
    shape, n, s = spine_shape(decl), len(text), text + "\n\0"  # a comment ends at the "\n"
    i, line, bol = 0, 1, 0  # offset, its line, and that line's first offset
    frames: list = []  # _PAREN, [pos, elements] or (ctor, arity, pos, args)
    push, pop = frames.append, frames.pop
    want, allow, v = True, True, None  # want a value (with arguments if allow), or have v
    while True:
        c = s[i]
        while c in _BLANK_LINES and (c != "-" or s[i + 1] == "-"):  # blanks and comments
            if c == "\n":
                line, bol = line + 1, i + 1
            i = s.find("\n", i) if c == "-" else i + 1
            c = s[i]
        if want:
            if c == "(":
                push(_PAREN)
                i, allow = i + 1, True
                continue
            want, pos = False, (line, i - bol + 1)
            if c in _NAME_START:
                j = i + 1
                while s[j] in _NAME_CHARS:
                    j += 1
                name = s[i:j]
                arity = arities.get(name)
                if arity is None or c in _UPPER:  # a capitalized name is a type's
                    if c in _UPPER or name in KEYWORDS:
                        raise _refused(text, source, "expected a value", pos)
                    raise _refused(text, source, f"unknown constructor {name!r}", pos, False)
                if allow:
                    push((name, arity, pos, []))
                    v = None
                elif arity:
                    msg = f"{name} takes {arity} argument(s), got 0"
                    raise _refused(text, source, msg, pos, False)
                else:
                    v = VCon(name, (), pos)
                i = j
            elif c in _DIGITS:
                j = _end(s, i, _DIGITS)
                lit = s[i:j].lstrip("0") or "0"
                if len(lit) > _NAT_MAX_LEN or int(lit) > NAT_MAX:
                    raise _refused(text, source, "expected a value", pos)
                i, v = j, VBase(int(lit), pos)
            elif c == "'" and s[i + 1] in _NAME_CHARS:
                j = _end(s, i + 1)
                i, v = j, VBase(Atom(s[i + 1 : j]), pos)
            elif c == "[" and shape is not None:
                push([pos, []])
                i, v = i + 1, None
            elif c == "[":
                msg = f"bracket sugar needs {decl.name} to have exactly one nullary and one"
                raise _refused(text, source, f"{msg} binary constructor", pos, False)
            else:
                raise _refused(text, source, "expected a value", pos)
            continue
        while True:  # v has been read (or a frame opened, v None) and c follows
            if not frames:
                if i > n:  # past the sentinel "\n"
                    return v
                raise _refused(text, source, "expected end of input", (line, i - bol + 1))
            f = frames[-1]
            if f.__class__ is tuple:  # a constructor taking arguments
                if v is not None:
                    f[3].append(v)
                if c in _ARG_START and not (c in "dw" and s[i : _end(s, i)] in KEYWORDS):
                    want, allow = True, False
                    break
                name, arity, at, args = pop()
                if len(args) != arity:
                    msg = f"{name} takes {arity} argument(s), got {len(args)}"
                    raise _refused(text, source, msg, at, False)
                v = VCon(name, tuple(args), at)
                continue
            if f is _PAREN:
                if c != ")":
                    raise _refused(text, source, "expected )", (line, i - bol + 1))
            else:  # a bracket list
                at, elems = f
                if v is not None:
                    elems.append(v)
                if c != "]":
                    if v is not None and c != ",":
                        raise _refused(text, source, "expected ]", (line, i - bol + 1))
                    i += v is not None  # past the "," before the next element
                    want, allow = True, True
                    break
                v = VCon(shape[0], (), at)
                for e in reversed(elems):
                    v = VCon(shape[1], (e, v), at)
            pop()
            i += 1
            break


# ---------------------------------------------------------------------------
# Rendering and size


#: render_value's stack entry for a closing parenthesis.
_CLOSE = object()


def render_value(v: object, atom: bool = False) -> str:
    """A value's literal text: a constructor and its arguments, an argument
    that has arguments itself in parentheses (and v too, if atom).

    Anything that is not a Value, whole or in a constructor slot, is written
    as its str(): a fold's natural or function, or whatever a broken
    evaluator put in a slot.  Written from an explicit stack, so that a value
    as deep as a long list renders without recursion."""
    out: list[str] = []
    write = out.append
    todo: list = []  # arguments still to write, and closing parentheses, last first
    pop, push, extend = todo.pop, todo.append, todo.extend
    while True:
        if v.__class__ is VCon:
            if not v.args:
                write(v.ctor)
            else:
                if atom:
                    write("(")
                    push(_CLOSE)
                write(v.ctor)
                extend(reversed(v.args))
        elif v.__class__ is VBase:
            write(str(v.payload))
        else:
            write(str(v))
        atom = True
        while todo:
            v = pop()
            if v is not _CLOSE:
                write(" ")
                break
            write(")")
        else:
            return "".join(out)


def value_size(v: Value) -> int:
    """Number of constructor nodes; base payloads weigh nothing.  One
    explicit-stack loop, so a value as deep as a long list is measured
    under the default recursion limit."""
    n = 0
    stack = [v]
    pop, extend = stack.pop, stack.extend
    while stack:
        w = pop()
        if w.__class__ is VCon:
            n += 1
            extend(w.args)
        elif w.__class__ is not VBase:
            raise AssertionError
    return n
