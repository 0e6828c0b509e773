"""Positioned diagnostics, the error types shared across the package, and
Record, the immutable base of every record the package builds.

This module imports nothing from the package, so every other module can
build on it; and it imports only operator, so that no command pays for
dataclasses (and the inspect, ast and re it loads) at start-up.  Record
builds each subclass's __init__ itself, from its __slots__, the way
dataclasses does: by exec of generated source.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """An immutable record with value equality.

    A subclass lists its fields in __slots__, its positional fields in
    __match_args__ (which class patterns read), and the defaults of its
    last fields in _defaults.  Unless it writes its own, its __init__ is
    built here: one parameter per slot, in slot order, the last
    len(_defaults) defaulting to _defaults, each set through its slot
    descriptor.  The source of that __init__ is made from the slot names
    alone, which Python has already checked are identifiers, and compiled
    once per class; dataclasses would build the same constructor but cost
    every command the inspect, ast and re it imports.

    repr shows each positional field but pos; == and hash compare the same
    fields, or those the class names in _compared, through one attrgetter
    per class.  Fields outside __match_args__ (a cached hash, the positions
    of parts) are neither shown nor compared.  Every assignment raises
    AttributeError, so a hand-written __init__ sets fields through the slot
    descriptors.  A class that writes its own __eq__ keeps a hash with
    __hash__ = Record.__hash__.
    """

    __slots__ = ()
    _defaults: tuple = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._shown = tuple(n for n in cls.__match_args__ if n != "pos")
        cls._key = attrgetter(*cls.__dict__.get("_compared", cls._shown))
        if "__init__" not in cls.__dict__:
            cls.__init__ = _constructor(cls)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join([f"{n}={getattr(self, n)!r}" for n in self._shown])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _constructor(cls: type) -> object:
    """cls's __init__: for slots a and b, def __init__(self, a, b) that runs
    _set_a(self, a) and _set_b(self, b), _set_a being slot a's __set__."""
    fields = cls.__slots__
    setters = {f"_set_{f}": getattr(cls, f).__set__ for f in fields}
    params = "".join(f", {f}" for f in fields)
    body = "".join(f"\n    _set_{f}(self, {f})" for f in fields)
    exec(f"def __init__(self{params}):{body}", setters)
    init = setters["__init__"]
    init.__defaults__ = cls._defaults
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class Diagnostic(Record):
    """A single `file:line:col: error: message` report."""

    __slots__ = __match_args__ = ("message", "line", "col", "file")
    _defaults = (None, None, None)

    def render(self) -> str:
        if self.line is not None:
            where = f"{self.file or '<input>'}:{self.line}:{self.col}: "
        else:
            where = ""
        return f"{where}error: {self.message}"


class NestfoldError(Exception):
    """Base class for all errors raised by this package."""


class DiagnosticError(NestfoldError):
    """An error reported as diagnostics; its text renders them one a line."""

    def __init__(self, *diagnostics: Diagnostic):
        super().__init__("\n".join(d.render() for d in diagnostics))
        self.diagnostics = diagnostics


class ParseError(DiagnosticError):
    """Syntax or name-resolution failure, with source position."""

    def __init__(self, message: str, line: int, col: int, file: str | None = None):
        super().__init__(Diagnostic(message, line, col, file))


class AnalysisError(DiagnosticError):
    """A program or request that analysis refuses: every well_formed
    finding, or the one refusal that stopped it."""


class DerivationError(NestfoldError):
    """A derivation that is not defined for the given declaration shape."""


class EmitError(NestfoldError):
    """Internal invariant violation while rendering a module (unscoped term etc.)."""


class EvalError(NestfoldError):
    """Runtime evaluation failure: ill-typed value, wrong algebra, overflow."""


class GuardExceeded(EvalError):
    """Depth guard tripped inside a non-structural oracle; signals a bug, not bad input."""
