"""Positioned diagnostics and the error types shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Diagnostic:
    """A single `file:line:col: error: message` report."""

    message: str
    line: int | None = None
    col: int | None = None
    file: str | None = None

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


class PsBridgeError(DerivationError):
    """The PS bridge requires a single self-nesting declaration of the bush shape."""


class EmitError(NestfoldError):
    """Internal invariant violation while rendering a module (unscoped term etc.)."""


class EvalError(NestfoldError):
    """Runtime evaluation failure: ill-typed value, wrong algebra, overflow."""


class GuardExceeded(EvalError):
    """Depth guard tripped inside a non-structural oracle; signals a bug, not bad input."""
