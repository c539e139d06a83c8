"""Source spans and diagnostics shared by the parser and the resolver."""

from __future__ import annotations

from .records import record

ERROR = "error"
WARNING = "warning"


@record(frozen=True)
class Span:
    """A region of source text: 1-based line/column plus absolute offset."""

    line: int
    column: int
    offset: int
    length: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@record(frozen=True)
class Diagnostic:
    severity: str  # ERROR or WARNING
    span: Span
    message: str
    code: str  # short stable identifier, e.g. "unclosed-block"
    path: str = ""  # unit path when known

    def __str__(self) -> str:
        where = f"{self.path}:{self.span}" if self.path else str(self.span)
        return f"{where}: {self.severity}: {self.message} [{self.code}]"


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == ERROR for d in diagnostics)


def attach_path(diagnostics: list[Diagnostic], path: str) -> list[Diagnostic]:
    """Return diagnostics with `path` filled in where missing."""
    out = []
    for d in diagnostics:
        if d.path:
            out.append(d)
        else:
            out.append(Diagnostic(d.severity, d.span, d.message, d.code, path))
    return out
