"""Architecture description language: lexer, parser, and formatter."""

from .tokens import SourceUnit, Token, tokenize
from .parser import parse_protocol, parse_unit
from . import syntax

__all__ = [
    "SourceUnit",
    "Token",
    "tokenize",
    "parse_unit",
    "parse_protocol",
    "format",
    "format_protocol",
    "syntax",
]


def __getattr__(name: str):  # the formatter, on first use: no command prints a protocol
    if name in ("format", "format_protocol"):
        from . import printer
        globals().update(format=printer.format, format_protocol=printer.format_protocol)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
