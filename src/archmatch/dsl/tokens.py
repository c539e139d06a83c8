"""Lexer for the architecture description language."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..diagnostics import Span

KEYWORDS = frozenset({
    "type", "interface", "extends", "field", "contract", "implements", "init",
    "method", "protocol", "component", "provided", "internal", "required",
    "causal", "publication", "architecture", "business", "application",
    "object", "morphism", "link", "from", "to", "map", "generator", "incomplete",
})

DECL_KEYWORDS = frozenset({
    "type", "interface", "contract", "component", "publication", "architecture", "link",
})

IDENT = "ident"
STRING = "string"
ERROR = "error"
EOF = "eof"

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}


@dataclass(frozen=True)
class SourceUnit:
    path: str
    text: str


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT/STRING/ERROR/EOF, a keyword, or a punctuation string
    text: str  # raw source text
    span: Span
    value: str = field(default="", compare=False)  # decoded value for strings


# One alternative per token class, tried in order at each offset. Together they
# match every character, so the matches tile the text. Inside a closed string a
# backslash always starts an escape; were it also a plain character, the match
# could close the string on an escaped quote. An unterminated string runs to
# the end of its line; other error runs stop at any character that starts a token.
_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<blank>(?:[\ \t\r]|//[^\n]*)+)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>->|<:|[{}()\[\]:;,*+|?-])
  | (?P<string>"(?:[^"\\\n]|\\[^\n])*")
  | (?P<error>"[^\n]*|(?:[^\ \t\r\n"A-Za-z_{}()\[\]:;,*+|?/<-]|/(?!/)|<(?!:))+)
""", re.VERBOSE)
_ESCAPE = re.compile(r"\\(.)")


def _unescape(match: re.Match) -> str:
    return _ESCAPES.get(match[1], match[1])


def tokenize(unit: SourceUnit) -> list[Token]:
    """Lex `unit` into tokens.

    Never fails: runs of characters that start no token become error tokens,
    leaving every character covered by a token, whitespace, or a comment.
    The list always ends with an EOF token.
    """
    tokens: list[Token] = []
    line, last_newline = 1, -1  # the offset of the newline before the current line
    for m in _TOKEN.finditer(unit.text):
        group, start, text = m.lastgroup, m.start(), m[0]
        if group == "newline":
            line, last_newline = line + 1, start
            continue
        if group == "blank":
            continue
        span = Span(line, start - last_newline, start, len(text))
        if group == "word":
            tokens.append(Token(text if text in KEYWORDS else IDENT, text, span))
        elif group == "punct":
            tokens.append(Token(text, text, span))
        elif group == "string":
            tokens.append(Token(STRING, text, span, _ESCAPE.sub(_unescape, text[1:-1])))
        else:
            tokens.append(Token(ERROR, text, span))
    n = len(unit.text)
    tokens.append(Token(EOF, "", Span(line, n - last_newline, n, 0)))
    return tokens
