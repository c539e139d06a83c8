"""Lexer for the architecture description language."""

from __future__ import annotations

import re

from ..diagnostics import Span
from ..records import record

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


@record(frozen=True)
class SourceUnit:
    path: str
    text: str


class Token:
    """One token and where it starts; its `Span` is built only when asked for.

    A lexed unit has one token for every few characters, so a token is one
    plain slotted object: a record and a span each would cost more than the
    regex match that finds the token.
    """

    __slots__ = ("kind", "text", "line", "column", "offset", "value")

    def __init__(self, kind: str, text: str, line: int, column: int, offset: int,
                 value: str = ""):
        self.kind = kind  # IDENT/STRING/ERROR/EOF, a keyword, or a punctuation string
        self.text = text  # raw source text
        self.line, self.column, self.offset = line, column, offset
        self.value = value  # decoded value for strings

    @property
    def span(self) -> Span:
        return Span(self.line, self.column, self.offset, len(self.text))

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r}, {self.span})"


# Each match is the whitespace before a token, then one alternative per token
# class, a comment, or the end of the text, tried in order. The alternatives
# match every character but whitespace, so the matches tile the text and the
# whitespace never gives a character back: the lexer visits one match per token.
# Inside a closed string a backslash always starts an escape; were it also a
# plain character, the match could close the string on an escaped quote. An
# unterminated string runs to the end of its line; other error runs stop at any
# character that starts a token.
_TOKEN = re.compile(r"""
    [\ \t\r\n]*
    (?: (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>->|<:|[{}()\[\]:;,*+|?-])
      | (?P<string>"(?:[^"\\\n]|\\[^\n])*")
      | (?P<comment>//[^\n]*)
      | (?P<error>"[^\n]*|(?:[^\ \t\r\n"A-Za-z_{}()\[\]:;,*+|?/<-]|/(?!/)|<(?!:))+)
      | \Z)
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
    source = unit.text
    tokens: list[Token] = []
    line, last_newline = 1, -1  # the offset of the newline before the current line
    for m in _TOKEN.finditer(source):
        group = m.lastgroup  # None at the end of the text
        gap, start = m.start(), (m.start(group) if group else m.end())
        if start > gap and (newline := source.rfind("\n", gap, start)) >= 0:
            line += source.count("\n", gap, newline + 1)
            last_newline = newline
        if group is None:
            break
        if group == "comment":
            continue
        text, value = m[group], ""
        if group == "word":
            kind = text if text in KEYWORDS else IDENT
        elif group == "punct":
            kind = text
        elif group == "string":
            kind, value = STRING, _ESCAPE.sub(_unescape, text[1:-1])
        else:
            kind = ERROR
        tokens.append(Token(kind, text, line, start - last_newline, start, value))
    n = len(source)
    tokens.append(Token(EOF, "", line, n - last_newline, n))
    return tokens
