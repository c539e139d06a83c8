"""Lexer for the architecture description language."""

from __future__ import annotations

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

PUNCT2 = ("->", "<:")
PUNCT1 = "{}()[]:;,*+|?-"

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


def _is_ident_start(c: str) -> bool:
    return c.isascii() and (c.isalpha() or c == "_")


def _is_ident_part(c: str) -> bool:
    return c.isascii() and (c.isalnum() or c == "_")


def tokenize(unit: SourceUnit) -> list[Token]:
    """Lex `unit` into tokens.

    Never fails: runs of characters that start no token become error tokens,
    leaving every character covered by a token, whitespace, or a comment.
    The list always ends with an EOF token.
    """
    text = unit.text
    n = len(text)
    tokens: list[Token] = []
    i, line, col = 0, 1, 1

    def span(start_i: int, start_line: int, start_col: int, length: int) -> Span:
        return Span(start_line, start_col, start_i, length)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        start_i, start_line, start_col = i, line, col
        if _is_ident_start(c):
            j = i + 1
            while j < n and _is_ident_part(text[j]):
                j += 1
            word = text[i:j]
            kind = word if word in KEYWORDS else IDENT
            tokens.append(Token(kind, word, span(start_i, start_line, start_col, j - i)))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            value = []
            closed = False
            while j < n and text[j] != "\n":
                if text[j] == '"':
                    closed = True
                    j += 1
                    break
                if text[j] == "\\" and j + 1 < n and text[j + 1] != "\n":  # strings are one line
                    value.append(_ESCAPES.get(text[j + 1], text[j + 1]))
                    j += 2
                    continue
                value.append(text[j])
                j += 1
            raw = text[i:j]
            if closed:
                tokens.append(Token(STRING, raw, span(start_i, start_line, start_col, j - i),
                                    value="".join(value)))
            else:
                tokens.append(Token(ERROR, raw, span(start_i, start_line, start_col, j - i)))
            col += j - i
            i = j
            continue
        two = text[i:i + 2]
        if two in PUNCT2:
            tokens.append(Token(two, two, span(start_i, start_line, start_col, 2)))
            i += 2
            col += 2
            continue
        if c in PUNCT1:
            tokens.append(Token(c, c, span(start_i, start_line, start_col, 1)))
            i += 1
            col += 1
            continue
        # maximal run of characters that start no token
        j = i
        while j < n:
            cj = text[j]
            if (cj in " \t\r\n\"" or cj in PUNCT1 or _is_ident_start(cj)
                    or text.startswith("//", j) or text[j:j + 2] in PUNCT2):
                break
            j += 1
        tokens.append(Token(ERROR, text[i:j], span(start_i, start_line, start_col, j - i)))
        col += j - i
        i = j

    tokens.append(Token(EOF, "", Span(line, col, n, 0)))
    return tokens
