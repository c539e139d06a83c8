"""Parser for ADL units and protocol expressions.

The parser is total: any input yields either a syntax tree or a list of
error diagnostics (often both ends of a unit are salvageable; on error inside
one declaration it resynchronizes at the next top-level declaration keyword).
"""

from __future__ import annotations

from ..diagnostics import ERROR, Diagnostic, Span, attach_path
from ..protocol import Alt, Eps, Ev, ProtocolExpr, Seq, Shuffle, Star, chain
from . import syntax
from .tokens import DECL_KEYWORDS, EOF, ERROR as T_ERROR, IDENT, STRING, SourceUnit, Token, tokenize

_ANNOT_KEYS = ("guard", "pre", "post", "design")


class _ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


class _Reader:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # brace depth of consumed tokens, for resynchronization

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def at(self, *kinds: str) -> bool:
        return self.current.kind in kinds

    def accept(self, kind: str) -> Token | None:
        """Consume the current token if it is `kind`."""
        return self.advance() if self.tokens[self.pos].kind == kind else None

    def advance(self) -> Token:
        tok = self.current
        if tok.kind != EOF:
            self.pos += 1
            if tok.kind == "{":
                self.depth += 1
            elif tok.kind == "}":
                self.depth = max(0, self.depth - 1)
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.current
        if tok.kind == kind:
            return self.advance()
        if tok.kind == EOF and self.depth > 0:
            raise _ParseError(Diagnostic(
                ERROR, tok.span, f'unclosed block: expected "{kind}" before end of file',
                "unclosed-block"))
        expected = what or f'"{kind}"'
        found = tok.text if tok.text else "end of file"
        raise _ParseError(Diagnostic(
            ERROR, tok.span, f"expected {expected}, found {found!r}", "unexpected-token"))

    def expect_ident(self, what: str) -> Token:
        tok = self.current
        if tok.kind == IDENT:
            return self.advance()
        raise _ParseError(Diagnostic(
            ERROR, tok.span, f"expected {what}, found {tok.text or 'end of file'!r}",
            "unexpected-token"))

    def sync_to_declaration(self) -> None:
        while not self.at(EOF):
            if self.depth == 0 and self.current.kind in DECL_KEYWORDS:
                return
            self.advance()


def _extent(start: Span, end: Span) -> Span:
    return Span(start.line, start.column, start.offset,
                end.offset + end.length - start.offset)


# --- protocol expressions ----------------------------------------------------

_CHAINS = ((Seq, ";"), (Alt, "+"), (Shuffle, "|"))  # binary operators, tightest first


def _parse_expr(r: _Reader) -> ProtocolExpr:
    """protoExpr: postfix `*` binds tightest, then `;` (or juxtaposition), `+`
    and `|`; binary operators associate to the right.

    One loop reads an atom, then closes what ends after it.  Open parentheses
    wait on a stack, so nesting depth costs no Python recursion.
    """
    groups: list[tuple[list[ProtocolExpr], ...]] = []  # enclosing open parentheses
    operands: tuple[list[ProtocolExpr], ...] = ([], [], [])  # of the open ;, + and | chains
    while True:
        if r.accept("?"):
            e: ProtocolExpr = Ev(r.expect_ident("event name").text)
        else:
            r.expect("(", 'event "?name" or "("')
            if not r.accept(")"):
                groups.append(operands)
                operands = ([], [], [])
                continue
            e = Eps()
        while True:  # `e` is a whole atom
            while r.accept("*"):
                e = Star(e)
            for (cls, op), parts in zip(_CHAINS, operands):
                parts.append(e)
                if r.at(op) or (cls is Seq and r.at("?", "(")):
                    break
                e = chain(cls, parts)
                parts.clear()
            else:  # the group ends here
                if not groups:
                    return e
                r.expect(")")
                operands = groups.pop()
                continue
            r.accept(op)
            break


def _parse_protocol_block(r: _Reader) -> tuple[ProtocolExpr, Span]:
    """Parse `{ protoExpr }`; an empty block denotes the empty word."""
    open_tok = r.expect("{")
    close = r.accept("}")
    expr = Eps() if close else _parse_expr(r)
    return expr, _extent(open_tok.span, (close or r.expect("}")).span)


def parse_protocol(text: str) -> tuple[ProtocolExpr | None, list[Diagnostic]]:
    """Parse a standalone protocol expression."""
    reader = _Reader(tokenize(SourceUnit("<protocol>", text)))
    try:
        if reader.at(EOF):
            expr: ProtocolExpr = Eps()
        else:
            expr = _parse_expr(reader)
            if not reader.at(EOF):
                tok = reader.current
                raise _ParseError(Diagnostic(
                    ERROR, tok.span, f"unexpected {tok.text!r} after protocol expression",
                    "unexpected-token"))
    except _ParseError as err:
        return None, [err.diagnostic]
    return expr, []


# --- declarations ------------------------------------------------------------

def _parse_annot(r: _Reader) -> syntax.Annot | None:
    if not r.accept("["):
        return None
    values: dict[str, str] = {}
    while not r.at("]"):
        key = r.expect_ident("annotation key (guard, pre, post, design)")
        if key.text not in _ANNOT_KEYS:
            raise _ParseError(Diagnostic(
                ERROR, key.span, f"unknown annotation key {key.text!r}", "bad-annotation"))
        if key.text in values:
            raise _ParseError(Diagnostic(
                ERROR, key.span, f"duplicate annotation key {key.text!r}", "bad-annotation"))
        r.expect(":")
        values[key.text] = r.expect(STRING, "string").value
    r.expect("]")
    if not values:
        return None
    return syntax.Annot(values.get("guard"), values.get("pre"),
                        values.get("post"), values.get("design"))


def _parse_method(r: _Reader) -> syntax.MethodDecl:
    name = r.expect_ident("method name")
    r.expect("(")
    params: list[syntax.ParamDecl] = []
    if not r.at(")"):
        while True:
            pname = r.expect_ident("parameter name")
            r.expect(":")
            ptype = r.expect_ident("parameter type")
            params.append(syntax.ParamDecl(pname.text, ptype.text,
                                           _extent(pname.span, ptype.span)))
            if not r.accept(","):
                break
    r.expect(")")
    return_type = r.expect_ident("return type").text if r.accept(":") else None
    annot = _parse_annot(r)
    semi = r.expect(";")
    return syntax.MethodDecl(name.text, tuple(params), return_type, annot,
                             _extent(name.span, semi.span))


def _parse_type(r: _Reader) -> syntax.TypeDecl:
    kw = r.expect("type")
    name = r.expect_ident("type name")
    supertype = r.expect_ident("supertype name").text if r.accept("<:") else None
    semi = r.expect(";")
    return syntax.TypeDecl(name.text, supertype, _extent(kw.span, semi.span))


def _parse_interface(r: _Reader) -> syntax.InterfaceDecl:
    kw = r.expect("interface")
    name = r.expect_ident("interface name")
    extends = r.expect_ident("base interface name").text if r.accept("extends") else None
    r.expect("{")
    fields: list[syntax.FieldDecl] = []
    methods: list[syntax.MethodDecl] = []
    while not r.at("}"):
        if fkw := r.accept("field"):
            fname = r.expect_ident("field name")
            r.expect(":")
            ftype = r.expect_ident("field type")
            semi = r.expect(";")
            fields.append(syntax.FieldDecl(fname.text, ftype.text, _extent(fkw.span, semi.span)))
        elif r.at(IDENT):
            methods.append(_parse_method(r))
        else:
            r.expect("}", 'field or method declaration, or "}"')
    close = r.advance()
    return syntax.InterfaceDecl(name.text, extends, tuple(fields), tuple(methods),
                                _extent(kw.span, close.span))


def _parse_contract(r: _Reader) -> syntax.ContractDecl:
    kw = r.expect("contract")
    name = r.expect_ident("contract name")
    r.expect("implements")
    implements = r.expect_ident("interface name")
    r.expect("{")
    incomplete = r.accept("incomplete") is not None
    if incomplete:
        r.expect(";")
    init = None
    if r.accept("init"):
        r.expect("{")
        init = r.expect(STRING, "string").value
        r.expect("}")
    methods: list[syntax.MethodDecl] = []
    while r.accept("method"):
        methods.append(_parse_method(r))
    protocol, protocol_span = _parse_protocol_block(r) if r.accept("protocol") else (None, None)
    close = r.expect("}")
    return syntax.ContractDecl(name.text, implements.text, incomplete, init,
                               tuple(methods), protocol,
                               _extent(kw.span, close.span), protocol_span)


def _parse_component_body(r: _Reader, kw: Token, name: Token, node_cls):
    r.expect("{")
    r.expect("provided")
    r.expect("contract")
    provided = r.expect_ident("contract name")
    internal = required = None
    if r.accept("internal"):
        r.expect("interface")
        internal = r.expect_ident("interface name").text
    if r.accept("required"):
        r.expect("interface")
        required = r.expect_ident("interface name").text
    causal, causal_span = _parse_protocol_block(r) if r.accept("causal") else (None, None)
    close = r.expect("}")
    return node_cls(name.text, provided.text, internal, required, causal,
                    _extent(kw.span, close.span), causal_span)


def _parse_architecture(r: _Reader) -> syntax.ArchitectureDecl:
    kw = r.expect("architecture")
    if not r.at(syntax.BUSINESS, syntax.APPLICATION):
        tok = r.current
        raise _ParseError(Diagnostic(
            ERROR, tok.span, f'expected "business" or "application", found {tok.text!r}',
            "unexpected-token"))
    kind = r.advance().kind
    name = r.expect_ident("architecture name")
    r.expect("{")
    objects: list[syntax.ObjectRef] = []
    while r.accept("object"):
        oname = r.expect_ident("object name")
        r.expect(";")
        objects.append(syntax.ObjectRef(oname.text, oname.span))
    morphisms: list[syntax.MorphismDecl] = []
    while mkw := r.accept("morphism"):
        src = r.expect_ident("object name")
        r.expect("-")
        mkind = r.expect_ident("morphism kind")
        r.expect("->")
        dst = r.expect_ident("object name")
        semi = r.expect(";")
        morphisms.append(syntax.MorphismDecl(src.text, mkind.text, dst.text,
                                             _extent(mkw.span, semi.span)))
    close = r.expect("}")
    return syntax.ArchitectureDecl(kind, name.text, tuple(objects), tuple(morphisms),
                                   _extent(kw.span, close.span))


def _parse_link(r: _Reader) -> syntax.LinkDecl:
    kw = r.expect("link")
    name = r.expect_ident("link name")
    r.expect("from")
    source = r.expect_ident("architecture name")
    r.expect("to")
    target = r.expect_ident("architecture name")
    r.expect("{")
    object_map: list[syntax.MapEntry] = []
    while mkw := r.accept("map"):
        src = r.expect_ident("object name")
        r.expect("->")
        dst = r.expect_ident("object name")
        semi = r.expect(";")
        object_map.append(syntax.MapEntry(src.text, dst.text, _extent(mkw.span, semi.span)))
    generator_map: list[syntax.GeneratorEntry] = []
    while gkw := r.accept("generator"):
        src = r.expect_ident("morphism kind")
        r.expect("->")
        dst = r.expect_ident("morphism kind")
        semi = r.expect(";")
        generator_map.append(syntax.GeneratorEntry(src.text, dst.text,
                                                   _extent(gkw.span, semi.span)))
    close = r.expect("}")
    return syntax.LinkDecl(name.text, source.text, target.text,
                           tuple(object_map), tuple(generator_map),
                           _extent(kw.span, close.span))


def parse_unit(unit: SourceUnit) -> tuple[syntax.SyntaxTree | None, list[Diagnostic]]:
    """Parse one ADL unit.

    Returns (tree, diagnostics); the tree is None whenever any diagnostic is
    an error.  Resynchronizes after a bad declaration so every broken
    declaration in the unit is reported.
    """
    reader = _Reader(tokenize(unit))
    declarations: list[syntax.Declaration] = []
    diagnostics: list[Diagnostic] = []
    while not reader.at(EOF):
        tok = reader.current
        try:
            if tok.kind == T_ERROR:
                raise _ParseError(Diagnostic(
                    ERROR, tok.span, f"unexpected characters {tok.text!r}", "bad-character"))
            if tok.kind == "type":
                declarations.append(_parse_type(reader))
            elif tok.kind == "interface":
                declarations.append(_parse_interface(reader))
            elif tok.kind == "contract":
                declarations.append(_parse_contract(reader))
            elif tok.kind == "component":
                kw = reader.advance()
                name = reader.expect_ident("component name")
                declarations.append(_parse_component_body(reader, kw, name, syntax.ComponentDecl))
            elif tok.kind == "publication":
                kw = reader.advance()
                name = reader.expect_ident("publication name")
                declarations.append(_parse_component_body(reader, kw, name, syntax.PublicationDecl))
            elif tok.kind == "architecture":
                declarations.append(_parse_architecture(reader))
            elif tok.kind == "link":
                declarations.append(_parse_link(reader))
            else:
                raise _ParseError(Diagnostic(
                    ERROR, tok.span,
                    f"expected a declaration (type, interface, contract, component, "
                    f"publication, architecture, link), found {tok.text or 'end of file'!r}",
                    "unexpected-token"))
        except _ParseError as err:
            diagnostics.append(err.diagnostic)
            if reader.current is tok:  # error at the very first token: step over it
                reader.advance()
            reader.sync_to_declaration()
    diagnostics = attach_path(diagnostics, unit.path)
    if any(d.severity == ERROR for d in diagnostics):
        return None, diagnostics
    return syntax.SyntaxTree(tuple(declarations), unit.path), diagnostics
