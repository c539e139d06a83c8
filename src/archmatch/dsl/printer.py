"""Canonical formatter for ADL syntax trees.

parse(format(tree)) reproduces tree structurally; see the round-trip tests.
"""

from __future__ import annotations

from ..protocol import Alt, Eps, Ev, ProtocolExpr, Seq, Star, fold
from . import syntax

_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}


def _string(value: str) -> str:
    return '"' + "".join(_STRING_ESCAPES.get(c, c) for c in value) + '"'


def _render(e: ProtocolExpr, operands: list[tuple[str, int]]) -> tuple[str, int]:
    """(text, precedence) of `e`; an operand binding looser than its place is parenthesized."""
    def place(i: int, level: int) -> str:
        text, own = operands[i]
        return f"({text})" if own < level else text

    if isinstance(e, Ev):
        return "?" + e.name, 3
    if isinstance(e, Eps):
        return "()", 3
    if isinstance(e, Star):
        return place(0, 3) + "*", 3
    if isinstance(e, Seq):
        return place(0, 3) + " " + place(1, 2), 2
    if isinstance(e, Alt):
        return place(0, 2) + " + " + place(1, 1), 1
    return place(0, 1) + " | " + place(1, 0), 0  # Shuffle


def format_protocol(expr: ProtocolExpr) -> str:
    """Render a protocol expression with minimal parentheses.

    Binary operators associate to the right, so a left-nested operand of the
    same operator is parenthesized to survive reparsing.
    """
    return fold(expr, _render)[0]


def _annot(annot: syntax.Annot | None) -> str:
    if annot is None:
        return ""
    parts = []
    for key in ("guard", "pre", "post", "design"):
        value = getattr(annot, key)
        if value is not None:
            parts.append(f"{key}: {_string(value)}")
    return " [" + " ".join(parts) + "]"


def _method(m: syntax.MethodDecl) -> str:
    params = ", ".join(f"{p.name}: {p.type}" for p in m.params)
    ret = f": {m.return_type}" if m.return_type else ""
    return f"{m.name}({params}){ret}{_annot(m.annot)};"


def _format_decl(decl: syntax.Declaration) -> str:
    if isinstance(decl, syntax.TypeDecl):
        if decl.supertype:
            return f"type {decl.name} <: {decl.supertype};"
        return f"type {decl.name};"

    if isinstance(decl, syntax.InterfaceDecl):
        head = f"interface {decl.name}"
        if decl.extends:
            head += f" extends {decl.extends}"
        lines = [head + " {"]
        for f in decl.fields:
            lines.append(f"  field {f.name}: {f.type};")
        for m in decl.methods:
            lines.append("  " + _method(m))
        lines.append("}")
        return "\n".join(lines)

    if isinstance(decl, syntax.ContractDecl):
        lines = [f"contract {decl.name} implements {decl.implements} {{"]
        if decl.incomplete:
            lines.append("  incomplete;")
        if decl.init is not None:
            lines.append(f"  init {{ {_string(decl.init)} }}")
        for m in decl.methods:
            lines.append("  method " + _method(m))
        if decl.protocol is not None:
            lines.append(f"  protocol {{ {format_protocol(decl.protocol)} }}")
        lines.append("}")
        return "\n".join(lines)

    if isinstance(decl, (syntax.ComponentDecl, syntax.PublicationDecl)):
        kw = "component" if isinstance(decl, syntax.ComponentDecl) else "publication"
        lines = [f"{kw} {decl.name} {{", f"  provided contract {decl.provided_contract}"]
        if decl.internal_interface:
            lines.append(f"  internal interface {decl.internal_interface}")
        if decl.required_interface:
            lines.append(f"  required interface {decl.required_interface}")
        if decl.causal is not None:
            lines.append(f"  causal {{ {format_protocol(decl.causal)} }}")
        lines.append("}")
        return "\n".join(lines)

    if isinstance(decl, syntax.ArchitectureDecl):
        lines = [f"architecture {decl.kind} {decl.name} {{"]
        for obj in decl.objects:
            lines.append(f"  object {obj.name};")
        for m in decl.morphisms:
            lines.append(f"  morphism {m.src} -{m.kind}-> {m.dst};")
        lines.append("}")
        return "\n".join(lines)

    if isinstance(decl, syntax.LinkDecl):
        lines = [f"link {decl.name} from {decl.source} to {decl.target} {{"]
        for entry in decl.object_map:
            lines.append(f"  map {entry.src} -> {entry.dst};")
        for entry in decl.generator_map:
            lines.append(f"  generator {entry.src} -> {entry.dst};")
        lines.append("}")
        return "\n".join(lines)

    raise TypeError(f"not a declaration: {decl!r}")


def format(tree: syntax.SyntaxTree) -> str:
    """Canonical text for `tree`; the empty tree formats to the empty string."""
    if not tree.declarations:
        return ""
    return "\n\n".join(_format_decl(d) for d in tree.declarations) + "\n"
