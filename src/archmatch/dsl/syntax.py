"""Syntax tree for ADL units.

Nodes compare structurally; source spans are carried for diagnostics but are
excluded from equality so that a formatted-and-reparsed tree equals the
original.
"""

from __future__ import annotations

from ..diagnostics import Span
from ..protocol import ProtocolExpr
from ..records import field, record

BUSINESS = "business"
APPLICATION = "application"


def _span() -> object:
    return field(compare=False, repr=False)


@record(frozen=True)
class ParamDecl:
    name: str
    type: str
    span: Span = _span()


@record(frozen=True)
class Annot:
    """Opaque method annotation text: guard/pre/post/design."""

    guard: str | None = None
    pre: str | None = None
    post: str | None = None
    design: str | None = None

    def empty(self) -> bool:
        return self.guard is None and self.pre is None and self.post is None and self.design is None


@record(frozen=True)
class MethodDecl:
    name: str
    params: tuple[ParamDecl, ...]
    return_type: str | None
    annot: Annot | None
    span: Span = _span()


@record(frozen=True)
class FieldDecl:
    name: str
    type: str
    span: Span = _span()


@record(frozen=True)
class TypeDecl:
    name: str
    supertype: str | None
    span: Span = _span()


@record(frozen=True)
class InterfaceDecl:
    name: str
    extends: str | None
    fields: tuple[FieldDecl, ...]
    methods: tuple[MethodDecl, ...]
    span: Span = _span()


@record(frozen=True)
class ContractDecl:
    name: str
    implements: str
    incomplete: bool
    init: str | None
    methods: tuple[MethodDecl, ...]
    protocol: ProtocolExpr | None
    span: Span = _span()
    protocol_span: Span | None = field(default=None, compare=False, repr=False)


@record(frozen=True)
class ComponentDecl:
    name: str
    provided_contract: str
    internal_interface: str | None
    required_interface: str | None
    causal: ProtocolExpr | None
    span: Span = _span()
    causal_span: Span | None = field(default=None, compare=False, repr=False)


@record(frozen=True)
class PublicationDecl:
    name: str
    provided_contract: str
    internal_interface: str | None
    required_interface: str | None
    causal: ProtocolExpr | None
    span: Span = _span()
    causal_span: Span | None = field(default=None, compare=False, repr=False)


@record(frozen=True)
class ObjectRef:
    name: str
    span: Span = _span()


@record(frozen=True)
class MorphismDecl:
    src: str
    kind: str
    dst: str
    span: Span = _span()


@record(frozen=True)
class ArchitectureDecl:
    kind: str  # BUSINESS or APPLICATION
    name: str
    objects: tuple[ObjectRef, ...]
    morphisms: tuple[MorphismDecl, ...]
    span: Span = _span()


@record(frozen=True)
class MapEntry:
    src: str
    dst: str
    span: Span = _span()


@record(frozen=True)
class GeneratorEntry:
    src: str
    dst: str
    span: Span = _span()


@record(frozen=True)
class LinkDecl:
    name: str
    source: str
    target: str
    object_map: tuple[MapEntry, ...]
    generator_map: tuple[GeneratorEntry, ...]
    span: Span = _span()


Declaration = (TypeDecl | InterfaceDecl | ContractDecl | ComponentDecl
               | PublicationDecl | ArchitectureDecl | LinkDecl)


@record(frozen=True)
class SyntaxTree:
    declarations: tuple[Declaration, ...]
    path: str = field(default="", compare=False)
