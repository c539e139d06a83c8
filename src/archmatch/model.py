"""The resolved specification ladder: types, interfaces, contracts, components,
publications, and the publication derivation (guard stripping + causal relation).
"""

from __future__ import annotations

from functools import cached_property

from . import protocol
from .diagnostics import ERROR, Diagnostic, Span
from .dsl import syntax
from .protocol import ProtocolExpr, Shuffle, events, universal_expr
from .records import field, record, replace


class ModelError(ValueError):
    """A model-level precondition violation (e.g. publishing without a protocol)."""


@record(frozen=True)
class TypeDecl:
    name: str
    supertype: str | None = None


@record(frozen=True)
class Param:
    name: str
    type: str


@record(frozen=True)
class Field:
    name: str
    type: str


@record(frozen=True)
class MethodSig:
    name: str
    params: tuple[Param, ...]
    return_type: str | None = None

    @cached_property
    def types(self) -> tuple[tuple[str, ...], str | None]:
        """(parameter types, return type): all that a signature match compares."""
        return tuple(p.type for p in self.params), self.return_type

    def render(self) -> str:
        params = ", ".join(f"{p.name}: {p.type}" for p in self.params)
        ret = f": {self.return_type}" if self.return_type else ""
        return f"{self.name}({params}){ret}"


@record(frozen=True)
class MethodSpec:
    """Opaque method specification; publications carry no guards."""

    guard: str | None = None
    design: str = ""
    pre: str | None = None
    post: str | None = None

    def without_guard(self) -> "MethodSpec":
        return replace(self, guard=None)


@record(frozen=True)
class Interface:
    name: str
    fields: tuple[Field, ...]
    methods: tuple[MethodSig, ...]  # own methods; see all_methods()
    extends: "Interface | None" = None

    @cached_property
    def _all_methods(self) -> tuple[MethodSig, ...]:
        # on first use, from the nearest base that has built its own: not n tuples per chain
        own, base = [self.methods], self.extends
        while base is not None and "_all_methods" not in vars(base):
            own.append(base.methods)
            base = base.extends
        return (() if base is None else base._all_methods) + \
            tuple(m for methods in reversed(own) for m in methods)

    def all_methods(self) -> tuple[MethodSig, ...]:
        """Own plus inherited methods, base-first."""
        return self._all_methods

    def method_names(self) -> frozenset[str]:
        return frozenset(m.name for m in self.all_methods())


@record(frozen=True)
class Contract:
    name: str
    iface: Interface
    init: str | None
    phi: dict[str, MethodSpec]  # one entry per interface method
    prot: ProtocolExpr | None  # None: unconstrained (universal language)
    complete: bool = True

    def __hash__(self):  # phi is a dict; identity hash is fine for model objects
        return id(self)


@record(frozen=True)
class GeneralContract:
    base: Contract
    private_methods: tuple[tuple[MethodSig, MethodSpec], ...] = ()


@record(frozen=True)
class Component:
    name: str
    provided: GeneralContract
    required: Interface | None = None
    internal: Interface | None = None
    causal: ProtocolExpr | None = None

    @property
    def provided_interface(self) -> Interface:
        return self.provided.base.iface

    @property
    def provided_protocol(self) -> ProtocolExpr | None:
        return self.provided.base.prot


@record(frozen=True)
class PublicationContract:
    iface: Interface
    designs: dict[str, MethodSpec]  # guard-free, one entry per interface method
    traces: ProtocolExpr

    def __hash__(self):
        return id(self)


@record(frozen=True)
class Publication:
    name: str
    provided: PublicationContract
    required: PublicationContract | None
    causal: ProtocolExpr


@record
class Model:
    """Resolved declarations, with lookup by name per declaration kind."""

    types: dict[str, TypeDecl] = field(default_factory=dict)
    interfaces: dict[str, Interface] = field(default_factory=dict)
    contracts: dict[str, Contract] = field(default_factory=dict)
    components: dict[str, Component] = field(default_factory=dict)
    publications: dict[str, Publication] = field(default_factory=dict)
    architectures: dict[str, syntax.ArchitectureDecl] = field(default_factory=dict)
    links: dict[str, syntax.LinkDecl] = field(default_factory=dict)


def _sig_from_decl(m: syntax.MethodDecl) -> MethodSig:
    return MethodSig(m.name, tuple(Param(p.name, p.type) for p in m.params), m.return_type)


def _spec_from_annot(annot: syntax.Annot | None) -> MethodSpec:
    if annot is None:
        return MethodSpec()
    return MethodSpec(annot.guard, annot.design or "", annot.pre, annot.post)


class _Resolver:
    def __init__(self, base: Model | None = None) -> None:
        self.diagnostics: list[Diagnostic] = []
        # a base model's tables are copied, and every name in them is claimed
        tables = vars(base) if base is not None else {}
        self.model = Model(**{kind: dict(table) for kind, table in tables.items()})
        self.names: dict[str, str] = {  # declared name -> kind ("types" -> "type", ...)
            name: kind[:-1] for kind, table in tables.items() for name in table}

    def error(self, span: Span | None, message: str, code: str, path: str = "") -> None:
        span = span or Span(1, 1, 0, 0)
        self.diagnostics.append(Diagnostic(ERROR, span, message, code, path))

    # -- declaration collection ------------------------------------------

    def claim_name(self, decl, kind: str, path: str) -> bool:
        if decl.name in self.names:
            self.error(decl.span, f"duplicate declaration of {decl.name!r}",
                       "duplicate-declaration", path)
            return False
        self.names[decl.name] = kind
        return True

    def resolve(self, trees: list[syntax.SyntaxTree]) -> Model | None:
        by_kind: dict[type, list[tuple[syntax.Declaration, str]]] = {}
        for tree in trees:
            for decl in tree.declarations:
                by_kind.setdefault(type(decl), []).append((decl, tree.path))

        type_decls = by_kind.get(syntax.TypeDecl, [])
        self._resolve_types(type_decls)
        self._resolve_interfaces(by_kind.get(syntax.InterfaceDecl, []))
        self._resolve_contracts(by_kind.get(syntax.ContractDecl, []))
        self._resolve_components(by_kind.get(syntax.ComponentDecl, []))
        self._resolve_publications(by_kind.get(syntax.PublicationDecl, []))
        for decl, path in by_kind.get(syntax.ArchitectureDecl, []):
            if self.claim_name(decl, "architecture", path):
                self.model.architectures[decl.name] = decl
        for decl, path in by_kind.get(syntax.LinkDecl, []):
            if self.claim_name(decl, "link", path):
                self.model.links[decl.name] = decl
        if any(d.severity == ERROR for d in self.diagnostics):
            return None
        return self.model

    def _resolve_types(self, decls) -> None:
        seen: dict[str, syntax.TypeDecl | TypeDecl] = dict(self.model.types)
        for decl, path in decls:
            # identical re-declarations of a type are allowed so that
            # requirement units can be self-contained next to a catalog
            if decl.name in seen:
                if seen[decl.name].supertype != decl.supertype:
                    self.error(decl.span,
                               f"type {decl.name!r} redeclared with a different supertype",
                               "duplicate-declaration", path)
                continue
            if not self.claim_name(decl, "type", path):
                continue
            seen[decl.name] = decl
            self.model.types[decl.name] = TypeDecl(decl.name, decl.supertype)
        for decl, path in decls:
            if decl.supertype and decl.supertype not in self.model.types:
                self.error(decl.span, f"unknown supertype {decl.supertype!r}",
                           "unbound-name", path)
        # reject supertype cycles: each type's chain is walked until it meets a
        # type already settled, so every link is walked once
        cyclic: dict[str, bool] = {}  # settled type -> whether its chain cycles
        # each name's first declaration, and its unit
        first = {decl.name: (decl, path) for decl, path in reversed(decls)}
        for name in self.model.types:
            chain: dict[str, None] = {}
            cursor: str | None = name
            while cursor in self.model.types and cursor not in cyclic and cursor not in chain:
                chain[cursor] = None
                cursor = self.model.types[cursor].supertype
            verdict = cursor in chain or cyclic.get(cursor, False)
            cyclic.update(dict.fromkeys(chain, verdict))
            if cyclic[name]:
                decl, path = first[name]
                self.error(decl.span, f"cyclic supertype chain through {name!r}",
                           "cyclic-declaration", path)

    def _check_type_ref(self, type_name: str, span: Span, path: str) -> None:
        if type_name not in self.model.types:
            self.error(span, f"unknown type {type_name!r}", "unbound-name", path)

    def _resolve_interfaces(self, decls) -> None:
        nodes: dict[str, tuple[syntax.InterfaceDecl, str]] = {}
        for decl, path in decls:
            if self.claim_name(decl, "interface", path):
                nodes[decl.name] = (decl, path)

        names: dict[str, set[str]] = {}  # of each interface built, until a link extends it
        for name in nodes:
            # the unbuilt interfaces down the extends links from `name`, built base-first
            chain: dict[str, None] = {}
            cursor = name
            while cursor in nodes and cursor not in self.model.interfaces and cursor not in chain:
                chain[cursor] = None
                cursor = nodes[cursor][0].extends
            base = self.model.interfaces.get(cursor)
            if cursor in chain:
                decl, path = nodes[cursor]
                self.error(decl.span, f"cyclic extends chain through {cursor!r}",
                           "cyclic-declaration", path)
            elif cursor is not None and base is None:
                decl, path = nodes[next(reversed(chain))]
                self.error(decl.span, f"unknown base interface {cursor!r}", "unbound-name", path)
            for link in reversed(chain):
                base = self._build_interface(*nodes[link], base, names)

    def _build_interface(self, decl: syntax.InterfaceDecl, path: str,
                         base: Interface | None, names: dict[str, set[str]]) -> Interface:
        fields: list[Field] = []
        field_names: set[str] = set()
        for f in decl.fields:
            if f.name in field_names:
                self.error(f.span, f"duplicate field {f.name!r}", "duplicate-member", path)
                continue
            field_names.add(f.name)
            self._check_type_ref(f.type, f.span, path)
            fields.append(Field(f.name, f.type))

        methods: list[MethodSig] = []
        method_names = set() if base is None else \
            names.pop(base.name, None) or set(base.method_names())
        for m in decl.methods:
            if m.name in method_names:  # inherited or declared above
                self.error(m.span, f"duplicate method {m.name!r}", "duplicate-member", path)
                continue
            method_names.add(m.name)
            param_names = set()
            for p in m.params:
                if p.name in param_names:
                    self.error(p.span, f"duplicate parameter {p.name!r}",
                               "duplicate-member", path)
                param_names.add(p.name)
                self._check_type_ref(p.type, p.span, path)
            if m.return_type is not None:
                self._check_type_ref(m.return_type, m.span, path)
            methods.append(_sig_from_decl(m))

        iface = Interface(decl.name, tuple(fields), tuple(methods), base)
        self.model.interfaces[decl.name] = iface
        names[decl.name] = method_names
        return iface

    def _resolve_contracts(self, decls) -> None:
        for decl, path in decls:
            if not self.claim_name(decl, "contract", path):
                continue
            iface = self.model.interfaces.get(decl.implements)
            if iface is None:
                self.error(decl.span, f"unknown interface {decl.implements!r}",
                           "unbound-name", path)
                continue
            sigs = {m.name: m for m in iface.all_methods()}
            phi = {name: MethodSpec() for name in sigs}
            ok = True
            for m in decl.methods:
                sig = _sig_from_decl(m)
                if m.name not in sigs:
                    self.error(m.span, f"{m.name!r} is not a method of {iface.name!r}",
                               "unbound-name", path)
                    ok = False
                    continue
                if sigs[m.name] != sig:
                    self.error(m.span,
                               f"signature of {m.name!r} differs from "
                               f"{iface.name}.{sigs[m.name].render()}",
                               "signature-mismatch", path)
                    ok = False
                    continue
                phi[m.name] = _spec_from_annot(m.annot)
            if decl.protocol is not None:
                unknown = sorted(events(decl.protocol) - frozenset(sigs))
                if unknown:
                    self.error(decl.protocol_span or decl.span,
                               f"protocol uses unknown methods: {', '.join(unknown)}",
                               "unknown-event", path)
                    ok = False
            if ok:
                self.model.contracts[decl.name] = Contract(
                    decl.name, iface, decl.init, phi, decl.protocol,
                    complete=not decl.incomplete)

    def _component_parts(self, decl, path: str):
        """Shared resolution for component and publication declarations."""
        contract = self.model.contracts.get(decl.provided_contract)
        if contract is None:
            self.error(decl.span, f"unknown contract {decl.provided_contract!r}",
                       "unbound-name", path)
            return None
        internal = required = None
        if decl.internal_interface is not None:
            internal = self.model.interfaces.get(decl.internal_interface)
            if internal is None:
                self.error(decl.span, f"unknown interface {decl.internal_interface!r}",
                           "unbound-name", path)
                return None
        if decl.required_interface is not None:
            required = self.model.interfaces.get(decl.required_interface)
            if required is None:
                self.error(decl.span, f"unknown interface {decl.required_interface!r}",
                           "unbound-name", path)
                return None
        provided_names = contract.iface.method_names()
        internal_names = internal.method_names() if internal else frozenset()
        required_names = required.method_names() if required else frozenset()
        for label, a, b in (("provided/internal", provided_names, internal_names),
                            ("provided/required", provided_names, required_names),
                            ("internal/required", internal_names, required_names)):
            overlap = sorted(a & b)
            if overlap:
                self.error(decl.span,
                           f"{label} method names overlap: {', '.join(overlap)}",
                           "overlapping-methods", path)
                return None
        if decl.causal is not None:
            scope = provided_names | required_names
            unknown = sorted(events(decl.causal) - scope)
            if unknown:
                self.error(decl.causal_span or decl.span,
                           f"causal relation uses unknown methods: {', '.join(unknown)}",
                           "unknown-event", path)
                return None
        return contract, internal, required

    def _resolve_components(self, decls) -> None:
        for decl, path in decls:
            if not self.claim_name(decl, "component", path):
                continue
            parts = self._component_parts(decl, path)
            if parts is None:
                continue
            contract, internal, required = parts
            private = tuple((sig, MethodSpec()) for sig in internal.all_methods()) \
                if internal else ()
            self.model.components[decl.name] = Component(
                decl.name, GeneralContract(contract, private), required, internal, decl.causal)

    def _resolve_publications(self, decls) -> None:
        for decl, path in decls:
            if not self.claim_name(decl, "publication", path):
                continue
            parts = self._component_parts(decl, path)
            if parts is None:
                continue
            contract, _internal, required = parts
            guarded = sorted(name for name, spec in contract.phi.items() if spec.guard)
            if guarded:
                self.error(decl.span,
                           f"publication contract {contract.name!r} has guarded methods: "
                           f"{', '.join(guarded)}",
                           "guard-forbidden", path)
                continue
            if contract.prot is None:
                self.error(decl.span, "cannot publish without protocol", "missing-protocol", path)
                continue
            self.model.publications[decl.name] = _derive_publication(
                decl.name, contract, required, decl.causal)


def resolve(trees: list[syntax.SyntaxTree], base: Model | None = None,
            ) -> tuple[Model | None, list[Diagnostic]]:
    """Bind all names across `trees` and check the model invariants.

    With `base`, an already resolved model, `trees` are resolved on top of it:
    its declarations stay, and every name it declares is already taken.
    Returns (model, diagnostics); the model is None when any error was found.
    """
    resolver = _Resolver(base)
    model = resolver.resolve(trees)
    return model, resolver.diagnostics


# --- publication derivation ---------------------------------------------------

def _derive_publication(name: str, contract: Contract, required: Interface | None,
                        causal: ProtocolExpr | None) -> Publication:
    assert contract.prot is not None
    provided = PublicationContract(
        contract.iface,
        {m: spec.without_guard() for m, spec in contract.phi.items()},
        contract.prot)
    required_contract = None
    if required is not None:
        required_contract = PublicationContract(
            required,
            {m.name: MethodSpec() for m in required.all_methods()},
            universal_expr(required.method_names()))
    if causal is None:
        # weakest causal relation consistent with the projection condition:
        # interleave the provided protocol with the required one
        if required_contract is None:
            causal = provided.traces
        else:
            causal = Shuffle(provided.traces, required_contract.traces)
    return Publication(name, provided, required_contract, causal)


def publish(component: Component) -> Publication:
    """Derive the publication of `component`: strip guards, keep signatures.

    The component must carry a provided protocol; the causal relation defaults
    to the interleaving of the provided and required protocols.
    """
    contract = component.provided.base
    if contract.prot is None:
        raise ModelError(f"cannot publish without protocol: component {component.name!r}")
    return _derive_publication(component.name, contract, component.required, component.causal)


@record(frozen=True)
class ProjectionFailure:
    condition: str  # "provided" or "required"
    witness: tuple[str, ...]
    side: str  # "causal-projection" or "declared-protocol": who accepts the witness


@record(frozen=True)
class PublicationCheck:
    ok: bool
    failures: tuple[ProjectionFailure, ...] = ()


def validate_publication(pub: Publication,
                         state_limit: int = protocol.DEFAULT_STATE_LIMIT) -> PublicationCheck:
    """Check the causal-relation projection condition of a publication.

    PASS iff erasing non-provided methods from the causal relation yields the
    provided protocol, and (when a required contract exists) erasing
    non-required methods yields the required protocol.  Each failure carries a
    shortest witness word and the side that accepts it.
    """
    meth_i = pub.provided.iface.method_names()
    meth_j = pub.required.iface.method_names() if pub.required else frozenset()
    causal = protocol.compile(pub.causal, alphabet=meth_i | meth_j)
    failures: list[ProjectionFailure] = []

    def check(condition: str, keep: frozenset[str], traces: ProtocolExpr) -> None:
        projected = protocol.project(causal, keep, state_limit)
        declared = protocol.determinize(protocol.compile(traces, alphabet=keep), state_limit)
        res = protocol.equivalent(projected, declared, state_limit)
        if not res.holds:
            side = "causal-projection" if res.side == "left" else "declared-protocol"
            failures.append(ProjectionFailure(condition, res.witness, side))

    check("provided", meth_i, pub.provided.traces)
    if pub.required is not None:
        check("required", meth_j, pub.required.traces)
    return PublicationCheck(not failures, tuple(failures))
