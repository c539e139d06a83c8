"""Repository catalog: unit loading, architecture construction, the compiled
protocol index, and its cache file.

Compiling every component's protocols is the one-time cost paid when the
architecture changes; the cache file makes it pay once per change, with a
content hash to detect staleness.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path

from . import category, dsl, model, protocol
from .category import FunctorMapping, PseudoCategory
from .diagnostics import ERROR, Diagnostic, Span, has_errors
from .dsl import SourceUnit, syntax
from .matcher import Requirement
from .model import MethodSig, Model, Param
from .protocol import FiniteAutomaton

CACHE_MAGIC = "ARCHMATCH-IDX v2"


class CacheError(Exception):
    """The cache file is unreadable, corrupt, or of the wrong version."""


@dataclass
class Catalog:
    path: str
    unit_paths: list[str]  # as written in the catalog file
    units: tuple[SourceUnit, ...]
    trees: tuple[syntax.SyntaxTree, ...]
    architectures: dict[str, PseudoCategory] = field(default_factory=dict)
    links: dict[str, FunctorMapping] = field(default_factory=dict)
    source_hash: str = ""


@dataclass(frozen=True)
class IndexEntry:
    component: str
    interface_name: str
    methods: tuple[MethodSig, ...]
    provided_automaton: FiniteAutomaton


@dataclass
class CompiledIndex:
    entries: dict[str, IndexEntry]
    source_hash: str


def _zero_span() -> Span:
    return Span(1, 1, 0, 0)


def _file_error(message: str, path: str) -> Diagnostic:
    return Diagnostic(ERROR, _zero_span(), message, "missing-file", path)


def source_hash(units) -> str:
    """Stable content hash over the unit texts, in catalog order."""
    digest = hashlib.sha256()
    for unit in units:
        blob = unit.text.encode("utf-8")
        digest.update(str(len(blob)).encode("ascii"))
        digest.update(b"\n")
        digest.update(blob)
    return digest.hexdigest()


def read_catalog_file(path: str | Path) -> list[str]:
    """Unit paths from a catalog file: one per line, `#` comments allowed."""
    out = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def parse_units(paths: list[str | Path]) -> tuple[tuple[SourceUnit, ...],
                                                  tuple[syntax.SyntaxTree, ...],
                                                  list[Diagnostic]]:
    units: list[SourceUnit] = []
    trees: list[syntax.SyntaxTree] = []
    diagnostics: list[Diagnostic] = []
    for path in paths:
        p = Path(path)
        if not p.is_file():
            diagnostics.append(_file_error(f"no such unit file: {p}", str(p)))
            continue
        unit = SourceUnit(str(p), p.read_text(encoding="utf-8"))
        units.append(unit)
        tree, diags = dsl.parse_unit(unit)
        diagnostics.extend(diags)
        if tree is not None:
            trees.append(tree)
    return tuple(units), tuple(trees), diagnostics


def _build_architectures(m: Model) -> tuple[dict[str, PseudoCategory],
                                            dict[str, FunctorMapping],
                                            list[Diagnostic]]:
    diagnostics: list[Diagnostic] = []
    architectures: dict[str, PseudoCategory] = {}
    for name, decl in sorted(m.architectures.items()):
        cat, diags = category.build(decl, m)
        diagnostics.extend(diags)
        if cat is not None:
            architectures[name] = category.close(cat)
    links: dict[str, FunctorMapping] = {}
    for name, decl in sorted(m.links.items()):
        mapping, diags = category.build_functor(decl, architectures)
        diagnostics.extend(diags)
        if mapping is not None:
            links[name] = mapping
    return architectures, links, diagnostics


def _validate_publications(m: Model, state_limit: int) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []

    def report(name: str, check: model.PublicationCheck) -> None:
        for failure in check.failures:
            word = " ".join(failure.witness) if failure.witness else "(empty trace)"
            diagnostics.append(Diagnostic(
                ERROR, _zero_span(),
                f"publication {name!r} violates the causal projection condition on the "
                f"{failure.condition} side: {word!r} belongs only to the {failure.side}",
                "causal-projection"))

    for name, pub in sorted(m.publications.items()):
        report(name, model.validate_publication(pub, state_limit))
    # components with an explicit causal relation promise the projection
    # condition too; the synthesized default holds by construction
    for name, comp in sorted(m.components.items()):
        if comp.causal is None:
            continue
        try:
            pub = model.publish(comp)
        except model.ModelError as err:
            diagnostics.append(Diagnostic(ERROR, _zero_span(), str(err), "missing-protocol"))
            continue
        report(name, model.validate_publication(pub, state_limit))
    return diagnostics


def analyze(trees, state_limit: int = protocol.DEFAULT_STATE_LIMIT,
            ) -> tuple[Model | None, dict[str, PseudoCategory], dict[str, FunctorMapping],
                       list[Diagnostic]]:
    """Resolve trees, build and close architectures, validate publications."""
    m, diagnostics = model.resolve(list(trees))
    if m is None:
        return None, {}, {}, diagnostics
    architectures, links, diags = _build_architectures(m)
    diagnostics.extend(diags)
    diagnostics.extend(_validate_publications(m, state_limit))
    if has_errors(diagnostics):
        return None, {}, {}, diagnostics
    return m, architectures, links, diagnostics


def load(catalog_path: str | Path, state_limit: int = protocol.DEFAULT_STATE_LIMIT,
         ) -> tuple[Catalog | None, Model | None, list[Diagnostic]]:
    """Load a catalog file and everything it references.

    All units must parse and resolve, architectures must build, and every
    publication must satisfy the causal projection condition; otherwise the
    diagnostics list every failure and both results are None.
    """
    catalog_path = Path(catalog_path)
    if not catalog_path.is_file():
        return None, None, [_file_error(f"no such catalog: {catalog_path}",
                                        str(catalog_path))]
    unit_paths = read_catalog_file(catalog_path)
    resolved = [catalog_path.parent / p for p in unit_paths]
    units, trees, diagnostics = parse_units(resolved)
    if has_errors(diagnostics):
        return None, None, diagnostics
    m, architectures, links, diags = analyze(trees, state_limit)
    diagnostics.extend(diags)
    if m is None:
        return None, None, diagnostics
    catalog = Catalog(str(catalog_path), unit_paths, units, trees,
                      architectures, links, source_hash(units))
    return catalog, m, diagnostics


# --- compiled index -----------------------------------------------------------

def _minimal(auto: FiniteAutomaton, state_limit: int) -> FiniteAutomaton:
    return protocol.minimize(protocol.determinize(auto, state_limit))


def build_index(catalog: Catalog, m: Model,
                state_limit: int = protocol.DEFAULT_STATE_LIMIT) -> CompiledIndex:
    """Compile, determinize, and minimize every component's provided protocol.

    Deterministic: entries are keyed and processed in component-name order,
    and minimized automata are canonically numbered.
    """
    entries: dict[str, IndexEntry] = {}
    for name in sorted(m.components):
        comp = m.components[name]
        iface = comp.provided_interface
        provided_alphabet = iface.method_names()
        try:
            if comp.provided_protocol is None:
                provided = protocol.minimize(protocol.universal(provided_alphabet))
            else:
                pub = model.publish(comp)
                provided = _minimal(
                    protocol.compile(pub.provided.traces, alphabet=provided_alphabet),
                    state_limit)
        except protocol.ProtocolTooLarge as err:
            raise protocol.ProtocolTooLarge(
                f"component {name!r}: {err}") from err
        entries[name] = IndexEntry(name, iface.name, iface.all_methods(), provided)
    return CompiledIndex(entries, catalog.source_hash)


# --- cache persistence ----------------------------------------------------------

def _render_sig(sig: MethodSig) -> str:
    params = ",".join(f"{p.name}:{p.type}" for p in sig.params)
    ret = f":{sig.return_type}" if sig.return_type else ""
    return f"{sig.name}({params}){ret}"


def _parse_sig(text: str) -> MethodSig:
    open_i = text.find("(")
    close_i = text.rfind(")")
    if open_i < 0 or close_i < open_i:
        raise CacheError(f"corrupt cache: bad method signature {text!r}")
    name = text[:open_i]
    params = []
    body = text[open_i + 1:close_i]
    if body:
        for part in body.split(","):
            pname, _, ptype = part.partition(":")
            if not pname or not ptype:
                raise CacheError(f"corrupt cache: bad parameter {part!r}")
            params.append(Param(pname, ptype))
    rest = text[close_i + 1:]
    return_type = None
    if rest:
        if not rest.startswith(":"):
            raise CacheError(f"corrupt cache: bad return type {rest!r}")
        return_type = rest[1:]
    return MethodSig(name, tuple(params), return_type)


def save_cache(index: CompiledIndex, path: str | Path) -> None:
    """Write the index as a versioned, human-inspectable text file.

    The text goes to a temporary file in the same directory that then
    replaces `path`, so a failed write leaves any previous cache intact.
    """
    lines = [CACHE_MAGIC, f"hash: {index.source_hash}", f"components: {len(index.entries)}"]
    for name in sorted(index.entries):
        entry = index.entries[name]
        auto = entry.provided_automaton
        lines.append(f"component: {entry.component}")
        lines.append(f"interface: {entry.interface_name}")
        for sig in entry.methods:
            lines.append(f"method: {_render_sig(sig)}")
        lines.append("provided-alphabet: " + " ".join(sorted(auto.alphabet)))
        lines.append("provided-dfa:")
        lines.append(protocol.emit_dfa_text(auto).rstrip("\n"))
        lines.append("end-dfa")
        lines.append("end-component")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_cache(path: str | Path) -> CompiledIndex:
    """Read a cache file back; raises CacheError on any defect."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise CacheError(f"cannot read cache: {err}") from err
    lines = text.splitlines()
    if not lines or lines[0] != CACHE_MAGIC:
        raise CacheError(f"unsupported cache version (expected {CACHE_MAGIC})")

    def take(i: int, prefix: str) -> tuple[str, int]:
        if i >= len(lines) or not lines[i].startswith(prefix):
            found = lines[i] if i < len(lines) else "end of file"
            raise CacheError(f"corrupt cache: expected {prefix!r}, found {found!r}")
        return lines[i][len(prefix):].strip(), i + 1

    hash_value, i = take(1, "hash:")
    count_text, i = take(i, "components:")
    try:
        count = int(count_text)
    except ValueError as err:
        raise CacheError(f"corrupt cache: bad component count {count_text!r}") from err

    entries: dict[str, IndexEntry] = {}
    for _ in range(count):
        name, i = take(i, "component:")
        iface_name, i = take(i, "interface:")
        methods = []
        while i < len(lines) and lines[i].startswith("method:"):
            sig_text, i = take(i, "method:")
            methods.append(_parse_sig(sig_text))
        alphabet_text, i = take(i, "provided-alphabet:")
        _, i = take(i, "provided-dfa:")
        dfa_lines = []
        while i < len(lines) and lines[i] != "end-dfa":
            dfa_lines.append(lines[i])
            i += 1
        if i >= len(lines):
            raise CacheError("corrupt cache: unterminated dfa block")
        i += 1  # end-dfa
        try:
            provided = protocol.parse_dfa_text(
                "\n".join(dfa_lines), alphabet=frozenset(alphabet_text.split()))
        except ValueError as err:
            raise CacheError(f"corrupt cache: {err}") from err
        _, i = take(i, "end-component")
        entries[name] = IndexEntry(name, iface_name, tuple(methods), provided)
    return CompiledIndex(entries, hash_value)


def default_cache_path(catalog_path: str | Path) -> Path:
    return Path(str(catalog_path) + ".idx")


def load_index(catalog: Catalog, m: Model, cache_path: str | Path | None = None,
               use_cache: bool = True,
               state_limit: int = protocol.DEFAULT_STATE_LIMIT,
               ) -> tuple[CompiledIndex, str]:
    """The index for a loaded catalog, from cache when fresh.

    Returns (index, origin) with origin "cache" or "built".  A missing,
    corrupt, version-mismatched, or stale cache is silently rebuilt and the
    cache file refreshed.
    """
    path = default_cache_path(catalog.path) if cache_path is None else Path(cache_path)
    if use_cache and path.is_file():
        try:
            cached = load_cache(path)
            if cached.source_hash == catalog.source_hash:
                return cached, "cache"
        except CacheError:
            pass
    index = build_index(catalog, m, state_limit)
    if use_cache:
        save_cache(index, path)
    return index, "built"


# --- requirement loading ---------------------------------------------------------

def load_requirement(path: str | Path, catalog: Catalog, m: Model,
                     ) -> tuple[Requirement | None, Model | None, list[Diagnostic]]:
    """Read a requirement unit and resolve it against the catalog.

    The unit must declare exactly one interface; a contract in the same unit
    implementing it contributes the required protocol.  A unit already listed
    in the catalog is looked up instead of re-resolved, so catalog units can
    double as requirement queries.
    """
    path = Path(path)
    if not path.is_file():
        return None, None, [_file_error(f"no such requirement file: {path}", str(path))]
    text = path.read_text(encoding="utf-8")
    known = {unit.text: tree for unit, tree in zip(catalog.units, catalog.trees)}
    if text in known:
        tree = known[text]
        merged = m
        diagnostics: list[Diagnostic] = []
    else:
        unit = SourceUnit(str(path), text)
        tree, diagnostics = dsl.parse_unit(unit)
        if tree is None:
            return None, None, diagnostics
        merged, diags = model.resolve(list(catalog.trees) + [tree])
        diagnostics = diagnostics + diags
        if merged is None:
            return None, None, diagnostics

    interfaces = [d for d in tree.declarations if isinstance(d, syntax.InterfaceDecl)]
    if len(interfaces) != 1:
        return None, None, diagnostics + [Diagnostic(
            ERROR, _zero_span(),
            f"a requirement unit must declare exactly one interface, found {len(interfaces)}",
            "bad-requirement", str(path))]
    iface = merged.interfaces[interfaces[0].name]
    contracts = [d for d in tree.declarations
                 if isinstance(d, syntax.ContractDecl) and d.implements == iface.name]
    required_protocol = None
    if contracts:
        required_protocol = merged.contracts[contracts[0].name].prot
    return Requirement(iface, required_protocol), merged, diagnostics
