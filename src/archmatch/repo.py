"""Repository catalog: unit loading, architecture construction, the compiled
protocol index, and its cache file.

Compiling every component's protocols is the one-time cost paid when the
architecture changes; the cache file makes it pay once per change, with a
content hash to detect staleness. The cache file is a magic line, then one
sorted-key JSON document.
"""

from __future__ import annotations

import hashlib
import json
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

# The first line of a cache file. Bump it whenever build_index could give
# different output for the same source (for example after a change to compile,
# determinize or minimize), so that older caches are rejected and rebuilt.
CACHE_MAGIC = "ARCHMATCH-IDX v4"


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

    def report(kind: str, name: str, pub: model.Publication) -> None:
        try:
            check = model.validate_publication(pub, state_limit)
        except protocol.ProtocolTooLarge as err:
            raise protocol.ProtocolTooLarge(f"{kind} {name!r}: {err}") from err
        for failure in check.failures:
            word = " ".join(failure.witness) if failure.witness else "(empty trace)"
            diagnostics.append(Diagnostic(
                ERROR, _zero_span(),
                f"publication {name!r} violates the causal projection condition on the "
                f"{failure.condition} side: {word!r} belongs only to the {failure.side}",
                "causal-projection"))

    for name, pub in sorted(m.publications.items()):
        report("publication", name, pub)
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
        report("component", name, pub)
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
                provided = protocol.minimize(protocol.determinize(
                    protocol.compile(comp.provided_protocol, alphabet=provided_alphabet),
                    state_limit))
        except protocol.ProtocolTooLarge as err:
            raise protocol.ProtocolTooLarge(f"component {name!r}: {err}") from err
        entries[name] = IndexEntry(name, iface.all_methods(), provided)
    return CompiledIndex(entries, catalog.source_hash)


# --- cache persistence ----------------------------------------------------------

def _entry_json(entry: IndexEntry) -> dict:
    auto = entry.provided_automaton  # minimized, so its states are 0..n-1
    return {
        "methods": [[sig.name, [[p.name, p.type] for p in sig.params], sig.return_type]
                    for sig in entry.methods],
        "dfa": {"alphabet": sorted(auto.alphabet), "states": len(auto.states),
                "start": auto.start, "accept": sorted(auto.accepting),
                "transitions": [list(t) for t in sorted(auto.transitions)]},
    }


def save_cache(index: CompiledIndex, path: str | Path) -> None:
    """Write the index to a temporary file in the same directory that then
    replaces `path`, so a failed write leaves any previous cache intact."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    # json.dumps's text, an entry at a time: the encoder keeps every piece until it joins them
    components = ",".join(f"{encode(name)}:{encode(_entry_json(index.entries[name]))}"
                          for name in sorted(index.entries))
    text = f'{CACHE_MAGIC}\n{{"components":{{{components}}},"hash":{encode(index.source_hash)}}}\n'
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _int(value) -> int:
    if type(value) is not int:  # == would take a JSON true or 1.0 for 1
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return value


def _entry_from_json(name: str, comp: dict) -> IndexEntry:
    dfa = comp["dfa"]
    transitions = frozenset((_int(s), str(sym), _int(t)) for s, sym, t in dfa["transitions"])
    count = _int(dfa["states"])
    if count > len(transitions) + 1:  # a minimized DFA reaches every state
        raise ValueError(f"{count} states but {len(transitions)} transitions")
    auto = FiniteAutomaton(frozenset(range(count)), frozenset(map(str, dfa["alphabet"])),
                           transitions, _int(dfa["start"]), frozenset(map(_int, dfa["accept"])),
                           deterministic=True)
    methods = tuple(MethodSig(str(method), tuple(Param(str(p), str(t)) for p, t in params),
                              None if ret is None else str(ret))
                    for method, params, ret in comp["methods"])
    entry = IndexEntry(name, methods, auto)
    # str() leaves a value of another type unequal, as are extra or reordered items
    if _entry_json(entry) != comp:
        raise ValueError(f"component {name!r} differs from what this version writes")
    return entry


def load_cache(path: str | Path, source_hash: str | None = None) -> CompiledIndex:
    """Read a cache file; CacheError on any defect, or "stale" if given another source_hash."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise CacheError(f"cannot read cache: {err}") from err
    magic, _, body = text.partition("\n")
    if magic != CACHE_MAGIC:
        raise CacheError(f"unsupported cache version (expected {CACHE_MAGIC})")
    if not body.endswith("\n"):  # save_cache ends the file with a newline
        raise CacheError("corrupt cache: truncated")
    try:
        doc = json.loads(body)
        if type(doc["hash"]) is not str:
            raise TypeError("the hash is not a string")
        if source_hash is not None and doc["hash"] != source_hash:
            raise CacheError("stale")
        return CompiledIndex({name: _entry_from_json(name, comp)
                              for name, comp in doc["components"].items()}, doc["hash"])
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as err:
        raise CacheError(f"corrupt cache: {type(err).__name__}: {err}") from err


def default_cache_path(catalog_path: str | Path) -> Path:
    return Path(str(catalog_path) + ".idx")


def load_index(catalog: Catalog, m: Model, cache_path: str | Path | None = None,
               state_limit: int = protocol.DEFAULT_STATE_LIMIT,
               ) -> tuple[CompiledIndex, str, str | None]:
    """(index, origin, reason) for a loaded catalog: "cache" and None from a fresh cache,
    else "built" and why the cache was rebuilt: "missing", "stale" or the CacheError message,
    followed by "; cannot write cache: ..." if the new cache could not be saved."""
    path = default_cache_path(catalog.path) if cache_path is None else Path(cache_path)
    reason = "missing"
    if path.exists():
        try:
            return load_cache(path, catalog.source_hash), "cache", None
        except CacheError as err:
            reason = str(err)
    index = build_index(catalog, m, state_limit)
    try:
        save_cache(index, path)
    except OSError as err:  # the index is built; only later queries lose the cache
        reason += f"; cannot write cache: {err.strerror or err}"
    return index, "built", reason


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
