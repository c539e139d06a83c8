"""Repository catalog: unit loading, architecture construction, the compiled
protocol index, and its cache file.

Compiling every component's protocols is the one-time cost paid when the
architecture changes; the cache file makes it pay once per change, with a
content hash of the unit texts to detect staleness. The cache file is the magic
line `ARCHMATCH-IDX v8`, then one sorted-key JSON document. Besides the compiled
components, each with the printed protocol its DFA was built from, it holds
what a query needs of the catalog: its types, every non-type name it declares,
and the state limit its load and build succeeded under; and the keys of the
publication checks that passed. `load_match` reads the catalog, its units, the
requirement and the cache once, and decodes the cache at most once. A fresh
cache then answers `match` alone, without lexing, parsing or resolving a
catalog unit or checking a publication. The catalog is loaded instead when the
cache is missing, stale, corrupt, of another version (`v1` to `v7`) or built
under a higher state limit (these three are rebuilt), when a file cannot be
read, and when the requirement is a catalog unit, declares anything but types,
interfaces and contracts, extends or implements an interface it does not
declare, or redeclares a name the catalog gives a non-type.

A stale cache that decodes cleanly and was built under a state limit no higher
than the current one is the rebuild's `Memo`: a DFA or a passed publication
check whose key, the printed expressions and alphabets it was computed from, is
unchanged is taken from it instead of recomputed (the verifying traces of
Mokhov, Mitchell and Peyton Jones, "Build Systems à la Carte", ICFP 2018).
`index build` builds from the units alone.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

from . import dsl, model, protocol
from .diagnostics import ERROR, Diagnostic, Span, has_errors
from .dsl import SourceUnit, syntax
from .matcher import Requirement
from .model import MethodSig, Model, Param, TypeDecl
from .protocol import FiniteAutomaton
from .records import field, record

if TYPE_CHECKING:  # `category` is imported by the commands that build architectures
    from .category import FunctorMapping, PseudoCategory

# The first line of a cache file. Bump it whenever build_index could give
# different output for the same source (for example after a change to compile,
# determinize or minimize), or its recorded state_limit, an entry's `protocol`
# or a `checked` key could mean something else, so that older caches are
# rejected and rebuilt without lending a rebuild their automata or checks.
CACHE_MAGIC = "ARCHMATCH-IDX v8"

# the Model tables whose names a requirement may not redeclare
_NON_TYPES = ("interfaces", "contracts", "components", "publications", "architectures", "links")


class CacheError(Exception):
    """The cache file is unreadable, corrupt, or of the wrong version."""


@record
class Catalog:
    path: str
    units: tuple[SourceUnit, ...]
    trees: tuple[syntax.SyntaxTree, ...]
    architectures: dict[str, PseudoCategory] = field(default_factory=dict)
    links: dict[str, FunctorMapping] = field(default_factory=dict)
    source_hash: str = ""
    checked: frozenset[tuple[str, ...]] = frozenset()  # keys of its publication checks


@record(frozen=True)
class IndexEntry:
    component: str
    methods: tuple[MethodSig, ...]
    provided_automaton: FiniteAutomaton
    protocol: str = ""  # the printed provided protocol the automaton was built from


@record
class CompiledIndex:
    entries: dict[str, IndexEntry]
    source_hash: str
    types: dict[str, TypeDecl]
    names: tuple[str, ...]  # every non-type name the catalog declares, sorted
    state_limit: int  # the load and the build succeeded under it
    checked: frozenset[tuple[str, ...]] = frozenset()  # keys of the publication checks


@record
class Memo:
    """Results a build takes instead of computing them, by content key, and
    how many it took.

    `automata` maps a printed protocol and its alphabet to the minimal DFA
    compiled from them, and `checked` holds the keys of publication checks
    that passed (`_check_key`). Equal keys give equal results: printing is
    injective, and minimal DFAs are canonically numbered. Both hold for any
    state limit at least the one they were computed under: a state limit only
    turns a result into ProtocolTooLarge.
    """

    automata: dict[tuple[str, frozenset[str]], FiniteAutomaton] = field(default_factory=dict)
    checked: frozenset[tuple[str, ...]] = frozenset()
    state_limit: int = 0  # what it holds was computed under this limit
    passed: set[tuple[str, ...]] = field(default_factory=set)  # keys this build's checks passed
    checks: int = 0  # publication checks this build asked for
    reused_checks: int = 0
    reused_automata: int = 0


class StaleCache(CacheError):
    """The cache is of other unit texts; `memo` holds its automata and passed
    checks, or is None when the rest of the cache is defective."""

    def __init__(self, memo: Memo | None):
        super().__init__("stale")
        self.memo = memo


def _zero_span() -> Span:
    return Span(1, 1, 0, 0)


def _file_error(message: str, path: str, code: str = "missing-file") -> Diagnostic:
    return Diagnostic(ERROR, _zero_span(), message, code, path)


def _read_text(path: Path, what: str, texts: dict[Path, str] | None = None,
               ) -> tuple[str | None, list[Diagnostic]]:
    """The text of a UTF-8 file, or None and one error naming it.  `texts`
    keeps the texts read, by path, and answers a path it already holds."""
    texts = {} if texts is None else texts
    if path in texts:
        return texts[path], []
    if not path.is_file():
        return None, [_file_error(f"no such {what}: {path}", str(path))]
    try:
        texts[path] = path.read_text(encoding="utf-8")
        return texts[path], []
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        return None, [_file_error(f"cannot read {what} {path}: {reason}", str(path),
                                  "unreadable-file")]


def _unit_paths(catalog_text: str) -> list[str]:
    # one unit path per line; blank lines and `#` comments are skipped
    return [line for line in map(str.strip, catalog_text.splitlines())
            if line and not line.startswith("#")]


def read_unit_texts(catalog_path: Path, texts: dict[Path, str] | None = None,
                    ) -> list[str] | None:
    """The catalog's unit texts in catalog order, or None when the catalog or a
    unit cannot be read; each text read is kept in `texts`."""
    text, _ = _read_text(catalog_path, "catalog", texts)
    units = None if text is None else [
        _read_text(catalog_path.parent / p, "unit file", texts)[0] for p in _unit_paths(text)]
    return None if units is None or None in units else units


def source_hash(texts) -> str:
    """Stable content hash over the unit texts, in catalog order."""
    digest = hashlib.sha256()
    for text in texts:
        blob = text.encode("utf-8")
        digest.update(str(len(blob)).encode("ascii"))
        digest.update(b"\n")
        digest.update(blob)
    return digest.hexdigest()


def parse_units(paths: list[str | Path], texts: dict[Path, str] | None = None,
                ) -> tuple[tuple[SourceUnit, ...], tuple[syntax.SyntaxTree, ...],
                           list[Diagnostic]]:
    units: list[SourceUnit] = []
    trees: list[syntax.SyntaxTree] = []
    diagnostics: list[Diagnostic] = []
    for path in map(Path, paths):
        text, diags = _read_text(path, "unit file", texts)
        diagnostics.extend(diags)
        if text is None:
            continue
        unit = SourceUnit(str(path), text)
        units.append(unit)
        tree, diags = dsl.parse_unit(unit)
        diagnostics.extend(diags)
        if tree is not None:
            trees.append(tree)
    return tuple(units), tuple(trees), diagnostics


def _build_architectures(m: Model) -> tuple[dict[str, PseudoCategory],
                                            dict[str, FunctorMapping],
                                            list[Diagnostic]]:
    from . import category
    diagnostics: list[Diagnostic] = []
    architectures: dict[str, PseudoCategory] = {}
    for name, decl in sorted(m.architectures.items()):
        cat, diags = category.build(decl, m)
        diagnostics.extend(diags)
        if cat is not None:
            architectures[name] = cat
    links: dict[str, FunctorMapping] = {}
    for name, decl in sorted(m.links.items()):
        mapping, diags = category.build_functor(decl, architectures)
        diagnostics.extend(diags)
        if mapping is not None:
            links[name] = mapping
    return architectures, links, diagnostics


def _check_key(pub: model.Publication) -> tuple[str, ...]:
    """All that `model.validate_publication` reads of `pub`, printed: the
    causal relation, then each side's traces and sorted alphabet."""
    key = (dsl.format_protocol(pub.causal),)
    for side in (pub.provided, pub.required):
        if side is not None:
            key += (dsl.format_protocol(side.traces), " ".join(sorted(side.iface.method_names())))
    return key


def _validate_publications(m: Model, state_limit: int,
                           memo: Memo | None = None) -> list[Diagnostic]:
    """The diagnostics of every publication check; with a `memo`, a check whose
    key it holds is taken as passed, and each check that passes adds its key
    to `memo.passed`."""
    diagnostics: list[Diagnostic] = []

    def report(kind: str, name: str, pub: model.Publication) -> None:
        if memo is not None:
            key = _check_key(pub)
            memo.checks += 1
            if key in memo.checked:
                memo.reused_checks += 1
                memo.passed.add(key)
                return
        try:
            check = model.validate_publication(pub, state_limit)
        except protocol.ProtocolTooLarge as err:
            raise protocol.ProtocolTooLarge(f"{kind} {name!r}: {err}") from err
        if check.ok and memo is not None:
            memo.passed.add(key)
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


def analyze(trees, state_limit: int = protocol.DEFAULT_STATE_LIMIT, memo: Memo | None = None,
            ) -> tuple[Model | None, dict[str, PseudoCategory], dict[str, FunctorMapping],
                       list[Diagnostic]]:
    """Resolve trees, build architectures, validate publications (taking and
    recording checks in `memo`, if given)."""
    m, diagnostics = model.resolve(list(trees))
    if m is None:
        return None, {}, {}, diagnostics
    architectures, links, diags = _build_architectures(m)
    diagnostics.extend(diags)
    diagnostics.extend(_validate_publications(m, state_limit, memo))
    if has_errors(diagnostics):
        return None, {}, {}, diagnostics
    return m, architectures, links, diagnostics


def load(catalog_path: str | Path, state_limit: int = protocol.DEFAULT_STATE_LIMIT,
         texts: dict[Path, str] | None = None, memo: Memo | None = None,
         ) -> tuple[Catalog | None, Model | None, list[Diagnostic]]:
    """Load a catalog file and everything it references; a file whose path is
    in `texts` is taken from there instead of read, and a publication check
    whose key is in `memo` is taken as passed.

    All units must parse and resolve, architectures must build, and every
    publication must satisfy the causal projection condition; otherwise the
    diagnostics list every failure and both results are None.
    """
    catalog_path = Path(catalog_path)
    text, diagnostics = _read_text(catalog_path, "catalog", texts)
    if text is None:
        return None, None, diagnostics
    resolved = [catalog_path.parent / p for p in _unit_paths(text)]
    units, trees, diagnostics = parse_units(resolved, texts)
    if has_errors(diagnostics):
        return None, None, diagnostics
    memo = Memo() if memo is None else memo
    m, architectures, links, diags = analyze(trees, state_limit, memo)
    diagnostics.extend(diags)
    if m is None:
        return None, None, diagnostics
    catalog = Catalog(str(catalog_path), units, trees, architectures, links,
                      source_hash(unit.text for unit in units), frozenset(memo.passed))
    return catalog, m, diagnostics


# --- compiled index -----------------------------------------------------------

def build_index(catalog: Catalog, m: Model, state_limit: int = protocol.DEFAULT_STATE_LIMIT,
                memo: Memo | None = None) -> CompiledIndex:
    """Compile, determinize, and minimize every component's provided protocol,
    or take its minimal DFA from `memo`.

    Deterministic: entries are keyed and processed in component-name order,
    and minimized automata are canonically numbered.
    """
    memo = Memo() if memo is None else memo
    entries: dict[str, IndexEntry] = {}
    for name in sorted(m.components):
        comp = m.components[name]
        iface = comp.provided_interface
        provided_alphabet = iface.method_names()
        expr = comp.provided_protocol
        if expr is None:
            expr = protocol.universal_expr(provided_alphabet)
        text = dsl.format_protocol(expr)
        provided = memo.automata.get((text, provided_alphabet))
        if provided is not None:
            memo.reused_automata += 1
        else:
            try:
                provided = protocol.minimize(protocol.determinize(
                    protocol.compile(expr, alphabet=provided_alphabet), state_limit))
            except protocol.ProtocolTooLarge as err:
                raise protocol.ProtocolTooLarge(f"component {name!r}: {err}") from err
        entries[name] = IndexEntry(name, iface.all_methods(), provided, text)
    return CompiledIndex(entries, catalog.source_hash, dict(m.types),
                         tuple(sorted(name for kind in _NON_TYPES for name in vars(m)[kind])),
                         state_limit, catalog.checked)


# --- cache persistence ----------------------------------------------------------

def _entry_json(entry: IndexEntry) -> dict:
    auto = entry.provided_automaton  # minimized, so its states are 0..n-1
    return {
        "methods": [[sig.name, [[p.name, p.type] for p in sig.params], sig.return_type]
                    for sig in entry.methods],
        "dfa": {"alphabet": sorted(auto.alphabet), "states": len(auto.states),
                "start": auto.start, "accept": sorted(auto.accepting),
                "transitions": [list(t) for t in sorted(auto.transitions)]},
        "protocol": entry.protocol,
    }


def _catalog_json(index: CompiledIndex) -> dict:
    return {"types": [[t.name, t.supertype] for t in index.types.values()],
            "names": list(index.names), "state_limit": index.state_limit,
            "checked": [list(key) for key in sorted(index.checked)]}


def save_cache(index: CompiledIndex, path: str | Path) -> None:
    """Write the index to a temporary file in the same directory that then
    replaces `path`, so a failed write leaves any previous cache intact."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    # json.dumps's text, an entry at a time: the encoder keeps every piece until it joins them
    components = ",".join(f"{encode(name)}:{encode(_entry_json(index.entries[name]))}"
                          for name in sorted(index.entries))
    fields = _catalog_json(index)
    checked = encode(fields.pop("checked"))  # the other fields' keys all sort after "hash"
    text = (f'{CACHE_MAGIC}\n{{"checked":{checked},"components":{{{components}}},'
            f'"hash":{encode(index.source_hash)},{encode(fields)[1:]}\n')
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
    # one string per symbol: JSON decodes each occurrence into a string of its own
    symbols = {sym: sym for sym in map(str, dfa["alphabet"])}
    transitions = frozenset((_int(s), symbols.get(sym, str(sym)), _int(t))
                            for s, sym, t in dfa["transitions"])
    count = _int(dfa["states"])
    if count > len(transitions) + 1:  # a minimized DFA reaches every state
        raise ValueError(f"{count} states but {len(transitions)} transitions")
    auto = FiniteAutomaton(frozenset(range(count)), frozenset(symbols),
                           transitions, _int(dfa["start"]), frozenset(map(_int, dfa["accept"])))
    methods = tuple(MethodSig(str(method), tuple(Param(str(p), str(t)) for p, t in params),
                              None if ret is None else str(ret))
                    for method, params, ret in comp["methods"])
    entry = IndexEntry(name, methods, auto, str(comp["protocol"]))
    # str() leaves a value of another type unequal, as are extra or reordered items
    if _entry_json(entry) != comp:
        raise ValueError(f"component {name!r} differs from what this version writes")
    return entry


def _catalog_from_json(doc: dict) -> dict:
    """The CompiledIndex fields besides entries and hash, from a cache document."""
    fields = {
        "types": {str(n): TypeDecl(str(n), s if s is None else str(s)) for n, s in doc["types"]},
        "names": tuple(map(str, doc["names"])), "state_limit": _int(doc["state_limit"]),
        "checked": frozenset(tuple(map(str, key)) for key in doc["checked"])}
    written = _catalog_json(CompiledIndex({}, "", **fields))
    # the sorted set of keys drops a duplicated or out-of-order key
    if set(doc) != {"components", "hash", *written} or \
            written != {key: doc[key] for key in written} or fields["state_limit"] < 1 or \
            written["names"] != sorted(set(written["names"])):
        raise ValueError("the top-level fields differ from what this version writes")
    return fields


# what decoding a cache document that this version did not write can raise
_DEFECTIVE = (AttributeError, KeyError, TypeError, ValueError, RecursionError)


def _memo_from_json(doc: dict) -> Memo | None:
    """The automata and passed checks of a cache document, or None when it is
    defective. Each component's JSON is dropped once decoded."""
    try:
        fields = _catalog_from_json(doc)
        automata = {}
        components = doc["components"]
        for name in list(components.keys()):  # keys(), like items(), rejects a list
            entry = _entry_from_json(name, components.pop(name))
            automata[entry.protocol, entry.provided_automaton.alphabet] = \
                entry.provided_automaton
    except _DEFECTIVE:
        return None
    return Memo(automata, fields["checked"], fields["state_limit"])


def load_cache(path: str | Path, source_hash: str | None = None) -> CompiledIndex:
    """Read a cache file; CacheError on any defect, or StaleCache if given
    another source_hash."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise CacheError(f"cannot read cache: {err}") from err
    magic, _, body = text.partition("\n")
    del text  # `body` is a copy of it: hold one copy while decoding
    if magic != CACHE_MAGIC:
        raise CacheError(f"unsupported cache version (expected {CACHE_MAGIC})")
    if not body.endswith("\n"):  # save_cache ends the file with a newline
        raise CacheError("corrupt cache: truncated")
    try:
        doc = json.loads(body)
        del body  # what is decoded next needs only the document
        if type(doc["hash"]) is not str:
            raise TypeError("the hash is not a string")
        if source_hash is not None and doc["hash"] != source_hash:
            raise StaleCache(_memo_from_json(doc))
        return CompiledIndex({name: _entry_from_json(name, comp)
                              for name, comp in doc["components"].items()}, doc["hash"],
                             **_catalog_from_json(doc))
    except _DEFECTIVE as err:
        raise CacheError(f"corrupt cache: {type(err).__name__}: {err}") from err


def default_cache_path(catalog_path: str | Path) -> Path:
    return Path(str(catalog_path) + ".idx")


# --- requirement loading ---------------------------------------------------------

def load_requirement(path: str | Path, catalog: Catalog, m: Model,
                     texts: dict[Path, str] | None = None,
                     tree: syntax.SyntaxTree | None = None,
                     ) -> tuple[Requirement | None, Model | None, list[Diagnostic]]:
    """Read a requirement unit (from `texts` if its path is there, already
    parsed into `tree` if given) and resolve it on top of the catalog's model.

    The unit must declare exactly one interface; a contract in the same unit
    implementing it contributes the required protocol.  A unit already listed
    in the catalog is looked up instead of re-resolved, so catalog units can
    double as requirement queries.
    """
    path = Path(path)
    text, diagnostics = _read_text(path, "requirement file", texts)
    if text is None:
        return None, None, diagnostics
    known = {unit.text: t for unit, t in zip(catalog.units, catalog.trees)}
    if text in known:
        return _requirement(path, known[text], m, diagnostics)
    if tree is None:
        tree, diagnostics = dsl.parse_unit(SourceUnit(str(path), text))
        if tree is None:
            return None, None, diagnostics
    # names are claimed kind by kind, so a requirement declaration of a name
    # the catalog gives a non-type may take it from the catalog declaration:
    # only the whole resolve reports that clash as it is
    if any(decl.name in vars(m)[kind] for decl in tree.declarations for kind in _NON_TYPES):
        merged, diags = model.resolve(list(catalog.trees) + [tree])
    else:
        merged, diags = model.resolve([tree], base=m)
    return _requirement(path, tree, merged, diagnostics + diags)


def _cached_requirement(path: Path, tree: syntax.SyntaxTree, index: CompiledIndex,
                        ) -> tuple[Requirement | None, Model | None, list[Diagnostic]] | None:
    """What load_requirement gives on the whole catalog, from the requirement's
    `tree` resolved on the cached types alone; None when the catalog is needed
    (see the module docstring)."""
    own = {None} | {d.name for d in tree.declarations if isinstance(d, syntax.InterfaceDecl)}
    taken = frozenset(index.names)
    if not all(isinstance(d, (syntax.TypeDecl, syntax.InterfaceDecl, syntax.ContractDecl))
               and getattr(d, "extends", None) in own and getattr(d, "implements", None) in own
               and d.name not in taken for d in tree.declarations):
        return None
    merged, diagnostics = model.resolve([tree], base=Model(types=dict(index.types)))
    return _requirement(path, tree, merged, diagnostics)


def load_match(catalog_path: str | Path, requirement_path: str | Path,
               cache_path: str | Path | None = None,
               state_limit: int = protocol.DEFAULT_STATE_LIMIT,
               ) -> tuple[Requirement | None, Model | None, CompiledIndex | None, str | None,
                          str | None, list[Diagnostic]]:
    """(requirement, merged model, index, origin, reason, diagnostics): what
    `match` loads, reading each file once and decoding the cache at most once.

    A fresh cache answers alone when it can (see the module docstring);
    otherwise the catalog is loaded from the texts already read and the
    requirement resolved on it. The index is the cache when it is usable, with
    origin "cache" and reason None. Else it is built and saved, with origin
    "built" and the reason: "missing", "stale", the CacheError message or that
    the cache was built under a higher state limit, followed by "; cannot write
    cache: ..." if the new cache could not be saved. When the catalog or the
    requirement fails to load, all but the diagnostics are None.
    """
    catalog_path, requirement_path = Path(catalog_path), Path(requirement_path)
    texts: dict[Path, str] = {}
    units = read_unit_texts(catalog_path, texts)
    req_text, _ = _read_text(requirement_path, "requirement file", texts)
    path = default_cache_path(catalog_path) if cache_path is None else Path(cache_path)
    index, memo, reason = None, None, "missing"
    if units is not None and req_text is not None and path.exists():
        try:
            index = load_cache(path, source_hash(units))
        except StaleCache as err:
            reason = str(err)
            if err.memo is not None and err.memo.state_limit <= state_limit:
                memo = err.memo
        except CacheError as err:
            reason = str(err)
        if index is not None and index.state_limit > state_limit:
            index, reason = None, f"cache built under a higher state limit ({index.state_limit})"
    loaded, tree = None, None
    if index is not None and req_text not in units:
        tree, diagnostics = dsl.parse_unit(SourceUnit(str(requirement_path), req_text))
        loaded = (None, None, diagnostics) if tree is None else \
            _cached_requirement(requirement_path, tree, index)
    if loaded is None:  # the full load, on the texts read
        catalog, m, diagnostics = load(catalog_path, state_limit, texts, memo)
        if catalog is None:  # else there are no diagnostics
            return None, None, None, None, None, diagnostics
        loaded = load_requirement(requirement_path, catalog, m, texts, tree)
    req, merged, diagnostics = loaded
    if req is None:
        return None, None, None, None, None, diagnostics
    if index is not None:
        return req, merged, index, "cache", None, diagnostics
    index = build_index(catalog, m, state_limit, memo)  # an unusable cache took the full load
    if memo is not None:
        reason += (f"; reused {memo.reused_automata} of {len(index.entries)} automata, "
                   f"{memo.reused_checks} of {memo.checks} publication checks")
    try:
        save_cache(index, path)
    except OSError as err:  # the index is built; only later queries lose the cache
        reason += f"; cannot write cache: {err.strerror or err}"
    return req, merged, index, "built", reason, diagnostics


def _requirement(path: Path, tree: syntax.SyntaxTree | None, merged: Model | None,
                 diagnostics: list[Diagnostic],
                 ) -> tuple[Requirement | None, Model | None, list[Diagnostic]]:
    """The requirement `tree` declares, resolved into `merged` (None: it failed)."""
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
