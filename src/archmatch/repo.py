"""Repository catalog: unit loading, architecture construction, the compiled
protocol index, and its cache file.

Compiling every component's protocols is the one-time cost paid when the
architecture changes; the cache file makes it pay once per change, with a
content hash of the unit texts to detect staleness. The cache file is the magic
line `ARCHMATCH-IDX v12` with a CRC-32 of the rest of the file, then one
sorted-key JSON document. Besides the compiled components, each with the
shapes of its methods, it holds what a query needs of the catalog: its types,
every non-type name it declares, and the state limit its load and build
succeeded under; and one record per unit (`_unit_records`): its size and
times, from a stat taken before it was read, the SHA-256 of its text, what it
declares, whether it is self-contained, and the first unit that needs it. A
unit is self-contained when it declares no architecture or link and every
interface or contract it names (by `extends`, `implements`, `provided
contract`, `internal interface` or `required interface`) is its own; it is
needed when another unit names one of its declarations so.

`load_cache` reads a cache one way: it checks the checksum and every top-level
field, leaves every entry pending, and judges freshness from unit stats. It
reads and hashes the units only when their stats differ from the recorded ones
or a unit changed no earlier than the cache was written (git's racy-clean
rule). `reach` decodes the entries a caller needs: `index inspect` all, and
`match` those sharing a method shape (`sigmatch.shape`) with the requirement.

`Units` is the one reader of unit files. Every command that reads units,
and every step of one (the freshness check that hashes them, `_rederive`, the
full load, `check` and `protocol --unit`), takes a unit's text and tree from
it, so a unit is read at most once and parsed at most once per command.

`load_match` reads the catalog, the requirement and the cache once. A fresh
cache answers `match` alone, without lexing, parsing or resolving a catalog
unit or checking a publication. The catalog is loaded instead when the cache
is missing, stale, corrupt, of another version (`v1` to `v11`) or built under a
higher state limit (these three are rebuilt), when a file cannot be read, and
when the requirement is a catalog unit, declares anything but types,
interfaces and contracts, extends or implements an interface it does not
declare, or redeclares a name the catalog gives a non-type.

A stale cache built under a state limit no higher than the current one is
first offered to `_rederive`, which re-derives only the units whose text
changed and copies every other entry as its stale JSON, undecoded. It takes
a stale cache when the catalog lists the same units in the same order, each
changed unit was self-contained and not needed, parses without a diagnostic,
declares the same kinds, names and supertypes in the same order, is still
self-contained, resolves on the cached types and passes its checks within
the state limit; and when the cached types answer the requirement. It parses
only the changed units, and reads all it needs of the others from their unit
records: declarations of other units read nothing of a changed unit but
names, which stay, so what they derive stands. Otherwise the full load parses
and resolves every unit and builds as a cold build does, taking nothing from
the stale cache; a unit `_rederive` parsed before it refused is not parsed
again, as both take their trees from one `Units`. Both write the bytes a cold
build writes; a copied entry is trusted as a pending one is, behind the
checksum, and `reach` checks it when it decodes it. Only the two writers,
this build and `index build`, record the units, from the stats they took
before reading them. A build writes the cache file and nothing else: a
`<cache>.syntax` file that earlier versions wrote beside it is never read,
rewritten or removed.
"""

from __future__ import annotations

import json
import os
import stat
import zlib
from pathlib import Path
from typing import TYPE_CHECKING

from . import dsl, model, protocol
from .diagnostics import ERROR, Diagnostic, Span, has_errors
from .dsl import SourceUnit, syntax
from .matcher import Requirement
from .model import MethodSig, Model, Param, TypeDecl
from .protocol import FiniteAutomaton
from .records import field, record
from .sigmatch import TypeLattice, shape

if TYPE_CHECKING:  # `category` is imported by the commands that build architectures
    from .category import FunctorMapping, PseudoCategory

# The first line of a cache file, before its checksum. Bump it whenever
# build_index could give different output for the same source (for example
# after a change to compile, determinize or minimize), or its recorded
# state_limit, an entry's `shapes`, or a field of a unit record
# could mean something else, so that older caches are rejected and rebuilt
# cold, none of their entries copied.
CACHE_MAGIC = "ARCHMATCH-IDX v12"

# the Model tables whose names a requirement may not redeclare
_NON_TYPES = ("interfaces", "contracts", "components", "publications", "architectures", "links")

# each declaration's kind, as a unit record names it
_KINDS = {syntax.TypeDecl: "type", syntax.InterfaceDecl: "interface",
          syntax.ContractDecl: "contract", syntax.ComponentDecl: "component",
          syntax.PublicationDecl: "publication", syntax.ArchitectureDecl: "architecture",
          syntax.LinkDecl: "link"}
# the declaration fields that name an interface or a contract
_REFERENCES = ("extends", "implements", "provided_contract", "internal_interface",
               "required_interface")


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


@record(frozen=True)
class IndexEntry:
    component: str
    methods: tuple[MethodSig, ...]
    provided_automaton: FiniteAutomaton

    def all_methods(self) -> tuple[MethodSig, ...]:
        """The methods, as `Interface.all_methods` lists them: sigmatch matches an entry."""
        return self.methods


@record
class CompiledIndex:
    entries: dict[str, IndexEntry]
    source_hash: str
    types: dict[str, TypeDecl]
    names: tuple[str, ...]  # every non-type name the catalog declares, sorted
    state_limit: int  # the load and the build succeeded under it
    units: list[list] = field(default_factory=list, compare=False)  # `_unit_records` at the build
    # the cache JSON of the entries load_cache left for `reach` to decode, by component
    pending: dict[str, dict] = field(default_factory=dict, compare=False, repr=False)

    def size(self) -> int:
        """The number of components, decoded or not."""
        return len(self.entries) + len(self.pending)


def _zero_span() -> Span:
    return Span(1, 1, 0, 0)


def _file_error(message: str, path: str, code: str = "missing-file") -> Diagnostic:
    return Diagnostic(ERROR, _zero_span(), message, code, path)


def _read_text(path: Path, what: str) -> tuple[str | None, list[Diagnostic]]:
    """The text of a UTF-8 file, or None and one error naming it."""
    if not path.is_file():
        return None, [_file_error(f"no such {what}: {path}", str(path))]
    try:
        return path.read_text(encoding="utf-8"), []
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        return None, [_file_error(f"cannot read {what} {path}: {reason}", str(path),
                                  "unreadable-file")]


class Units:
    """The unit files at `paths` in `directory`, and their one reader. It takes
    the units' stats first, then reads a unit (`text`, by `_read_text`, which
    opens no file that is not a regular file: it may be a FIFO) and parses it
    (`parse`) when first asked, each at most once, as `Path(directory) / path`.

    `stats` holds `[path, size, mtime_ns, ctime_ns]` per unit, the path as
    given, or is None when a unit is missing or not a regular file.
    """

    def __init__(self, directory: str | Path, paths: list[str]):
        self.paths = paths
        self._directory = directory
        self._read: dict[int, tuple[str | None, list[Diagnostic]]] = {}  # by unit
        self._parsed: dict[int, tuple] = {}
        self.stats: list[list] | None = []
        for unit in paths:
            try:
                st = os.stat(os.path.join(directory, unit))
            except (OSError, ValueError):
                st = None
            if st is None or not stat.S_ISREG(st.st_mode):
                self.stats = None
                break
            self.stats.append([unit, st.st_size, st.st_mtime_ns, st.st_ctime_ns])

    @classmethod
    def listed(cls, catalog_path: str | Path, catalog_text: str) -> Units:
        """The units the catalog at `catalog_path` lists in `catalog_text`: one
        path per line, relative to the catalog's directory; blank lines and `#`
        comments are skipped."""
        return cls(Path(catalog_path).parent, [line for line in map(
            str.strip, catalog_text.splitlines()) if line and not line.startswith("#")])

    def _path(self, i: int) -> Path:
        return Path(self._directory) / self.paths[i]

    def text(self, i: int) -> str | None:
        """The text of unit `i`, or None when it cannot be read."""
        if i not in self._read:
            self._read[i] = _read_text(self._path(i), "unit file")
        return self._read[i][0]

    def parse(self, i: int) -> tuple[SourceUnit | None, syntax.SyntaxTree | None,
                                     list[Diagnostic]]:
        """Unit `i` and its tree (None when it cannot be read or does not
        parse), and the diagnostics: why it cannot be read, or its parse's."""
        if i not in self._parsed:
            text = self.text(i)
            unit = None if text is None else SourceUnit(str(self._path(i)), text)
            self._parsed[i] = (None, None, self._read[i][1]) if unit is None else \
                (unit, *dsl.parse_unit(unit))
        return self._parsed[i]

    def unchanged_since(self, records: list[list], written_ns: int) -> bool:
        """Do the stats show the units a cache written at `written_ns` (its
        mtime) recorded in `records`, without reading them? They must equal
        the recorded ones, and every unit must have changed before the cache
        was written: a unit changed in the tick the cache was written in may
        have changed again after it was read (git's racy-clean rule)."""
        return self.stats is not None and self.stats == [r[:4] for r in records] and \
            all(s[2] < written_ns and s[3] < written_ns for s in self.stats)

    def digest(self, i: int) -> str:
        """The SHA-256 of the text of unit `i`, which can be read, in hex: the
        digest its record holds."""
        import hashlib
        return hashlib.sha256(self.text(i).encode("utf-8")).hexdigest()

    def hash(self) -> str | None:
        """The source hash of the unit texts, or None when one cannot be read."""
        texts = [self.text(i) for i in range(len(self.paths))]
        return None if None in texts else source_hash(texts)

    def holds(self, text: str, size: int) -> bool:
        """Is `text`, `size` bytes in UTF-8, a unit's text? Reads only the
        units of that size on disk."""
        return any(s[1] == size and self.text(i) == text for i, s in enumerate(self.stats))


def source_hash(texts) -> str:
    """Stable content hash over the unit texts, in catalog order."""
    import hashlib  # 4-5 ms: a warm match whose unit stats are unchanged needs no hash
    digest = hashlib.sha256()
    for text in texts:
        blob = text.encode("utf-8")
        digest.update(str(len(blob)).encode("ascii"))
        digest.update(b"\n")
        digest.update(blob)
    return digest.hexdigest()


def parse_units(units: Units) -> tuple[tuple[SourceUnit, ...], tuple[syntax.SyntaxTree, ...],
                                       list[Diagnostic]]:
    """The `units` that can be read, the trees of those that parse, and the
    diagnostics, as `Units.parse` gives them."""
    parsed = [units.parse(i) for i in range(len(units.paths))]
    return (tuple(unit for unit, _, _ in parsed if unit is not None),
            tuple(tree for _, tree, _ in parsed if tree is not None),
            [d for _, _, diagnostics in parsed for d in diagnostics])


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


def _validate_publications(m: Model, state_limit: int) -> list[Diagnostic]:
    """The diagnostics of every publication check."""
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
    """Resolve trees, build architectures, validate publications."""
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
         units: Units | None = None,
         ) -> tuple[Catalog | None, Model | None, list[Diagnostic]]:
    """Load a catalog file and everything it references. `units` are the
    catalog's units, already stat-ed (and maybe read and parsed).

    All units must parse and resolve, architectures must build, and every
    publication must satisfy the causal projection condition; otherwise the
    diagnostics list every failure and both results are None.
    """
    catalog_path = Path(catalog_path)
    if units is None:
        text, diagnostics = _read_text(catalog_path, "catalog")
        if text is None:
            return None, None, diagnostics
        units = Units.listed(catalog_path, text)
    parsed, trees, diagnostics = parse_units(units)
    if has_errors(diagnostics):
        return None, None, diagnostics
    m, architectures, links, diags = analyze(trees, state_limit)
    diagnostics.extend(diags)
    if m is None:
        return None, None, diagnostics
    return Catalog(str(catalog_path), parsed, trees, architectures, links,
                   source_hash(unit.text for unit in parsed)), m, diagnostics


def _declares(tree: syntax.SyntaxTree) -> str:
    """What a unit declares, in order, as its record holds it: `kind name`
    per declaration, `type name <: supertype` for a subtype."""
    return "; ".join(f"{_KINDS[type(d)]} {d.name}" + (
        f" <: {d.supertype}" if getattr(d, "supertype", None) else "") for d in tree.declarations)


def _named(tree: syntax.SyntaxTree) -> set[str]:
    """The interfaces and contracts that a unit's declarations name."""
    return {name for d in tree.declarations for field_ in _REFERENCES
            if (name := getattr(d, field_, None)) is not None}


def _self_contained(tree: syntax.SyntaxTree) -> bool:
    """Does the unit declare no architecture or link, and every interface or
    contract it names?"""
    return _named(tree) <= {d.name for d in tree.declarations} and not any(
        isinstance(d, (syntax.ArchitectureDecl, syntax.LinkDecl)) for d in tree.declarations)


def _unit_records(units: Units, trees: tuple[syntax.SyntaxTree, ...]) -> list[list]:
    """The record of each of the `units`, parsed into `trees`: `[path, size,
    mtime_ns, ctime_ns, sha256, declares, self_contained, needed_by]`, where
    `needed_by` is the path of the first unit that needs it, or None."""
    owner = {d.name: i for i, tree in enumerate(trees) for d in tree.declarations
             if not isinstance(d, syntax.TypeDecl)}  # types may be declared twice
    needed_by: list[str | None] = [None] * len(trees)
    for i, tree in enumerate(trees):
        for name in _named(tree):
            j = owner.get(name, i)
            if j != i and needed_by[j] is None:
                needed_by[j] = units.paths[i]
    return [[*stat, units.digest(i), _declares(tree), _self_contained(tree), needed_by[i]]
            for i, (stat, tree) in enumerate(zip(units.stats, trees))]


# --- compiled index -----------------------------------------------------------

def build_index(catalog: Catalog, m: Model, state_limit: int = protocol.DEFAULT_STATE_LIMIT,
                units: Units | None = None) -> CompiledIndex:
    """Compile, determinize, and minimize every component's provided protocol.
    Given `units`, the catalog's units as stat-ed before they were read, the
    index holds their records, as a cache records them, unless a unit was no
    regular file when stat-ed (as `u.adl/` is, which is read as `u.adl`).

    Deterministic: entries are keyed and processed in component-name order,
    and minimized automata are canonically numbered.
    """
    return CompiledIndex(_entries(m, state_limit), catalog.source_hash, dict(m.types),
                         tuple(sorted(name for kind in _NON_TYPES for name in vars(m)[kind])),
                         state_limit, [] if units is None or units.stats is None
                         else _unit_records(units, catalog.trees))


def _entries(m: Model, state_limit: int) -> dict[str, IndexEntry]:
    """The index entries of `m`'s components."""
    entries: dict[str, IndexEntry] = {}
    for name in sorted(m.components):
        comp = m.components[name]
        iface = comp.provided_interface
        provided_alphabet = iface.method_names()
        expr = comp.provided_protocol
        if expr is None:
            expr = protocol.universal_expr(provided_alphabet)
        try:
            provided = protocol.minimize(protocol.determinize(
                protocol.compile(expr, alphabet=provided_alphabet), state_limit))
        except protocol.ProtocolTooLarge as err:
            raise protocol.ProtocolTooLarge(f"component {name!r}: {err}") from err
        entries[name] = IndexEntry(name, iface.all_methods(), provided)
    return entries


# --- cache persistence ----------------------------------------------------------

def _entry_json(entry: IndexEntry, lattice: TypeLattice | None) -> dict:
    """The entry's cache JSON, its `shapes` on `lattice` (None without one):
    a requirement reaches the entry through them (see `reach`)."""
    auto = entry.provided_automaton  # minimized, so its states are 0..n-1
    return {
        "methods": [[sig.name, [[p.name, p.type] for p in sig.params], sig.return_type]
                    for sig in entry.methods],
        "dfa": {"alphabet": sorted(auto.alphabet), "states": len(auto.states),
                "start": auto.start, "accept": sorted(auto.accepting),
                "transitions": [list(t) for t in sorted(auto.transitions)]},
        "shapes": None if lattice is None else sorted({shape(m, lattice) for m in entry.methods}),
    }


def _catalog_json(index: CompiledIndex) -> dict:
    return {"types": [[t.name, t.supertype] for t in index.types.values()],
            "names": list(index.names), "state_limit": index.state_limit, "units": index.units}


def _seal(body: bytes) -> str:
    """The first line of a cache file whose bytes after that line are `body`."""
    return f"{CACHE_MAGIC} {zlib.crc32(body):08x}"


def _document(index: CompiledIndex) -> str:
    """The cache's JSON line, as json.dumps with sorted keys and no spaces
    writes it, built an entry at a time: the encoder keeps every piece of a
    document until it joins them. A pending entry is written as it was read."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    lattice = TypeLattice.from_types(index.types)
    components = ",".join(
        f"{encode(name)}:" + encode(index.pending[name] if name in index.pending else
                                    _entry_json(index.entries[name], lattice))
        for name in sorted({*index.entries, *index.pending}))
    # the catalog fields' keys all sort after "hash"
    return (f'{{"components":{{{components}}},'
            f'"hash":{encode(index.source_hash)},{encode(_catalog_json(index))[1:]}\n')


def _replace(path: str | Path, data: bytes) -> None:
    """Write `data` to a temporary file in the same directory that then
    replaces `path`, so a failed write leaves any previous file intact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_cache(index: CompiledIndex, path: str | Path) -> None:
    """Write the index to `path` (see `_replace`)."""
    body = _document(index).encode("utf-8")
    _replace(path, f"{_seal(body)}\n".encode("utf-8") + body)


def _int(value) -> int:
    if type(value) is not int:  # == would take a JSON true or 1.0 for 1
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return value


def _entry_from_json(name: str, comp: dict, lattice: TypeLattice | None) -> IndexEntry:
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
    entry = IndexEntry(name, methods, auto)
    if lattice is None:  # shapes left unread are not checked
        comp = {**comp, "shapes": None}
    # str() leaves a value of another type unequal, as are extra or reordered items
    if _entry_json(entry, lattice) != comp:
        raise ValueError(f"component {name!r} differs from what this version writes")
    return entry


def _record_from_json(path, size, mtime, ctime, digest, declares, contained, needed_by) -> list:
    """A unit record as this version writes it (see `_unit_records`)."""
    if type(contained) is not bool:  # == would take a JSON 1 for true
        raise TypeError(f"expected a boolean, got {type(contained).__name__}")
    return [str(path), _int(size), _int(mtime), _int(ctime), str(digest), str(declares), contained,
            None if needed_by is None else str(needed_by)]


def _catalog_from_json(doc: dict) -> dict:
    """The CompiledIndex fields besides entries and hash, from a cache document."""
    fields = {
        "types": {str(n): TypeDecl(str(n), s if s is None else str(s)) for n, s in doc["types"]},
        "names": tuple(map(str, doc["names"])), "state_limit": _int(doc["state_limit"]),
        "units": [_record_from_json(*r) for r in doc["units"]]}
    written = _catalog_json(CompiledIndex({}, "", **fields))
    # the sorted set of keys drops a duplicated or out-of-order key
    if set(doc) != {"components", "hash", *written} or \
            written != {key: doc[key] for key in written} or fields["state_limit"] < 1 or \
            written["names"] != sorted(set(written["names"])):
        raise ValueError("the top-level fields differ from what this version writes")
    return fields


# what decoding a cache document that this version did not write can raise
_DEFECTIVE = (AttributeError, KeyError, TypeError, ValueError, RecursionError)


def _corrupt(err: Exception) -> CacheError:
    return CacheError(f"corrupt cache: {type(err).__name__}: {err}")


def reach(index: CompiledIndex, shapes: set[str] | None = None) -> CompiledIndex:
    """Decode the pending entries with a method of a shape in `shapes` (every
    pending entry when it is None or empty), each checked against what this
    version writes; CacheError if one is defective."""
    lattice = TypeLattice.from_types(index.types)
    try:
        for name, comp in list(index.pending.items()):
            if not shapes or not shapes.isdisjoint(comp["shapes"]):
                index.entries[name] = _entry_from_json(name, comp, lattice)
                del index.pending[name]
    except _DEFECTIVE as err:
        raise _corrupt(err) from err
    return index


def load_cache(path: str | Path, units: Units | None = None) -> tuple[CompiledIndex, bool]:
    """Read a cache file: (its index, whether it is fresh for the catalog's
    `units`), or CacheError on a defect of its checksum or of a top-level field.

    Every entry is left pending, for `reach` to decode; the checksum on the
    first line guards them until then. The cache is fresh when `units` hash to
    its hash; when their stats are the recorded ones (see
    `Units.unchanged_since`), they are not read. Without `units` it is not.
    """
    try:
        with open(path, "rb") as file:
            header, _, body = file.read().partition(b"\n")
            written = os.fstat(file.fileno()).st_mtime_ns
        seal = _seal(body)
        header, body = header.decode("utf-8"), body.decode("utf-8")  # one copy at a time
    except (OSError, UnicodeDecodeError) as err:
        raise CacheError(f"cannot read cache: {err}") from err
    if header != CACHE_MAGIC and not header.startswith(CACHE_MAGIC + " "):
        raise CacheError(f"unsupported cache version (expected {CACHE_MAGIC})")
    if not body.endswith("\n"):  # save_cache ends the file with a newline
        raise CacheError("corrupt cache: truncated")
    try:
        doc = json.loads(body)
        del body  # what is decoded next needs only the document
        if type(doc["hash"]) is not str:
            raise TypeError("the hash is not a string")
        # after decoding, so that a defect the decoder or the hash check finds is named
        if header != seal:
            raise ValueError("checksum mismatch")
        if type(doc["components"]) is not dict:
            raise TypeError("the components are not an object")
        index = CompiledIndex({}, doc["hash"], **_catalog_from_json(doc),
                              pending=doc["components"])
    except _DEFECTIVE as err:
        raise _corrupt(err) from err
    return index, units is not None and (units.unchanged_since(index.units, written)
                                         or units.hash() == index.source_hash)


def default_cache_path(catalog_path: str | Path) -> Path:
    return Path(str(catalog_path) + ".idx")


# --- requirement loading ---------------------------------------------------------

def load_requirement(path: str | Path, catalog: Catalog, m: Model, text: str | None = None,
                     tree: syntax.SyntaxTree | None = None,
                     ) -> tuple[Requirement | None, Model | None, list[Diagnostic]]:
    """Read a requirement unit (unless its `text` is given, already parsed
    into `tree` if given) and resolve it on top of the catalog's model.

    The unit must declare exactly one interface; a contract in the same unit
    implementing it contributes the required protocol.  A unit already listed
    in the catalog is looked up instead of re-resolved, so catalog units can
    double as requirement queries.
    """
    path = Path(path)
    text, diagnostics = (text, []) if text is not None else _read_text(path, "requirement file")
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
    `match` loads, reading each file at most once and the cache through one
    `load_cache`: a requirement that is also a catalog unit file is read once
    in each role, as the requirement and by `Units`.

    A fresh cache answers alone when it can (see the module docstring), with
    origin "cache" and reason None. A stale one is brought up to date by
    `_rederive` when it can, with the reason "stale; re-derived K of N units".
    Otherwise the catalog is loaded from the units already stat-ed, read and
    parsed, and the requirement resolved on it; the index is built cold with
    the reason "missing", "stale" (then "; full load: " and why `_rederive`
    could not take it, if it was offered the cache), the CacheError message or
    that the cache was built under a higher state limit. An index built or
    brought up to date is saved, with origin "built" and the reason followed by
    "; cannot write cache: ..." if the new cache could not be saved. The index
    holds, decoded, at least the entries the requirement reaches: those with a
    method of the shape of a requirement method (all of them when it has no
    methods). When the catalog or the requirement fails to load, all but the
    diagnostics are None.
    """
    catalog_path, requirement_path = Path(catalog_path), Path(requirement_path)
    catalog_text, diagnostics = _read_text(catalog_path, "catalog")
    if catalog_text is None:
        return None, None, None, None, None, diagnostics
    units = Units.listed(catalog_path, catalog_text)
    req_text, req_diagnostics = _read_text(requirement_path, "requirement file")
    path = default_cache_path(catalog_path) if cache_path is None else Path(cache_path)
    index, stale, reason = None, None, "missing"
    if units.stats is not None and req_text is not None and path.exists():
        try:
            index, fresh = load_cache(path, units)
            limit = index.state_limit
            if not fresh:  # its automata hold at any limit at least theirs
                index, stale, reason = None, index if limit <= state_limit else None, "stale"
            elif limit > state_limit:
                index, reason = None, f"cache built under a higher state limit ({limit})"
        except CacheError as err:
            reason = str(err)
    catalog, loaded, tree = None, None, None
    cached = stale if index is None else index
    # reads only the units of the requirement's size; one whose text equals it only once
    # newlines are translated is missed, and `_cached_requirement` answers as for a unit
    if cached is not None and not units.holds(req_text, len(req_text.encode("utf-8"))):
        tree, diagnostics = dsl.parse_unit(SourceUnit(str(requirement_path), req_text))
        loaded = (None, None, diagnostics) if tree is None else \
            _cached_requirement(requirement_path, tree, cached)
    if stale is not None:
        update = _rederive(stale, units, state_limit, loaded is not None)
        if isinstance(update, str):
            loaded, reason = None, f"{reason}; full load: {update}"
        else:
            index, count = update
            reason += f"; re-derived {count} of {len(units.paths)} units"
    if loaded is None:  # the full load, on the units read
        catalog, m, diagnostics = load(catalog_path, state_limit, units)
        if catalog is None:  # else there are no diagnostics
            return None, None, None, None, None, diagnostics
        loaded = (None, None, req_diagnostics) if req_text is None else \
            load_requirement(requirement_path, catalog, m, req_text, tree)
    req, merged, diagnostics = loaded
    if req is None:
        return None, None, None, None, None, diagnostics
    lattice = TypeLattice.from_types(merged.types)
    shapes = {shape(sig, lattice) for sig in req.iface.all_methods()}
    if index is not None:  # fresh or brought up to date
        try:
            reach(index, shapes)
            if stale is None:
                return req, merged, index, "cache", None, diagnostics
        except CacheError as err:  # a defect the checksum missed: rebuild
            index, reason = None, str(err)
    if index is None:
        if catalog is None:  # the requirement was resolved on the defective cache's types
            catalog, m, load_diagnostics = load(catalog_path, state_limit, units)
            if catalog is None:
                return None, None, None, None, None, load_diagnostics
        index = build_index(catalog, m, state_limit, units)  # every entry decoded
    try:
        save_cache(index, path)
    except OSError as err:  # the index is built; only later queries lose it
        reason += f"; cannot write cache: {err.strerror or err}"
    return req, merged, index, "built", reason, diagnostics


def _rederive(stale: CompiledIndex, units: Units, state_limit: int,
              answered: bool) -> tuple[CompiledIndex, int] | str:
    """The index that a cold build of `units` gives, with only the units whose
    text changed since `stale` was built parsed (by `units`, so that the full
    load parses none again) and re-derived, and how many;
    or the first reason why the full load must build them (see the module
    docstring). `answered` says whether the cached types answer the
    requirement. Every other unit's entries are copied as their stale JSON."""
    records = stale.units
    if [record[0] for record in records] != units.paths:
        return "the catalog lists other units"
    hashed = units.hash()
    if hashed is None:
        return "a unit cannot be read"
    digests = [units.digest(i) for i in range(len(records))]
    changed: dict[int, syntax.SyntaxTree] = {}
    for i, record in enumerate(records):
        unit, (declares, contained, needed_by) = record[0], record[5:8]
        if digests[i] == record[4]:
            continue
        if needed_by is not None:
            return f"{unit} is needed by {needed_by}"
        if not contained:
            return f"{unit} is not self-contained"
        _, tree, diagnostics = units.parse(i)
        if tree is None or diagnostics:
            return f"{unit} does not parse"
        if _declares(tree) != declares:
            return f"{unit} changes its declarations"
        if not _self_contained(tree):
            return f"{unit} names a declaration of another unit"
        changed[i] = tree
    if not answered:
        return "the requirement needs the catalog"
    base = Model(types=dict(stale.types))
    entries: dict[str, IndexEntry] = {}
    pending = dict(stale.pending)
    for i, tree in changed.items():
        unit = records[i][0]
        m, diagnostics = model.resolve([tree], base=base)
        if m is None or diagnostics:
            return f"{unit} does not resolve on the cached types"
        try:
            if _validate_publications(m, state_limit):
                return f"{unit} fails a publication check"
            built = _entries(m, state_limit)
        except protocol.ProtocolTooLarge:
            return f"{unit} exceeds the state limit"
        for name in m.components:
            pending.pop(name, None)
        entries.update(built)
    records = [[*stat, digest, *record[5:]]
               for stat, digest, record in zip(units.stats, digests, records)]
    index = CompiledIndex(entries, hashed, stale.types, stale.names, state_limit,
                          records, pending)
    return index, len(changed)


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
