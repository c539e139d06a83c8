"""Repository catalog: unit loading, architecture construction, the compiled
protocol index, and its cache file.

Compiling every component's protocols is the one-time cost paid when the
architecture changes; the cache file makes it pay once per change, with a
content hash of the unit texts to detect staleness. The cache file is the magic
line `ARCHMATCH-IDX v10` with a CRC-32 of the rest of the file, then one
sorted-key JSON document. Besides the compiled components, each with the
printed protocol its DFA was built from and the shapes of its methods, it
holds what a query needs of the catalog: its types, every non-type name it
declares, and the state limit its load and build succeeded under; and one
record per unit (`_unit_records`): its size and times, from a stat taken
before it was read, the SHA-256 of its text, what it declares, whether it is
self-contained, the first unit that needs it, and the keys of its publication
checks that passed. A unit is self-contained when it declares no architecture
or link and every interface or contract it names (by `extends`, `implements`,
`provided contract`, `internal interface` or `required interface`) is its own;
it is needed when another unit names one of its declarations so.

`load_cache` reads a cache one way: it checks the checksum and every top-level
field, leaves every entry pending, and judges freshness from unit stats. It
reads and hashes the units only when their stats differ from the recorded ones
or a unit changed no earlier than the cache was written (git's racy-clean
rule). `reach` decodes the entries a caller needs: `index inspect` all, and
`match` those sharing a method shape (`sigmatch.shape`) with the requirement.

`load_match` reads the catalog, the requirement and the cache once. A fresh
cache answers `match` alone, without lexing, parsing or resolving a catalog
unit or checking a publication. The catalog is loaded instead when the cache
is missing, stale, corrupt, of another version (`v1` to `v9`) or built under a
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
and resolves every unit, and the stale cache is its `Memo`: an entry whose
printed protocol, alphabet, methods and shapes are unchanged is carried
as its stale JSON, and a DFA or a passed publication check whose key, the
printed expressions and alphabets it was computed from, is unchanged is taken
from it instead of recomputed (the verifying traces of Mokhov, Mitchell and
Peyton Jones, "Build Systems à la Carte", ICFP 2018). Both write the bytes a
cold build writes; a copied or carried entry is trusted as a pending one is,
behind the checksum, and `reach` checks it when it decodes it. `index build`
builds from the units alone. A build writes the cache file and nothing else:
a `<cache>.syntax` file that earlier versions wrote beside it is never read,
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
from .protocol import FiniteAutomaton, ProtocolExpr
from .records import field, record
from .sigmatch import TypeLattice, shape

if TYPE_CHECKING:  # `category` is imported by the commands that build architectures
    from .category import FunctorMapping, PseudoCategory

# The first line of a cache file, before its checksum. Bump it whenever
# build_index could give different output for the same source (for example
# after a change to compile, determinize or minimize), or its recorded
# state_limit, an entry's `protocol` or `shapes`, or a field of a unit record
# could mean something else, so that older caches are rejected and rebuilt
# without lending a rebuild their automata or checks.
CACHE_MAGIC = "ARCHMATCH-IDX v10"

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
    records: list[list] = field(default_factory=list)  # given a memo to load: `_unit_records`


@record(frozen=True)
class IndexEntry:
    component: str
    methods: tuple[MethodSig, ...]
    provided_automaton: FiniteAutomaton
    # the provided protocol the automaton was built from, printed, or its
    # expression until a cache is written; it is not part of the entry's value
    protocol: str | ProtocolExpr = field(default="", compare=False)

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


@record
class Memo:
    """Results a build takes instead of computing them, by content key, and
    how many it took.

    `stale` holds a stale cache's entries as JSON, undecoded: one whose
    component keeps its printed protocol, alphabet, methods and shapes is
    carried as it is, and `automaton` decodes another only for a DFA asked
    for by its printed protocol and alphabet. `checked` holds the keys of
    publication checks that passed (`_check_key`). Equal keys give equal
    results: printing is injective, and minimal DFAs are canonically numbered.
    Both hold for any state limit at least the one they were computed under: a
    state limit only turns a result into ProtocolTooLarge. A build given a
    memo, even an empty one, computes the keys a cache records; one given none
    skips them.
    """

    stale: dict[str, dict] = field(default_factory=dict)  # by component
    checked: frozenset[str] = frozenset()
    # the key of each check this build passed, by publication or component
    passed: dict[str, str] = field(default_factory=dict)
    checks: int = 0  # publication checks this build asked for
    reused_checks: int = 0
    reused_automata: int = 0  # DFAs decoded or carried
    # the expressions printed for keys, for `dsl.format_protocol`: components,
    # contracts and publications share them, and none is printed twice
    printed: dict = field(default_factory=dict)
    # the stale component with each printed protocol and alphabet, on first use
    by_key: dict | None = field(default=None, repr=False)

    def automaton(self, text: str, alphabet: frozenset[str]) -> FiniteAutomaton | None:
        """The minimal DFA of a stale entry printed as `text` over `alphabet`,
        decoded now, or None when no such entry decodes."""
        if self.by_key is None:
            self.by_key = {}
            for name, comp in self.stale.items():
                try:
                    self.by_key.setdefault(
                        (comp["protocol"], frozenset(comp["dfa"]["alphabet"])), name)
                except _DEFECTIVE:  # decoding it would fail too
                    pass
        name = self.by_key.get((text, alphabet))
        try:
            return None if name is None else \
                _entry_from_json(name, self.stale[name], None).provided_automaton
        except _DEFECTIVE:
            return None


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


class Units:
    """The unit files a catalog lists, as found on disk: each one's stat, all
    taken first, and its text, read with plain `open` when first asked for.

    `stats` holds `[path, size, mtime_ns, ctime_ns]` per unit, the path as the
    catalog lists it, or is None when a unit is missing or not a regular file.
    """

    def __init__(self, catalog_path: str | Path, catalog_text: str):
        self.paths = _unit_paths(catalog_text)
        directory = os.path.dirname(catalog_path)
        self._files = [os.path.join(directory, p) for p in self.paths]
        self._texts: dict[int, str | None] = {}  # by unit; None: it cannot be read
        self.stats: list[list] | None = []
        for i, (unit, file) in enumerate(zip(self.paths, self._files)):
            try:
                st = os.stat(file)
            except (OSError, ValueError):
                st = None
            if st is None or not stat.S_ISREG(st.st_mode):  # never opened: it may be a FIFO
                self._texts[i] = None
                self.stats = None
            elif self.stats is not None:
                self.stats.append([unit, st.st_size, st.st_mtime_ns, st.st_ctime_ns])

    def text(self, i: int) -> str | None:
        """The text of unit `i`, or None when it cannot be read."""
        if i not in self._texts:
            try:
                with open(self._files[i], encoding="utf-8") as file:
                    self._texts[i] = file.read()
            except (OSError, UnicodeDecodeError):
                self._texts[i] = None
        return self._texts[i]

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


def parse_units(paths: list[str | Path], texts: dict[Path, str] | None = None,
                ) -> tuple[tuple[SourceUnit, ...], tuple[syntax.SyntaxTree, ...],
                           list[Diagnostic]]:
    """The units at `paths` (read from `texts` where it has them), their trees
    and the diagnostics."""
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


def _check_key(pub: model.Publication, printed: dict) -> str:
    """The SHA-256 of all that `model.validate_publication` reads of `pub`,
    printed (each expression once, see `Memo.printed`): the causal relation,
    then each side's traces and sorted alphabet (hashed as `source_hash`
    hashes unit texts, so distinct parts give distinct keys)."""
    sides = []  # printed first: a default causal relation is made of their traces
    for side in (pub.provided, pub.required):
        if side is not None:
            sides += [dsl.format_protocol(side.traces, printed),
                      " ".join(sorted(side.iface.method_names()))]
    return source_hash([dsl.format_protocol(pub.causal, printed), *sides])


def _validate_publications(m: Model, state_limit: int,
                           memo: Memo | None = None) -> list[Diagnostic]:
    """The diagnostics of every publication check; with a `memo`, a check whose
    key it holds is taken as passed, and each check that passes records its
    key in `memo.passed`."""
    diagnostics: list[Diagnostic] = []

    def report(kind: str, name: str, pub: model.Publication) -> None:
        if memo is not None:
            key = _check_key(pub, memo.printed)
            memo.checks += 1
            if key in memo.checked:
                memo.reused_checks += 1
                memo.passed[name] = key
                return
        try:
            check = model.validate_publication(pub, state_limit)
        except protocol.ProtocolTooLarge as err:
            raise protocol.ProtocolTooLarge(f"{kind} {name!r}: {err}") from err
        if check.ok and memo is not None:
            memo.passed[name] = key
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
         units: Units | None = None, memo: Memo | None = None,
         ) -> tuple[Catalog | None, Model | None, list[Diagnostic]]:
    """Load a catalog file and everything it references. `units` are the
    catalog's units, already stat-ed (and maybe read); a publication check
    whose key is in `memo` is taken as passed. Only given a memo does the
    catalog keep what a cache records of its units, their `records`.

    All units must parse and resolve, architectures must build, and every
    publication must satisfy the causal projection condition; otherwise the
    diagnostics list every failure and both results are None.
    """
    catalog_path = Path(catalog_path)
    if units is None:
        text, diagnostics = _read_text(catalog_path, "catalog")
        if text is None:
            return None, None, diagnostics
        units = Units(catalog_path, text)
    resolved = [catalog_path.parent / p for p in units.paths]
    # a unit that cannot be read is read again, for its diagnostic
    texts = {path: text for i, path in enumerate(resolved)
             if (text := units.text(i)) is not None}
    parsed, trees, diagnostics = parse_units(resolved, texts)
    if has_errors(diagnostics):
        return None, None, diagnostics
    m, architectures, links, diags = analyze(trees, state_limit, memo)
    diagnostics.extend(diags)
    if m is None:
        return None, None, diagnostics
    catalog = Catalog(str(catalog_path), parsed, trees, architectures, links,
                      source_hash(unit.text for unit in parsed))
    if memo is not None:  # what a cache records of the catalog besides its index
        catalog.records = _unit_records(units, trees, memo.passed)
    return catalog, m, diagnostics


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


def _unit_records(units: Units, trees: tuple[syntax.SyntaxTree, ...],
                  passed: dict[str, str]) -> list[list]:
    """The record of each of the `units`, parsed into `trees`, whose checks
    passed with the keys `passed`: `[path, size, mtime_ns, ctime_ns, sha256,
    declares, self_contained, needed_by, checked]`, where `needed_by` is the
    path of the first unit that needs it, or None, and `checked` the sorted
    keys of its own publication checks."""
    owner = {d.name: i for i, tree in enumerate(trees) for d in tree.declarations
             if not isinstance(d, syntax.TypeDecl)}  # types may be declared twice
    needed_by: list[str | None] = [None] * len(trees)
    for i, tree in enumerate(trees):
        for name in _named(tree):
            j = owner.get(name, i)
            if j != i and needed_by[j] is None:
                needed_by[j] = units.paths[i]
    return [[*stat, units.digest(i), _declares(tree), _self_contained(tree), needed_by[i],
             _checked(tree, passed)] for i, (stat, tree) in enumerate(zip(units.stats, trees))]


def _checked(tree: syntax.SyntaxTree, passed: dict[str, str]) -> list[str]:
    """The sorted keys of the passed checks of a unit's publications and components."""
    return sorted({passed[d.name] for d in tree.declarations if d.name in passed})


# --- compiled index -----------------------------------------------------------

def build_index(catalog: Catalog, m: Model, state_limit: int = protocol.DEFAULT_STATE_LIMIT,
                memo: Memo | None = None) -> CompiledIndex:
    """Compile, determinize, and minimize every component's provided protocol,
    or take its entry or minimal DFA from `memo` (see `_entries`). Only given
    a memo are the protocols printed here; save_cache prints those it writes.

    Deterministic: entries are keyed and processed in component-name order,
    and minimized automata are canonically numbered.
    """
    entries, carried = _entries(m, state_limit, memo)
    return CompiledIndex(entries, catalog.source_hash, dict(m.types),
                         tuple(sorted(name for kind in _NON_TYPES for name in vars(m)[kind])),
                         state_limit, catalog.records, carried)


def _entries(m: Model, state_limit: int, memo: Memo | None,
             ) -> tuple[dict[str, IndexEntry], dict[str, dict]]:
    """The index entries of `m`'s components, and the stale JSON of those
    `memo` carries: a component's stale entry is carried when its printed
    protocol, alphabet, methods and shapes are those of the component."""
    entries: dict[str, IndexEntry] = {}
    carried: dict[str, dict] = {}
    lattice = TypeLattice.from_types(m.types) if memo is not None and memo.stale else None
    for name in sorted(m.components):
        comp = m.components[name]
        iface = comp.provided_interface
        provided_alphabet = iface.method_names()
        expr = comp.provided_protocol
        if expr is None:
            expr = protocol.universal_expr(provided_alphabet)
        text = None if memo is None else dsl.format_protocol(expr, memo.printed)
        stale = None if lattice is None else memo.stale.get(name)
        if stale is not None and _carries(stale, text, provided_alphabet, iface.all_methods(),
                                          lattice):
            memo.reused_automata += 1
            carried[name] = stale
            continue
        provided = None if text is None else memo.automaton(text, provided_alphabet)
        if provided is not None:
            memo.reused_automata += 1
        else:
            try:
                provided = protocol.minimize(protocol.determinize(
                    protocol.compile(expr, alphabet=provided_alphabet), state_limit))
            except protocol.ProtocolTooLarge as err:
                raise protocol.ProtocolTooLarge(f"component {name!r}: {err}") from err
        entries[name] = IndexEntry(name, iface.all_methods(), provided,
                                   expr if text is None else text)
    return entries, carried


def _carries(stale, text: str, alphabet: frozenset[str], methods: tuple[MethodSig, ...],
             lattice: TypeLattice) -> bool:
    """Is `stale`, an entry's cache JSON, but for its DFA, that of a component
    with the protocol printed as `text` over `alphabet` and `methods`?"""
    try:
        return stale["protocol"] == text and stale["dfa"]["alphabet"] == sorted(alphabet) \
            and stale["methods"] == _methods_json(methods) \
            and stale["shapes"] == _shapes(methods, lattice)
    except _DEFECTIVE:  # decoding it would fail too
        return False


# --- cache persistence ----------------------------------------------------------

def _methods_json(methods: tuple[MethodSig, ...]) -> list:
    return [[sig.name, [[p.name, p.type] for p in sig.params], sig.return_type]
            for sig in methods]


def _shapes(methods: tuple[MethodSig, ...], lattice: TypeLattice) -> list[str]:
    # a requirement reaches the entry through these (see `reach`)
    return sorted({shape(m, lattice) for m in methods})


def _entry_json(entry: IndexEntry, lattice: TypeLattice | None) -> dict:
    """The entry's cache JSON, its `shapes` on `lattice` (None without one)."""
    auto = entry.provided_automaton  # minimized, so its states are 0..n-1
    text = entry.protocol
    return {
        "methods": _methods_json(entry.methods),
        "dfa": {"alphabet": sorted(auto.alphabet), "states": len(auto.states),
                "start": auto.start, "accept": sorted(auto.accepting),
                "transitions": [list(t) for t in sorted(auto.transitions)]},
        "protocol": text if isinstance(text, str) else dsl.format_protocol(text),
        "shapes": None if lattice is None else _shapes(entry.methods, lattice),
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
    entry = IndexEntry(name, methods, auto, str(comp["protocol"]))
    if lattice is None:  # shapes left unread are not checked
        comp = {**comp, "shapes": None}
    # str() leaves a value of another type unequal, as are extra or reordered items
    if _entry_json(entry, lattice) != comp:
        raise ValueError(f"component {name!r} differs from what this version writes")
    return entry


def _record_from_json(path, size, mtime, ctime, digest, declares, contained, needed_by,
                      checked) -> list:
    """A unit record as this version writes it (see `_unit_records`)."""
    if type(contained) is not bool:  # == would take a JSON 1 for true
        raise TypeError(f"expected a boolean, got {type(contained).__name__}")
    return [str(path), _int(size), _int(mtime), _int(ctime), str(digest), str(declares), contained,
            None if needed_by is None else str(needed_by), sorted(set(map(str, checked)))]


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


def _memo(index: CompiledIndex) -> Memo:
    """A stale index as a rebuild's memo: its entries, left pending, and the
    keys of its passed publication checks."""
    return Memo(index.pending, frozenset(key for record in index.units for key in record[8]))


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
    `match` loads, reading each file at most once and the cache through one
    `load_cache`.

    A fresh cache answers alone when it can (see the module docstring), with
    origin "cache" and reason None. A stale one is brought up to date by
    `_rederive` when it can, with the reason "stale; re-derived K of N units".
    Otherwise the catalog is loaded from the units already stat-ed and read,
    and the requirement resolved on it; the index is built with the reason
    "missing", "stale" (then what the stale cache lent the build, and why
    `_rederive` could not take it), the CacheError message or that the cache
    was built under a higher state limit. An index built or brought up to date
    is saved, with origin "built" and the reason followed by "; cannot write
    cache: ..." if the new cache could not be saved. The index holds, decoded,
    at least the entries the requirement reaches: those with a method of the
    shape of a requirement method (all of them when it has no methods). When
    the catalog or the requirement fails to load, all but the diagnostics are
    None.
    """
    catalog_path, requirement_path = Path(catalog_path), Path(requirement_path)
    texts: dict[Path, str] = {}
    catalog_text, _ = _read_text(catalog_path, "catalog", texts)
    units = None if catalog_text is None else Units(catalog_path, catalog_text)
    req_text, _ = _read_text(requirement_path, "requirement file", texts)
    path = default_cache_path(catalog_path) if cache_path is None else Path(cache_path)
    index, stale, reason = None, None, "missing"
    if units is not None and units.stats is not None and req_text is not None and path.exists():
        try:
            index, fresh = load_cache(path, units)
            limit = index.state_limit
            if not fresh:  # its automata and checks hold at any limit at least theirs
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
    memo, rule = Memo(), None  # a build here is saved
    if stale is not None:
        update = _rederive(stale, units, state_limit, loaded is not None)
        if isinstance(update, str):  # the full load, lent the stale cache
            memo, loaded, rule = _memo(stale), None, update
        else:
            index, count = update
            reason += f"; re-derived {count} of {len(units.paths)} units"
    if loaded is None:  # the full load, on the units read
        catalog, m, diagnostics = load(catalog_path, state_limit, units, memo)
        if catalog is None:  # else there are no diagnostics
            return None, None, None, None, None, diagnostics
        loaded = load_requirement(requirement_path, catalog, m, texts, tree)
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
            catalog, m, load_diagnostics = load(catalog_path, state_limit, units, memo)
            if catalog is None:
                return None, None, None, None, None, load_diagnostics
        index = build_index(catalog, m, state_limit, memo)
        if rule is not None:
            reason += (f"; reused {memo.reused_automata} of {index.size()} automata, "
                       f"{memo.reused_checks} of {memo.checks} publication checks; "
                       f"full load: {rule}")
        try:
            reach(index, shapes)
        except CacheError as err:  # an entry carried from the stale cache is defective
            index, reason = build_index(catalog, m, state_limit), str(err)
    try:
        save_cache(index, path)
    except OSError as err:  # the index is built; only later queries lose it
        reason += f"; cannot write cache: {err.strerror or err}"
    return req, merged, index, "built", reason, diagnostics


def _rederive(stale: CompiledIndex, units: Units, state_limit: int,
              answered: bool) -> tuple[CompiledIndex, int] | str:
    """The index that a cold build of `units` gives, with only the units whose
    text changed since `stale` was built parsed and re-derived, and how many;
    or the first reason why the full load must build them (see the module
    docstring). `answered` says whether the cached types answer the
    requirement. Every other unit's entries are copied as their stale JSON."""
    records = stale.units
    if [record[0] for record in records] != units.paths:
        return "the catalog lists other units"
    texts = [units.text(i) for i in range(len(records))]
    if None in texts:
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
        tree, diagnostics = dsl.parse_unit(SourceUnit(unit, texts[i]))
        if tree is None or diagnostics:
            return f"{unit} does not parse"
        if _declares(tree) != declares:
            return f"{unit} changes its declarations"
        if not _self_contained(tree):
            return f"{unit} names a declaration of another unit"
        changed[i] = tree
    if not answered:
        return "the requirement needs the catalog"
    memo, base = _memo(stale), Model(types=dict(stale.types))
    entries: dict[str, IndexEntry] = {}
    pending = dict(stale.pending)
    for i, tree in changed.items():
        unit = records[i][0]
        m, diagnostics = model.resolve([tree], base=base)
        if m is None or diagnostics:
            return f"{unit} does not resolve on the cached types"
        try:
            if _validate_publications(m, state_limit, memo):
                return f"{unit} fails a publication check"
            built, carried = _entries(m, state_limit, memo)
        except protocol.ProtocolTooLarge:
            return f"{unit} exceeds the state limit"
        for name in m.components:
            pending.pop(name, None)
        entries.update(built)
        pending.update(carried)
    records = [[*stat, digests[i], *record[5:8],
                _checked(changed[i], memo.passed) if i in changed else record[8]]
               for i, (stat, record) in enumerate(zip(units.stats, records))]
    index = CompiledIndex(entries, source_hash(texts), stale.types, stale.names, state_limit,
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
