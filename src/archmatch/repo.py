"""Repository catalog: unit loading, architecture construction, the compiled
protocol index, and its cache file.

Compiling every component's protocols is the one-time cost paid when the
architecture changes; the cache file makes it pay once per change, with a
content hash of the unit texts to detect staleness. The cache file is the magic
line `ARCHMATCH-IDX v9` with a CRC-32 of the rest of the file, then one
sorted-key JSON document. Besides the compiled components, each with the
printed protocol its DFA was built from and the shapes of its methods, it
holds what a query needs of the catalog: its types, every non-type name it
declares, and the state limit its load and build succeeded under; the keys of
the publication checks that passed; and each unit's size and times, from a
stat taken before the unit was read.

`load_cache` reads a cache one way: it checks the checksum and every top-level
field, leaves every entry pending, and judges freshness from unit stats. It
reads and hashes the units only when their stats differ from the recorded ones
or a unit changed no earlier than the cache was written (git's racy-clean
rule). `reach` decodes the entries a caller needs: `index inspect` all, and
`match` those sharing a method shape (`sigmatch.shape`) with the requirement.

`load_match` reads the catalog, the requirement and the cache once. A fresh
cache answers `match` alone, without lexing, parsing or resolving a catalog
unit or checking a publication. The catalog is loaded instead when the cache
is missing, stale, corrupt, of another version (`v1` to `v8`) or built under a
higher state limit (these three are rebuilt), when a file cannot be read, and
when the requirement is a catalog unit, declares anything but types,
interfaces and contracts, extends or implements an interface it does not
declare, or redeclares a name the catalog gives a non-type.

A stale cache whose entries decode cleanly, built under a state limit no
higher than the current one, is the rebuild's `Memo`: a DFA or a passed
publication check whose key, the printed expressions and alphabets it was
computed from, is unchanged is taken from it instead of recomputed (the
verifying traces of Mokhov, Mitchell and Peyton Jones, "Build Systems à la
Carte", ICFP 2018). `index build` builds from the units alone.

The syntax memo beside the cache (`<cache>.syntax`) does the same for parsing:
the magic line `ARCHMATCH-SYNTAX v1` with the bytecode tag of the Python that
wrote it and a CRC-32, then one `marshal` table from the SHA-256 of each
unit's text to its declarations as `dsl.codec` tuples. The full load in
`load_match` decodes a unit the memo holds instead of parsing it; every build
that saves a cache writes the memo for the units it loaded. A memo that is
missing or defective is a miss, and only costs the parses. `load` and
`parse_units` use one only when given it, and a warm hit has none.
"""

from __future__ import annotations

import json
import marshal
import os
import stat
import sys
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
# state_limit, an entry's `protocol` or `shapes`, a `checked` key or a unit's
# stat could mean something else, so that older caches are rejected and
# rebuilt without lending a rebuild their automata or checks.
CACHE_MAGIC = "ARCHMATCH-IDX v9"

# The first line of a syntax memo file, before the bytecode tag of the Python
# that wrote it (marshal's format is that Python's) and a CRC-32 of the rest.
# Bump it whenever `dsl.parse_unit` or `dsl.codec` could give a unit another tree.
SYNTAX_MAGIC = "ARCHMATCH-SYNTAX v1"

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
    # given a memo to load (see `load`): the keys of its publication checks,
    # and Units.stats of its units
    checked: frozenset[str] = frozenset()
    stats: list[list] = field(default_factory=list)


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
    checked: frozenset[str] = frozenset()  # keys of the publication checks
    units: list[list] = field(default_factory=list, compare=False)  # Units.stats at the build
    # the cache JSON of the entries load_cache left for `reach` to decode, by component
    pending: dict[str, dict] = field(default_factory=dict, compare=False, repr=False)

    def size(self) -> int:
        """The number of components, decoded or not."""
        return len(self.entries) + len(self.pending)


@record
class Memo:
    """Results a build takes instead of computing them, by content key, and
    how many it took.

    `automata` maps a printed protocol and its alphabet to the minimal DFA
    compiled from them, and `checked` holds the keys of publication checks
    that passed (`_check_key`). Equal keys give equal results: printing is
    injective, and minimal DFAs are canonically numbered. Both hold for any
    state limit at least the one they were computed under: a state limit only
    turns a result into ProtocolTooLarge. A build given a memo, even an empty
    one, computes the keys a cache records; one given none skips them.
    """

    automata: dict[tuple[str, frozenset[str]], FiniteAutomaton] = field(default_factory=dict)
    checked: frozenset[str] = frozenset()
    passed: set[str] = field(default_factory=set)  # keys this build's checks passed
    checks: int = 0  # publication checks this build asked for
    reused_checks: int = 0
    reused_automata: int = 0
    # the expressions printed for keys, for `dsl.format_protocol`: components,
    # contracts and publications share them, and none is printed twice
    printed: dict = field(default_factory=dict)


@record
class SyntaxMemo:
    """Parsed units by the SHA-256 of their text: the `dsl.codec` tuples of
    each one's declarations, marshalled. `parse_units` decodes a unit `stored`
    holds instead of parsing it, and keeps in `kept` the encoded units it was
    given that parsed without a diagnostic, to be saved for the next load."""

    stored: dict[bytes, bytes] = field(default_factory=dict)  # as read from a file
    kept: dict[bytes, bytes] = field(default_factory=dict)
    units: int = 0  # units parsed or decoded
    reused: int = 0  # units decoded

    def parse(self, unit: SourceUnit) -> tuple[syntax.SyntaxTree | None, list[Diagnostic]]:
        """What `dsl.parse_unit` gives `unit`, decoded when the memo holds it."""
        import hashlib
        from .dsl import codec  # compiles its decoders, 2-3 ms: a warm match loads no unit
        key = hashlib.sha256(unit.text.encode("utf-8")).digest()
        self.units += 1
        blob = self.stored.get(key)
        if blob is not None:
            try:
                tree = syntax.SyntaxTree(codec.decode(marshal.loads(blob)), unit.path)
            except (EOFError, IndexError, KeyError, TypeError, ValueError):
                pass  # not what this version writes: parsed below
            else:
                self.reused += 1
                self.kept[key] = blob
                return tree, []
        tree, diagnostics = dsl.parse_unit(unit)
        if not diagnostics:
            self.kept[key] = marshal.dumps(codec.encode(tree.declarations))
        return tree, diagnostics


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

    def unchanged_since(self, recorded, written_ns: int) -> bool:
        """Do the stats show the units a cache written at `written_ns` (its
        mtime) recorded as `recorded`, without reading them? They must equal
        the recorded ones, and every unit must have changed before the cache
        was written: a unit changed in the tick the cache was written in may
        have changed again after it was read (git's racy-clean rule)."""
        return self.stats is not None and self.stats == recorded and \
            all(s[2] < written_ns and s[3] < written_ns for s in self.stats)

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
                syntax_memo: SyntaxMemo | None = None,
                ) -> tuple[tuple[SourceUnit, ...], tuple[syntax.SyntaxTree, ...],
                           list[Diagnostic]]:
    """The units at `paths` (read from `texts` where it has them), their trees
    and the diagnostics; each one parsed, or decoded from `syntax_memo`."""
    parse = dsl.parse_unit if syntax_memo is None else syntax_memo.parse
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
        tree, diags = parse(unit)
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
    key it holds is taken as passed, and each check that passes adds its key
    to `memo.passed`."""
    diagnostics: list[Diagnostic] = []

    def report(kind: str, name: str, pub: model.Publication) -> None:
        if memo is not None:
            key = _check_key(pub, memo.printed)
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
         units: Units | None = None, memo: Memo | None = None,
         syntax_memo: SyntaxMemo | None = None,
         ) -> tuple[Catalog | None, Model | None, list[Diagnostic]]:
    """Load a catalog file and everything it references. `units` are the
    catalog's units, already stat-ed (and maybe read); a publication check
    whose key is in `memo` is taken as passed, and a unit `syntax_memo` holds
    is decoded, not parsed. Only given a memo does the catalog keep what a
    cache records: its `checked` keys and unit `stats`.

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
    parsed, trees, diagnostics = parse_units(resolved, texts, syntax_memo)
    if has_errors(diagnostics):
        return None, None, diagnostics
    m, architectures, links, diags = analyze(trees, state_limit, memo)
    diagnostics.extend(diags)
    if m is None:
        return None, None, diagnostics
    catalog = Catalog(str(catalog_path), parsed, trees, architectures, links,
                      source_hash(unit.text for unit in parsed))
    if memo is not None:  # what a cache records of the catalog besides its index
        catalog.checked, catalog.stats = frozenset(memo.passed), units.stats or []
    return catalog, m, diagnostics


# --- compiled index -----------------------------------------------------------

def build_index(catalog: Catalog, m: Model, state_limit: int = protocol.DEFAULT_STATE_LIMIT,
                memo: Memo | None = None) -> CompiledIndex:
    """Compile, determinize, and minimize every component's provided protocol,
    or take its minimal DFA from `memo`. Only given a memo are the protocols
    printed here; save_cache prints those it writes.

    Deterministic: entries are keyed and processed in component-name order,
    and minimized automata are canonically numbered.
    """
    entries: dict[str, IndexEntry] = {}
    for name in sorted(m.components):
        comp = m.components[name]
        iface = comp.provided_interface
        provided_alphabet = iface.method_names()
        expr = comp.provided_protocol
        if expr is None:
            expr = protocol.universal_expr(provided_alphabet)
        text = None if memo is None else dsl.format_protocol(expr, memo.printed)
        provided = None if text is None else memo.automata.get((text, provided_alphabet))
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
    return CompiledIndex(entries, catalog.source_hash, dict(m.types),
                         tuple(sorted(name for kind in _NON_TYPES for name in vars(m)[kind])),
                         state_limit, catalog.checked, catalog.stats)


# --- cache persistence ----------------------------------------------------------

def _entry_json(entry: IndexEntry, lattice: TypeLattice | None) -> dict:
    """The entry's cache JSON, its `shapes` on `lattice` (None without one)."""
    auto = entry.provided_automaton  # minimized, so its states are 0..n-1
    text = entry.protocol
    return {
        "methods": [[sig.name, [[p.name, p.type] for p in sig.params], sig.return_type]
                    for sig in entry.methods],
        "dfa": {"alphabet": sorted(auto.alphabet), "states": len(auto.states),
                "start": auto.start, "accept": sorted(auto.accepting),
                "transitions": [list(t) for t in sorted(auto.transitions)]},
        "protocol": text if isinstance(text, str) else dsl.format_protocol(text),
        # a requirement reaches the entry through these (see `reach`)
        "shapes": None if lattice is None else sorted({shape(m, lattice) for m in entry.methods}),
    }


def _catalog_json(index: CompiledIndex) -> dict:
    return {"types": [[t.name, t.supertype] for t in index.types.values()],
            "names": list(index.names), "state_limit": index.state_limit,
            "checked": sorted(index.checked), "units": index.units}


def _seal(body: bytes) -> str:
    """The first line of a cache file whose bytes after that line are `body`."""
    return f"{CACHE_MAGIC} {zlib.crc32(body):08x}"


def _document(index: CompiledIndex) -> str:
    """The cache's JSON line, as json.dumps with sorted keys and no spaces
    writes it, built an entry at a time: the encoder keeps every piece of a
    document until it joins them."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    lattice = TypeLattice.from_types(index.types)
    components = ",".join(f"{encode(name)}:{encode(_entry_json(index.entries[name], lattice))}"
                          for name in sorted(index.entries))
    fields = _catalog_json(index)
    checked = encode(fields.pop("checked"))  # the other fields' keys all sort after "hash"
    return (f'{{"checked":{checked},"components":{{{components}}},'
            f'"hash":{encode(index.source_hash)},{encode(fields)[1:]}\n')


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
    if index.pending:
        raise ValueError("an index with undecoded entries is not saved")
    body = _document(index).encode("utf-8")
    _replace(path, f"{_seal(body)}\n".encode("utf-8") + body)


def syntax_memo_path(cache_path: str | Path) -> Path:
    """The syntax memo beside the cache file at `cache_path`."""
    return Path(f"{cache_path}.syntax")


def _syntax_seal(body: bytes) -> bytes:
    """The first line of a syntax memo file whose bytes after that line are `body`."""
    return f"{SYNTAX_MAGIC} {sys.implementation.cache_tag} {zlib.crc32(body):08x}".encode()


def save_syntax(memo: SyntaxMemo, path: str | Path) -> None:
    """Write the units `memo` kept to `path` (see `_replace`)."""
    body = marshal.dumps(memo.kept)
    _replace(path, _syntax_seal(body) + b"\n" + body)


def load_syntax(path: str | Path) -> SyntaxMemo:
    """The syntax memo saved at `path`, or CacheError saying why there is none
    to use: the file is missing or unreadable, of another version or Python,
    or corrupt. Behind its checksum, marshal's output is trusted as Python
    trusts its bytecode cache."""
    try:
        with open(path, "rb") as file:
            header, _, body = file.read().partition(b"\n")
    except FileNotFoundError as err:
        raise CacheError("missing") from err
    except OSError as err:
        raise CacheError(f"cannot read: {err.strerror or err}") from err
    seal = _syntax_seal(body)
    if header.rpartition(b" ")[0] != seal.rpartition(b" ")[0]:
        raise CacheError(f"unsupported version (expected {SYNTAX_MAGIC} "
                         f"{sys.implementation.cache_tag})")
    if header != seal:
        raise CacheError("corrupt: checksum mismatch")
    try:
        stored = marshal.loads(body)
    except (EOFError, TypeError, ValueError) as err:
        raise CacheError(f"corrupt: {type(err).__name__}: {err}") from err
    if type(stored) is not dict or \
            not all(type(k) is bytes and type(v) is bytes for k, v in stored.items()):
        raise CacheError("corrupt: not a table of units")
    return SyntaxMemo(stored)


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


def _catalog_from_json(doc: dict) -> dict:
    """The CompiledIndex fields besides entries and hash, from a cache document."""
    fields = {
        "types": {str(n): TypeDecl(str(n), s if s is None else str(s)) for n, s in doc["types"]},
        "names": tuple(map(str, doc["names"])), "state_limit": _int(doc["state_limit"]),
        "checked": frozenset(map(str, doc["checked"])),
        "units": [[str(p), _int(size), _int(m), _int(c)] for p, size, m, c in doc["units"]]}
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


def _memo(index: CompiledIndex) -> Memo | None:
    """The automata and passed checks of a loaded index, or None when a pending
    entry is defective. Each entry is decoded as `reach` decodes it, but its
    shapes are left unread, so none is computed, and its JSON is dropped."""
    automata = {}
    try:
        for name in list(index.pending):
            entry = _entry_from_json(name, index.pending.pop(name), None)
            automata[entry.protocol, entry.provided_automaton.alphabet] = entry.provided_automaton
    except _DEFECTIVE:
        return None
    return Memo(automata, index.checked)


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

    A fresh cache answers alone when it can (see the module docstring), and
    its index then holds, decoded, only the entries the requirement reaches:
    those with a method of the shape of a requirement method (all of them when
    it has no methods). Otherwise the catalog is loaded from the units already
    stat-ed and read, and the requirement resolved on it. The index is the
    cache when it is usable, with origin "cache" and reason None. Else it is
    built and saved, with origin "built" and the reason: "missing", "stale",
    the CacheError message or that the cache was built under a higher state
    limit, followed by "; cannot write cache: ..." if the new cache could not
    be saved, or "; cannot write syntax memo: ..." if only the syntax memo
    could not. A catalog loaded here decodes the units the syntax memo beside
    the cache holds, and its build saves the memo for the units loaded. When
    the catalog or the requirement fails to load, all but the diagnostics are
    None.
    """
    catalog_path, requirement_path = Path(catalog_path), Path(requirement_path)
    texts: dict[Path, str] = {}
    catalog_text, _ = _read_text(catalog_path, "catalog", texts)
    units = None if catalog_text is None else Units(catalog_path, catalog_text)
    req_text, _ = _read_text(requirement_path, "requirement file", texts)
    path = default_cache_path(catalog_path) if cache_path is None else Path(cache_path)
    index, memo, reason = None, None, "missing"
    if units is not None and units.stats is not None and req_text is not None and path.exists():
        try:
            index, fresh = load_cache(path, units)
            limit = index.state_limit
            if not fresh:  # its automata and checks hold at any limit at least theirs
                index, memo, reason = None, _memo(index) if limit <= state_limit else None, "stale"
            elif limit > state_limit:
                index, reason = None, f"cache built under a higher state limit ({limit})"
        except CacheError as err:
            reason = str(err)
    catalog, loaded, tree = None, None, None
    # reads only the units of the requirement's size; one whose text equals it only once
    # newlines are translated is missed, and `_cached_requirement` answers as for a unit
    if index is not None and not units.holds(req_text, len(req_text.encode("utf-8"))):
        tree, diagnostics = dsl.parse_unit(SourceUnit(str(requirement_path), req_text))
        loaded = (None, None, diagnostics) if tree is None else \
            _cached_requirement(requirement_path, tree, index)
    build_memo = Memo() if memo is None else memo  # a build here is saved
    syntax_memo = None  # read for a full load
    if loaded is None:  # the full load, on the units read
        syntax_memo = _read_syntax(path)
        catalog, m, diagnostics = load(catalog_path, state_limit, units, build_memo, syntax_memo)
        if catalog is None:  # else there are no diagnostics
            return None, None, None, None, None, diagnostics
        loaded = load_requirement(requirement_path, catalog, m, texts, tree)
    req, merged, diagnostics = loaded
    if req is None:
        return None, None, None, None, None, diagnostics
    if index is not None:
        lattice = TypeLattice.from_types(merged.types)
        try:
            reach(index, {shape(sig, lattice) for sig in req.iface.all_methods()})
            return req, merged, index, "cache", None, diagnostics
        except CacheError as err:  # a defect the checksum missed: rebuild
            index, reason = None, str(err)
    if catalog is None:  # the requirement was resolved on the defective cache's types
        syntax_memo = _read_syntax(path)
        catalog, m, load_diagnostics = load(catalog_path, state_limit, units, build_memo,
                                            syntax_memo)
        if catalog is None:
            return None, None, None, None, None, load_diagnostics
    index = build_index(catalog, m, state_limit, build_memo)
    if memo is not None:
        reason += (f"; reused {memo.reused_automata} of {len(index.entries)} automata, "
                   f"{memo.reused_checks} of {memo.checks} publication checks, "
                   f"{syntax_memo.reused} of {syntax_memo.units} unit parses")
    what = "cache"
    try:
        save_cache(index, path)
        what = "syntax memo"
        save_syntax(syntax_memo, syntax_memo_path(path))
    except OSError as err:  # the index is built; only later queries lose what is not written
        reason += f"; cannot write {what}: {err.strerror or err}"
    return req, merged, index, "built", reason, diagnostics


def _read_syntax(cache_path: Path) -> SyntaxMemo:
    """The syntax memo beside `cache_path`, or an empty one: a memo that
    cannot be used only costs the parses it would have saved."""
    try:
        return load_syntax(syntax_memo_path(cache_path))
    except CacheError:
        return SyntaxMemo()


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
