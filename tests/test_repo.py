"""Catalog loading, index compilation, and cache persistence."""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import zlib
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from archmatch import matcher, repo
from archmatch import protocol as P
from archmatch.records import replace
from archmatch.sigmatch import TypeLattice
from broken_caches import (DEFECTS, FIELD_DEFECTS, V2_CACHE, V4_CACHE, V5_CACHE, V6_CACHE,
                           V7_CACHE, V8_CACHE, V9_CACHE, V10_CACHE, resealed)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def built(catalog_path) -> repo.CompiledIndex:
    """The index of the catalog as `index build` builds it: with its unit records."""
    units = repo.Units(catalog_path, Path(catalog_path).read_text(encoding="utf-8"))
    catalog, m, _ = repo.load(catalog_path, units=units)
    return repo.build_index(catalog, m, units=units)


def copy_fixtures(tmp_path, catalog_name="catalog.txt"):
    for name in ("types.adl", "document_manager.adl", "insurance.adl",
                 "manage_documents_req.adl", "catalog.txt", "catalog_full.txt"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    return tmp_path / catalog_name


# --- load ---------------------------------------------------------------------

def test_load_sample_catalog():
    catalog, m, diags = repo.load(FIXTURES / "catalog.txt")
    assert catalog is not None, [str(d) for d in diags]
    assert [unit.path for unit in catalog.units] == [
        str(FIXTURES / "types.adl"), str(FIXTURES / "document_manager.adl")]
    assert set(m.components) == {"DocumentManager"}
    assert m.interfaces["ManageDocument"].method_names() == {
        "viewDocument", "searchDocuments", "setPreference"}
    assert catalog.source_hash


def test_load_full_catalog_builds_architectures_and_links():
    catalog, m, diags = repo.load(FIXTURES / "catalog_full.txt")
    assert catalog is not None, [str(d) for d in diags]
    assert set(catalog.architectures) == {"CustomerService", "BackOffice"}
    assert set(catalog.links) == {"Realization"}
    assert catalog.architectures["CustomerService"].kind == "business"
    # explicit publication got validated and resolved
    assert "AccountServicePub" in m.publications


@pytest.mark.parametrize("name", ["catalog.txt", "catalog_full.txt"])
def test_the_fixture_catalogs_load_without_diagnostics(name):
    catalog, _, diagnostics = repo.load(FIXTURES / name)
    assert catalog is not None and diagnostics == []


def test_load_empty_catalog(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    catalog, m, diags = repo.load(path)
    assert catalog is not None and diags == []
    assert m.components == {}


def test_load_missing_catalog(tmp_path):
    catalog, m, diags = repo.load(tmp_path / "nope.txt")
    assert catalog is None
    assert any("nope.txt" in d.message for d in diags)


def test_load_missing_unit_named_in_diagnostic(tmp_path):
    path = tmp_path / "cat.txt"
    path.write_text("ghost.adl\n")
    catalog, m, diags = repo.load(path)
    assert catalog is None
    assert any("ghost.adl" in d.message for d in diags)


def test_load_rejects_bad_causal_relation(tmp_path):
    (tmp_path / "bad.adl").write_text(
        "interface A { f(); }\n"
        "interface B { g(); }\n"
        "contract C implements A { protocol { ?f } }\n"
        "component K {\n"
        "  provided contract C\n"
        "  required interface B\n"
        "  causal { ?f }\n"  # projection onto {g} gives eps, not g*
        "}\n")
    (tmp_path / "cat.txt").write_text("bad.adl\n")
    catalog, m, diags = repo.load(tmp_path / "cat.txt")
    assert catalog is None
    assert any(d.code == "causal-projection" for d in diags)


def test_state_limit_overflow_names_the_component(tmp_path):
    (tmp_path / "causal.adl").write_text(
        "interface A { f(); }\n"
        "interface B { g(); }\n"
        "contract C implements A { protocol { (?f)* } }\n"
        "component K {\n"
        "  provided contract C\n"
        "  required interface B\n"
        "  causal { (?f ?f + ?f + ?g)* }\n"  # its projection on {f} has two states
        "}\n")
    (tmp_path / "cat.txt").write_text("causal.adl\n")
    assert repo.load(tmp_path / "cat.txt")[0] is not None
    with pytest.raises(P.ProtocolTooLarge, match="^component 'K': protocol too large"):
        repo.load(tmp_path / "cat.txt", state_limit=1)


def test_load_order_independence(tmp_path):
    a = copy_fixtures(tmp_path)
    (tmp_path / "reordered.txt").write_text("document_manager.adl\ntypes.adl\n")
    cat1, m1, _ = repo.load(tmp_path / "catalog.txt")
    cat2, m2, _ = repo.load(tmp_path / "reordered.txt")
    assert m1 == m2
    i1 = repo.build_index(cat1, m1)
    i2 = repo.build_index(cat2, m2)
    assert i1.entries == i2.entries


# --- build_index -----------------------------------------------------------------

def test_index_document_manager_accepts_paper_trace():
    catalog, m, _ = repo.load(FIXTURES / "catalog.txt")
    index = repo.build_index(catalog, m)
    entry = index.entries["DocumentManager"]
    assert P.accepts(entry.provided_automaton, ("searchDocuments", "setPreference"))
    assert not P.accepts(entry.provided_automaton, ("viewDocument",))


def test_index_component_without_protocol_is_universal(tmp_path):
    (tmp_path / "u.adl").write_text(
        "interface A { f(); g(); }\ncontract C implements A { }\n"
        "component K { provided contract C }\n")
    (tmp_path / "cat.txt").write_text("u.adl\n")
    catalog, m, _ = repo.load(tmp_path / "cat.txt")
    index = repo.build_index(catalog, m)
    auto = index.entries["K"].provided_automaton
    for word in [(), ("f",), ("g", "f", "g"), ("f", "f", "f")]:
        assert P.accepts(auto, word)


def test_index_automata_are_minimize_fixpoints():
    catalog, m, _ = repo.load(FIXTURES / "catalog_full.txt")
    index = repo.build_index(catalog, m)
    for entry in index.entries.values():
        assert P.minimize(entry.provided_automaton) == entry.provided_automaton


def test_index_state_limit_names_component(tmp_path):
    methods = " ".join(f"m{i}();" for i in range(4))
    proto = " | ".join(f"?m{i}" for i in range(4))
    (tmp_path / "big.adl").write_text(
        f"interface A {{ {methods} }}\n"
        f"contract C implements A {{ protocol {{ {proto} }} }}\n"
        "component Huge { provided contract C }\n")
    (tmp_path / "cat.txt").write_text("big.adl\n")
    catalog, m, _ = repo.load(tmp_path / "cat.txt")
    with pytest.raises(P.ProtocolTooLarge, match="Huge"):
        repo.build_index(catalog, m, state_limit=3)


# --- cache ------------------------------------------------------------------------

def _read_cache(path) -> repo.CompiledIndex:
    """The index of a cache file, every entry decoded, as `index inspect` reads it."""
    index, _ = repo.load_cache(path)
    return repo.reach(index)


def test_cache_round_trip(tmp_path):
    catalog, m, _ = repo.load(FIXTURES / "catalog_full.txt")
    index = repo.build_index(catalog, m)
    path = tmp_path / "cache.idx"
    repo.save_cache(index, path)
    loaded = _read_cache(path)
    assert loaded == index
    text = path.read_bytes()
    repo.save_cache(repo.build_index(*repo.load(FIXTURES / "catalog_full.txt")[:2]), path)
    assert path.read_bytes() == text  # a second build writes the same bytes
    repo.save_cache(loaded, path)
    assert path.read_bytes() == text


def test_cache_header_shape(tmp_path):
    catalog, m, _ = repo.load(FIXTURES / "catalog.txt")
    index = repo.build_index(catalog, m)
    path = tmp_path / "cache.idx"
    repo.save_cache(index, path)
    lines = path.read_text().split("\n")
    magic, seal = lines[0].rsplit(" ", 1)
    assert magic == "ARCHMATCH-IDX v11"
    assert int(seal, 16) == zlib.crc32(path.read_bytes().partition(b"\n")[2])
    assert lines[2:] == [""]
    doc = json.loads(lines[1])
    assert sorted(doc) == ["components", "hash", "names", "state_limit", "types", "units"]
    assert lines[1] == json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert doc["hash"] == catalog.source_hash
    entry = doc["components"]["DocumentManager"]
    assert sorted(entry) == ["dfa", "methods", "protocol", "shapes"]
    assert entry["shapes"] == ["(String)", "(String,String)"]
    assert doc["units"] == []  # the index was built without the units
    assert entry["protocol"] == \
        "(?searchDocuments + ?setPreference)* | (?searchDocuments + ?viewDocument ?setPreference)*"
    assert entry["methods"][2] == ["setPreference", [["documentType", "String"],
                                                     ["preference", "String"]], None]
    assert sorted(entry["dfa"]) == ["accept", "alphabet", "start", "states", "transitions"]
    assert entry["dfa"]["transitions"] == sorted(entry["dfa"]["transitions"])


def _load_index(catalog_path, state_limit=P.DEFAULT_STATE_LIMIT):
    """(index, origin, reason) of load_match on the catalog and the fixture requirement."""
    req, _, index, origin, reason, diags = repo.load_match(
        catalog_path, catalog_path.parent / "manage_documents_req.adl", state_limit=state_limit)
    assert req is not None, diags
    return index, origin, reason


def test_cache_stale_detection(tmp_path):
    catalog_path = copy_fixtures(tmp_path)
    index, origin, _ = _load_index(catalog_path)
    assert origin == "built"
    index2, origin2, reason2 = _load_index(catalog_path)
    assert (origin2, reason2) == ("cache", None)
    assert index2 == index
    # editing a source unit invalidates the cache
    unit = tmp_path / "document_manager.adl"
    unit.write_text(unit.read_text() + "\n// touched\n")
    assert _load_index(catalog_path)[1:] == ("built", "stale; re-derived 1 of 2 units")


def test_a_stale_rebuild_computes_no_shape_to_decode_and_writes_the_cold_bytes(tmp_path):
    catalog_path = copy_fixtures(tmp_path, "catalog_full.txt")
    _load_index(catalog_path)  # builds the cache
    unit = tmp_path / "insurance.adl"
    unit.write_text(unit.read_text() + "\n// touched\n")
    decoded = []

    def entry_from_json(name, comp, lattice, _real=repo._entry_from_json):
        decoded.append((name, lattice))
        return _real(name, comp, lattice)
    with mock.patch.object(repo, "_entry_from_json", entry_from_json):
        index, origin, reason = _load_index(catalog_path)
    assert (origin, reason) == ("built", "stale; full load: insurance.adl is not self-contained")
    # the full load builds every entry: none is taken from the stale cache
    assert decoded == [] and not index.pending
    repo.save_cache(built(catalog_path), tmp_path / "cold.idx")
    assert repo.default_cache_path(catalog_path).read_bytes() == (tmp_path / "cold.idx").read_bytes()


# a resealed defect of a stale cache, and the reason of the rebuild: a
# top-level field is checked before freshness is judged, and the full load
# decodes no entry of the stale cache
STALE_AND_DEFECTIVE = {
    "unit size as a string": "corrupt cache: TypeError: expected an integer, got str",
    "string state count": "stale; full load: insurance.adl is not self-contained",
}


@pytest.mark.parametrize("defect", list(STALE_AND_DEFECTIVE))
def test_a_stale_cache_with_a_defect_is_rebuilt_without_a_memo(tmp_path, defect):
    catalog_path = copy_fixtures(tmp_path, "catalog_full.txt")
    _load_index(catalog_path)  # builds the cache
    cache = repo.default_cache_path(catalog_path)
    cache.write_text(resealed(FIELD_DEFECTS[defect](cache.read_text())))
    unit = tmp_path / "insurance.adl"
    unit.write_text(unit.read_text() + "\n// touched\n")
    assert _load_index(catalog_path)[1:] == ("built", STALE_AND_DEFECTIVE[defect])


def test_cache_of_another_hash_is_stale(tmp_path):
    catalog_path = FIXTURES / "catalog.txt"
    catalog, m, _ = repo.load(catalog_path)
    units = repo.Units(catalog_path, catalog_path.read_text())
    index = repo.build_index(catalog, m)  # without the units: none is recorded
    path = tmp_path / "cache.idx"
    repo.save_cache(index, path)
    loaded, fresh = repo.load_cache(path, units)  # from the hash of the unit texts
    assert fresh and repo.reach(loaded).entries == index.entries
    assert repo.load_cache(path)[1] is False  # without units
    repo.save_cache(replace(index, source_hash="another hash"), path)
    assert repo.load_cache(path, units)[1] is False


def _full_cache_text(tmp_path) -> str:
    path = tmp_path / "clean.idx"
    repo.save_cache(built(FIXTURES / "catalog_full.txt"), path)
    return path.read_text()


def test_cache_rejects_truncation(tmp_path):
    text = _full_cache_text(tmp_path)
    path = tmp_path / "cache.idx"
    for length in range(len(text)):
        # a cut ending in a newline reaches the JSON decoder too
        for cut in {text[:length], text[:length] + "\n"} - {text}:
            path.write_text(cut)
            with pytest.raises(repo.CacheError):
                _read_cache(path)


@pytest.mark.parametrize("defect", list(DEFECTS))
def test_cache_rejects_defect(tmp_path, defect):
    path = tmp_path / "cache.idx"
    path.write_text(DEFECTS[defect](_full_cache_text(tmp_path)))
    with pytest.raises(repo.CacheError, match="^(corrupt cache: |unsupported cache version)"):
        _read_cache(path)


def test_an_edit_that_keeps_the_cache_valid_breaks_its_checksum(tmp_path):
    text = _full_cache_text(tmp_path)
    path = tmp_path / "cache.idx"
    edited = text.replace('"start":0', '"start":1', 1)  # AccountService's one-state DFA
    assert edited != text
    path.write_text(edited)
    with pytest.raises(repo.CacheError, match="^corrupt cache: ValueError: checksum mismatch$"):
        repo.load_cache(path)
    path.write_text(resealed(edited))  # a right checksum leaves the defect to decoding
    index, _ = repo.load_cache(path)
    with pytest.raises(repo.CacheError, match="^corrupt cache: ValueError: start or accepting"):
        repo.reach(index)


def test_cache_rejects_wrong_version(tmp_path):
    path = tmp_path / "cache.idx"
    for magic in ("ARCHMATCH-IDX v99", "ARCHMATCH-IDX v1", "ARCHMATCH-IDX v2",
                  "ARCHMATCH-IDX v3"):
        path.write_text(f"{magic}\nhash: x\ncomponents: 0\n")
        with pytest.raises(repo.CacheError, match="expected ARCHMATCH-IDX v11"):
            repo.load_cache(path)
    # real caches of fixtures/catalog_full.txt
    for cache in (V4_CACHE, V5_CACHE, V6_CACHE, V7_CACHE, V8_CACHE, V9_CACHE, V10_CACHE):
        shutil.copy(cache, path)
        with pytest.raises(repo.CacheError, match="expected ARCHMATCH-IDX v11"):
            repo.load_cache(path)


def _load_index_reason(tmp_path, setup) -> tuple[str, str | None]:
    catalog_path = copy_fixtures(tmp_path)
    catalog, m, _ = repo.load(catalog_path)
    cache = repo.default_cache_path(catalog_path)
    setup(cache, catalog, m)
    _, origin, reason = _load_index(catalog_path)
    assert _read_cache(cache).source_hash == catalog.source_hash  # refreshed
    return origin, reason


def test_load_index_reason_missing(tmp_path):
    assert _load_index_reason(tmp_path, lambda *_: None) == ("built", "missing")


def test_load_index_reason_stale(tmp_path):
    def setup(cache, catalog, m):
        repo.save_cache(replace(repo.build_index(catalog, m), source_hash="old"), cache)
    assert _load_index_reason(tmp_path, setup) == \
        ("built", "stale; full load: the catalog lists other units")  # built without records


def test_load_index_reason_corrupt(tmp_path):
    origin, reason = _load_index_reason(
        tmp_path, lambda cache, *_: cache.write_text(f"{repo.CACHE_MAGIC}\n{{}}\n"))
    assert (origin, reason) == ("built", "corrupt cache: KeyError: 'hash'")


def test_load_index_reason_other_version(tmp_path):
    for old in (V2_CACHE, V6_CACHE, V7_CACHE, V8_CACHE, V9_CACHE, V10_CACHE):
        origin, reason = _load_index_reason(
            tmp_path, lambda cache, *_, old=old: shutil.copy(old, cache))
        assert (origin, reason) == (
            "built", "unsupported cache version (expected ARCHMATCH-IDX v11)")


def test_load_index_rebuilds_a_cache_built_under_a_higher_state_limit(tmp_path):
    catalog_path = copy_fixtures(tmp_path)
    _load_index(catalog_path)  # at the default limit
    _, origin, reason = _load_index(catalog_path, state_limit=50)
    assert (origin, reason) == (
        "built", f"cache built under a higher state limit ({P.DEFAULT_STATE_LIMIT})")
    assert _read_cache(repo.default_cache_path(catalog_path)).state_limit == 50
    assert _load_index(catalog_path, state_limit=50)[1:] == ("cache", None)
    assert _load_index(catalog_path)[1:] == ("cache", None)


def test_load_index_reason_unreadable(tmp_path):
    origin, reason = _load_index_reason(
        tmp_path, lambda cache, *_: cache.write_bytes(f"{repo.CACHE_MAGIC}\n".encode() + b"\xff\n"))
    assert origin == "built" and reason.startswith("cannot read cache: ")


@pytest.mark.parametrize("failing", ["write", "replace"])
def test_cache_write_failure_keeps_previous_cache(tmp_path, monkeypatch, failing):
    catalog, m, _ = repo.load(FIXTURES / "catalog_full.txt")
    index = repo.build_index(catalog, m)
    path = tmp_path / "cache.idx"
    path.write_text("previous cache\n")

    def half_write(self, data, *args, **kwargs):
        with open(self, "wb") as handle:
            handle.write(data[: len(data) // 2])
        raise OSError("disk full")

    def refuse(*args):
        raise OSError("rename refused")

    if failing == "write":
        monkeypatch.setattr(Path, "write_bytes", half_write)
    else:
        monkeypatch.setattr(repo.os, "replace", refuse)
    with pytest.raises(OSError):
        repo.save_cache(index, path)
    assert path.read_text() == "previous cache\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.idx"]


# --- freshness from unit stats ---------------------------------------------------------

def _write_cache_later(catalog_path, seconds: int = 10) -> None:
    """Date the cache `seconds` after it was written: every unit then changed before it."""
    cache = os.stat(repo.default_cache_path(catalog_path))
    later = cache.st_mtime_ns + seconds * 10**9
    os.utime(repo.default_cache_path(catalog_path), ns=(later, later))


def _unit_reads(monkeypatch) -> list[int]:
    """The units load_match reads, by catalog position, from now on."""
    reads: list[int] = []

    def text(self, i, _real=repo.Units.text):
        reads.append(i)
        return _real(self, i)
    monkeypatch.setattr(repo.Units, "text", text)
    return reads


def test_a_warm_hit_reads_no_unit_whose_stats_are_unchanged(tmp_path, monkeypatch):
    catalog_path = copy_fixtures(tmp_path)
    _load_index(catalog_path)
    units = json.loads(repo.default_cache_path(catalog_path).read_text().split("\n")[1])["units"]
    assert [unit[:2] for unit in units] == [[name, os.path.getsize(tmp_path / name)]
                                            for name in ("types.adl", "document_manager.adl")]
    _write_cache_later(catalog_path)
    reads = _unit_reads(monkeypatch)
    assert _load_index(catalog_path)[1:] == ("cache", None)
    assert reads == []


def test_a_unit_changed_no_earlier_than_the_cache_is_read(tmp_path, monkeypatch):
    # git's racy-clean rule: a unit changed in the tick the cache was written
    # in may have changed again after it was read, so its stats prove nothing
    catalog_path = copy_fixtures(tmp_path)
    _load_index(catalog_path)
    unit = os.stat(tmp_path / "types.adl")
    os.utime(repo.default_cache_path(catalog_path), ns=(unit.st_atime_ns, unit.st_ctime_ns))
    reads = _unit_reads(monkeypatch)
    assert _load_index(catalog_path)[1:] == ("cache", None)
    assert 0 in reads


def _rewrite_dated_as_the_cache(tmp_path: Path) -> None:
    unit = tmp_path / "a.adl"
    unit.write_text("type Xc;\n")  # the size of "type Xa;\n"
    cache = os.stat(repo.default_cache_path(tmp_path / "catalog.txt"))
    os.utime(unit, ns=(cache.st_atime_ns, cache.st_mtime_ns))


# a change after the cache was built, and whether the next match finds the
# cache stale: why it then loads the whole catalog, or None when it finds it
# fresh
STAT_CHANGES = {
    "same-size rewrite dated as the cache": (
        _rewrite_dated_as_the_cache,
        "a.adl changes its declarations"),
    "equal-size units swapped in the catalog": (
        lambda root: (root / "catalog.txt").write_text("types.adl\ndocument_manager.adl\n"
                                                        "b.adl\na.adl\n"),
        "the catalog lists other units"),
    "unit dropped from the catalog": (
        lambda root: (root / "catalog.txt").write_text("types.adl\ndocument_manager.adl\n"
                                                        "a.adl\n"),
        "the catalog lists other units"),
    "touch": (lambda root: os.utime(root / "a.adl", ns=(10**18, 10**18)), None),
}


@pytest.mark.parametrize("change", list(STAT_CHANGES))
def test_a_change_of_the_units_is_found_however_their_stats_read(tmp_path, change):
    edit, rule = STAT_CHANGES[change]
    catalog_path = copy_fixtures(tmp_path)
    (tmp_path / "a.adl").write_text("type Xa;\n")
    (tmp_path / "b.adl").write_text("type Xb;\n")
    catalog_path.write_text("types.adl\ndocument_manager.adl\na.adl\nb.adl\n")
    assert _load_index(catalog_path)[1:] == ("built", "missing")
    edit(tmp_path)
    assert _load_index(catalog_path)[1:] == (
        ("built", f"stale; full load: {rule}")
        if rule else ("cache", None))


def test_cache_transparency_for_matching(tmp_path):
    catalog_path = copy_fixtures(tmp_path)
    catalog, m, _ = repo.load(catalog_path)
    built = repo.build_index(catalog, m)
    path = tmp_path / "cache.idx"
    repo.save_cache(built, path)
    cached = _read_cache(path)
    req, merged, diags = repo.load_requirement(
        tmp_path / "manage_documents_req.adl", catalog, m)
    assert req is not None, diags
    lattice = TypeLattice.from_types(merged.types)
    a = matcher.match_requirement(req, built, lattice)
    b = matcher.match_requirement(req, cached, lattice)
    assert a == b


# --- load_requirement ---------------------------------------------------------------

def test_load_requirement_outside_catalog():
    catalog, m, _ = repo.load(FIXTURES / "catalog.txt")
    req, merged, diags = repo.load_requirement(
        FIXTURES / "manage_documents_req.adl", catalog, m)
    assert req is not None
    assert req.iface.name == "ManageDocuments"
    assert req.required_protocol is not None
    assert "ManageDocuments" in merged.interfaces
    assert "DocumentManager" in merged.components


def test_load_requirement_listed_in_catalog(tmp_path):
    copy_fixtures(tmp_path)
    (tmp_path / "cat.txt").write_text(
        "types.adl\ndocument_manager.adl\nmanage_documents_req.adl\n")
    catalog, m, _ = repo.load(tmp_path / "cat.txt")
    req, merged, diags = repo.load_requirement(
        tmp_path / "manage_documents_req.adl", catalog, m)
    assert req is not None, diags
    assert merged is m  # reused, not re-resolved


def test_load_requirement_needs_exactly_one_interface(tmp_path):
    catalog, m, _ = repo.load(FIXTURES / "catalog.txt")
    bad = tmp_path / "two.adl"
    bad.write_text("interface A { }\ninterface B { }\n")
    req, merged, diags = repo.load_requirement(bad, catalog, m)
    assert req is None
    assert any(d.code == "bad-requirement" for d in diags)


def test_load_requirement_missing_file():
    catalog, m, _ = repo.load(FIXTURES / "catalog.txt")
    req, merged, diags = repo.load_requirement(FIXTURES / "nothere.adl", catalog, m)
    assert req is None
    assert any("nothere" in d.message for d in diags)


# --- load_match -----------------------------------------------------------------

# one pool of names for every kind of declaration, so that requirements reuse,
# extend, implement and clash with catalog declarations often
_NAMES = ["Alpha", "Beta", "Gamma", "Delta", "Omega"]
_METHOD_NAMES = ["get", "put", "list"]


@st.composite
def _catalog_and_requirement(draw):
    """The unit texts of a small valid catalog, and a requirement's text."""
    types = [f"T{i}" for i in range(draw(st.integers(2, 4)))]
    units = ["".join(f"type {t}" + (f" <: {s};\n" if (s := draw(st.sampled_from(
        [None] + types[:i]))) else ";\n") for i, t in enumerate(types))]
    names = draw(st.permutations(_NAMES))
    interfaces: dict[str, list[str]] = {}

    def interface(name, bases):
        base = draw(st.sampled_from([None] + bases))
        inherited = interfaces.get(base, [])
        methods = [m for m in draw(st.lists(st.sampled_from(_METHOD_NAMES), min_size=1,
                                            max_size=3, unique=True)) if m not in inherited]
        sigs = "".join(f"  {m}(x: {draw(st.sampled_from(types))})"
                       f"{draw(st.sampled_from(['', ': ' + types[0]]))};\n" for m in methods)
        interfaces[name] = inherited + methods
        return f"interface {name}{f' extends {base}' if base else ''} {{\n{sigs}}}\n"

    def contract(name, iface):
        events = interfaces[iface]
        body = draw(st.sampled_from(["", " ; ".join(f"?{m}" for m in events),
                                     f"({' + '.join(f'?{m}' for m in events)})*"]))
        return f"contract {name} implements {iface} {{ {body and f'protocol {{ {body} }}'} }}\n"

    catalog_ifaces = names[:2]
    units.append(interface(catalog_ifaces[0], []) + interface(catalog_ifaces[1], names[:1]))
    units.append(contract(names[2], catalog_ifaces[0]) + contract(names[3], catalog_ifaces[1])
                 + f"component {names[4]} {{ provided contract {names[2]} }}\n")
    # the requirement: types, one interface, maybe a contract and a component;
    # each name or reference is its own three times in four, else the catalog's
    def own_or(own, others):
        return draw(st.sampled_from([own, own, own, None])) or draw(st.sampled_from(others))

    req = "".join(f"type {own_or(t, _NAMES)};\n"
                  for t in draw(st.lists(st.sampled_from(types + ["Fresh"]), max_size=2)))
    name = own_or("Want", _NAMES + types)
    req += interface(name, [None, None] + list(catalog_ifaces))
    if draw(st.booleans()):
        req += contract(own_or("Spec", _NAMES), own_or(name, catalog_ifaces))
    if draw(st.integers(0, 5)) == 5:
        req += f"component {own_or('Kit', _NAMES)} {{ provided contract {names[2]} }}\n"
    return units, req


def _answer(requirement, index):
    req, merged, diagnostics = requirement
    if req is None:
        return None, diagnostics
    result = matcher.match_requirement(req, index, TypeLattice.from_types(merged.types))
    return (req, list(merged.types.items()), result.recommendation, result.reports), diagnostics


def _write_catalog(root: Path, units: list[str]) -> Path:
    for i, text in enumerate(units):
        (root / f"u{i}.adl").write_text(text)
    (root / "cat.txt").write_text("".join(f"u{i}.adl\n" for i in range(len(units))))
    return root / "cat.txt"


@settings(max_examples=120, deadline=None)
@given(_catalog_and_requirement())
def test_a_catalog_that_loads_has_no_diagnostics(case):
    # the requirement as a catalog unit too, so that some catalogs fail to load
    units, requirement = case
    with tempfile.TemporaryDirectory() as tmp:
        catalog, _, diagnostics = repo.load(_write_catalog(Path(tmp), units + [requirement]))
    event(f"loaded: {catalog is not None}")
    assert diagnostics == [] if catalog is not None else diagnostics


@settings(max_examples=120, deadline=None)
@given(_catalog_and_requirement())
def test_a_warm_hit_answers_as_the_whole_catalog(case):
    # load_match answers as load, load_requirement and build_index do, cold and warm
    units, requirement = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        catalog_path = _write_catalog(root, units)
        (root / "req.adl").write_text(requirement)
        catalog, m, diagnostics = repo.load(catalog_path)
        assert catalog is not None and diagnostics == [], [str(d) for d in diagnostics]
        expected = _answer(repo.load_requirement(root / "req.adl", catalog, m),
                           repo.build_index(catalog, m))
        for origin in ("built", "cache"):
            with mock.patch.object(repo.dsl, "parse_unit", wraps=repo.dsl.parse_unit) as parse:
                req, merged, index, got, reason, diags = repo.load_match(catalog_path,
                                                                        root / "req.adl")
            assert _answer((req, merged, diags), index) == expected
            assert (got, reason) == ((None, None) if req is None else
                                     (origin, "missing" if origin == "built" else None))
        parsed = {call.args[0].path for call in parse.call_args_list}
        event(f"warm: catalog parsed: {parsed != {str(root / 'req.adl')}}")

