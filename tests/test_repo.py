"""Catalog loading, index compilation, and cache persistence."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from archmatch import matcher, repo
from archmatch import protocol as P
from archmatch.sigmatch import TypeLattice
from broken_caches import DEFECTS, V2_CACHE

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def copy_fixtures(tmp_path, catalog_name="catalog.txt"):
    for name in ("types.adl", "document_manager.adl", "insurance.adl",
                 "manage_documents_req.adl", "catalog.txt", "catalog_full.txt"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    return tmp_path / catalog_name


# --- load ---------------------------------------------------------------------

def test_load_sample_catalog():
    catalog, m, diags = repo.load(FIXTURES / "catalog.txt")
    assert catalog is not None, [str(d) for d in diags]
    assert catalog.unit_paths == ["types.adl", "document_manager.adl"]
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
        "  causal { (?f + ?g)* }\n"
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
    proto = " | ".join(f"(?m{i})*" for i in range(4))
    (tmp_path / "big.adl").write_text(
        f"interface A {{ {methods} }}\n"
        f"contract C implements A {{ protocol {{ {proto} }} }}\n"
        "component Huge { provided contract C }\n")
    (tmp_path / "cat.txt").write_text("big.adl\n")
    catalog, m, _ = repo.load(tmp_path / "cat.txt")
    with pytest.raises(P.ProtocolTooLarge, match="Huge"):
        repo.build_index(catalog, m, state_limit=3)


# --- cache ------------------------------------------------------------------------

def test_cache_round_trip(tmp_path):
    catalog, m, _ = repo.load(FIXTURES / "catalog_full.txt")
    index = repo.build_index(catalog, m)
    path = tmp_path / "cache.idx"
    repo.save_cache(index, path)
    loaded = repo.load_cache(path)
    assert loaded.source_hash == index.source_hash
    assert loaded.entries == index.entries


def test_cache_header_shape(tmp_path):
    catalog, m, _ = repo.load(FIXTURES / "catalog.txt")
    index = repo.build_index(catalog, m)
    path = tmp_path / "cache.idx"
    repo.save_cache(index, path)
    lines = path.read_text().split("\n")
    assert lines[0] == "ARCHMATCH-IDX v4"
    assert lines[2:] == [""]
    doc = json.loads(lines[1])
    assert lines[1] == json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert doc["hash"] == catalog.source_hash
    entry = doc["components"]["DocumentManager"]
    assert sorted(entry) == ["dfa", "methods"]
    assert entry["methods"][2] == ["setPreference", [["documentType", "String"],
                                                     ["preference", "String"]], None]
    assert sorted(entry["dfa"]) == ["accept", "alphabet", "start", "states", "transitions"]
    assert entry["dfa"]["transitions"] == sorted(entry["dfa"]["transitions"])


def test_cache_stale_detection(tmp_path):
    catalog_path = copy_fixtures(tmp_path)
    catalog, m, _ = repo.load(catalog_path)
    index, origin, _ = repo.load_index(catalog, m)
    assert origin == "built"
    index2, origin2, reason2 = repo.load_index(catalog, m)
    assert (origin2, reason2) == ("cache", None)
    assert index2.entries == index.entries
    # editing a source unit invalidates the cache
    unit = tmp_path / "document_manager.adl"
    unit.write_text(unit.read_text() + "\n// touched\n")
    catalog3, m3, _ = repo.load(catalog_path)
    index3, origin3, _ = repo.load_index(catalog3, m3)
    assert origin3 == "built"


def test_cache_of_another_hash_is_stale(tmp_path):
    catalog, m, _ = repo.load(FIXTURES / "catalog.txt")
    index = repo.build_index(catalog, m)
    path = tmp_path / "cache.idx"
    repo.save_cache(index, path)
    assert repo.load_cache(path, index.source_hash).entries == index.entries
    with pytest.raises(repo.CacheError, match="^stale$"):
        repo.load_cache(path, "another hash")


def _full_cache_text(tmp_path) -> str:
    catalog, m, _ = repo.load(FIXTURES / "catalog_full.txt")
    path = tmp_path / "clean.idx"
    repo.save_cache(repo.build_index(catalog, m), path)
    return path.read_text()


def test_cache_rejects_truncation(tmp_path):
    text = _full_cache_text(tmp_path)
    path = tmp_path / "cache.idx"
    for length in range(len(text)):
        # a cut ending in a newline reaches the JSON decoder too
        for cut in {text[:length], text[:length] + "\n"} - {text}:
            path.write_text(cut)
            with pytest.raises(repo.CacheError):
                repo.load_cache(path)


@pytest.mark.parametrize("defect", list(DEFECTS))
def test_cache_rejects_defect(tmp_path, defect):
    path = tmp_path / "cache.idx"
    path.write_text(DEFECTS[defect](_full_cache_text(tmp_path)))
    with pytest.raises(repo.CacheError, match="^(corrupt cache: |unsupported cache version)"):
        repo.load_cache(path)


def test_cache_rejects_wrong_version(tmp_path):
    path = tmp_path / "cache.idx"
    for magic in ("ARCHMATCH-IDX v99", "ARCHMATCH-IDX v1", "ARCHMATCH-IDX v2",
                  "ARCHMATCH-IDX v3"):
        path.write_text(f"{magic}\nhash: x\ncomponents: 0\n")
        with pytest.raises(repo.CacheError, match="expected ARCHMATCH-IDX v4"):
            repo.load_cache(path)


def _load_index_reason(tmp_path, setup) -> tuple[str, str | None]:
    catalog_path = copy_fixtures(tmp_path)
    catalog, m, _ = repo.load(catalog_path)
    cache = repo.default_cache_path(catalog_path)
    setup(cache, catalog, m)
    _, origin, reason = repo.load_index(catalog, m)
    assert repo.load_cache(cache).source_hash == catalog.source_hash  # refreshed
    return origin, reason


def test_load_index_reason_missing(tmp_path):
    assert _load_index_reason(tmp_path, lambda *_: None) == ("built", "missing")


def test_load_index_reason_stale(tmp_path):
    def setup(cache, catalog, m):
        repo.save_cache(repo.CompiledIndex(repo.build_index(catalog, m).entries, "old"), cache)
    assert _load_index_reason(tmp_path, setup) == ("built", "stale")


def test_load_index_reason_corrupt(tmp_path):
    origin, reason = _load_index_reason(
        tmp_path, lambda cache, *_: cache.write_text(f"{repo.CACHE_MAGIC}\n{{}}\n"))
    assert (origin, reason) == ("built", "corrupt cache: KeyError: 'hash'")


def test_load_index_reason_other_version(tmp_path):
    origin, reason = _load_index_reason(
        tmp_path, lambda cache, *_: shutil.copy(V2_CACHE, cache))
    assert (origin, reason) == ("built", "unsupported cache version (expected ARCHMATCH-IDX v4)")


def test_load_index_reason_unreadable(tmp_path):
    origin, reason = _load_index_reason(
        tmp_path, lambda cache, *_: cache.write_bytes(b"ARCHMATCH-IDX v4\n\xff\n"))
    assert origin == "built" and reason.startswith("cannot read cache: ")


@pytest.mark.parametrize("failing", ["write", "replace"])
def test_cache_write_failure_keeps_previous_cache(tmp_path, monkeypatch, failing):
    catalog, m, _ = repo.load(FIXTURES / "catalog_full.txt")
    index = repo.build_index(catalog, m)
    path = tmp_path / "cache.idx"
    path.write_text("previous cache\n")

    def half_write(self, text, *args, **kwargs):
        with open(self, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])
        raise OSError("disk full")

    def refuse(*args):
        raise OSError("rename refused")

    if failing == "write":
        monkeypatch.setattr(Path, "write_text", half_write)
    else:
        monkeypatch.setattr(repo.os, "replace", refuse)
    with pytest.raises(OSError):
        repo.save_cache(index, path)
    assert path.read_text() == "previous cache\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.idx"]


def test_cache_transparency_for_matching(tmp_path):
    catalog_path = copy_fixtures(tmp_path)
    catalog, m, _ = repo.load(catalog_path)
    built = repo.build_index(catalog, m)
    path = tmp_path / "cache.idx"
    repo.save_cache(built, path)
    cached = repo.load_cache(path)
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
