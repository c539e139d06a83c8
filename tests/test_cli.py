"""Command-line behavior: output shapes, exit codes, determinism."""

from __future__ import annotations

import builtins
import errno
import functools
import gc
import json
from collections import Counter
import os
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from archmatch import category, dsl, matcher, model, protocol, repo
from archmatch.sigmatch import TypeLattice
from broken_caches import (DEFECTS, FIELD_DEFECTS, UNREAD_ON_A_HIT, V2_CACHE, V6_CACHE,
                           resealed)
from cli_runner import run

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# `match` stdout for each catalog and requirement, recorded before the signature
# level was given one result type, and the exit codes in exit_codes.json
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())
# malformed units with the `check` stderr and exit codes recorded before the
# lexer became one regular expression
GOLDEN_CHECK = GOLDEN / "check"
GOLDEN_CHECK_EXIT_CODES = json.loads((GOLDEN_CHECK / "exit_codes.json").read_text())
# stdout, stderr and exit codes of the other commands on the fixtures, recorded
# before the command line moved to argparse
GOLDEN_COMMANDS = GOLDEN / "commands"
GOLDEN_COMMAND_EXIT_CODES = json.loads((GOLDEN_COMMANDS / "exit_codes.json").read_text())


@pytest.fixture()
def workdir(tmp_path):
    for name in ("types.adl", "document_manager.adl", "insurance.adl",
                 "manage_documents_req.adl", "manage_documents_view_req.adl",
                 "manage_portfolio_req.adl", "catalog.txt", "catalog_full.txt"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    return tmp_path


# --- check -----------------------------------------------------------------------

def test_check_valid_unit(workdir):
    res = run("check", str(workdir / "manage_documents_req.adl"))
    assert res.exit_code == 0


def test_check_empty_unit(tmp_path):
    empty = tmp_path / "empty.adl"
    empty.write_text("")
    res = run("check", str(empty))
    assert res.exit_code == 0


def test_check_broken_unit(tmp_path):
    bad = tmp_path / "bad.adl"
    bad.write_text("interface X {")
    res = run("check", str(bad))
    assert res.exit_code == 2
    assert "1:1" in res.stderr or "unclosed" in res.stderr


@pytest.mark.parametrize("unit", sorted(GOLDEN_CHECK_EXIT_CODES))
def test_check_diagnostics_are_the_golden_diagnostics(monkeypatch, unit):
    monkeypatch.chdir(GOLDEN_CHECK)
    res = run("check", unit)
    assert res.stdout == ""
    assert res.stderr_bytes == (GOLDEN_CHECK / unit).with_suffix(".stderr").read_bytes()
    assert res.exit_code == GOLDEN_CHECK_EXIT_CODES[unit]


def test_check_multiple_units(workdir):
    res = run("check", str(workdir / "types.adl"), str(workdir / "document_manager.adl"))
    assert res.exit_code == 0


def test_a_cyclic_supertype_error_names_its_unit(tmp_path, monkeypatch):
    (tmp_path / "units").mkdir()
    (tmp_path / "units" / "bad.adl").write_text("type U <: V;\ntype V <: U;\n")
    (tmp_path / "cat.txt").write_text("units/bad.adl\n")
    monkeypatch.chdir(tmp_path / "units")
    error = "1:1: error: cyclic supertype chain through 'U' [cyclic-declaration]"
    res = run("check", "bad.adl")
    assert res.exit_code == 2 and res.stderr.splitlines()[0] == f"bad.adl:{error}"
    res = run("--catalog", str(tmp_path / "cat.txt"), "arch")
    assert res.exit_code == 2 and res.stderr.splitlines()[0] == f"units/bad.adl:{error}"


# --- arch ------------------------------------------------------------------------

def test_arch_lists_objects_and_morphisms(workdir):
    res = run("--catalog", str(workdir / "catalog_full.txt"), "arch", "CustomerService")
    assert res.exit_code == 0
    assert "object AccountInquiry" in res.output
    assert "morphism AccountInquiry -cmp-> CustomerInquiry" in res.output
    assert "3 declared" in res.output
    assert "(derived)" not in res.output


def test_arch_closure_marks_derived(tmp_path):
    (tmp_path / "chain.adl").write_text(
        "interface I1 { }\ninterface I2 { }\ninterface I3 { }\n"
        "architecture business BA {\n"
        "  object I1;\n  object I2;\n  object I3;\n"
        "  morphism I1 -ext-> I2;\n  morphism I2 -ext-> I3;\n}\n")
    (tmp_path / "cat.txt").write_text("chain.adl\n")
    res = run("--catalog", str(tmp_path / "cat.txt"), "arch", "--closure")
    assert res.exit_code == 0
    assert "morphism I1 -ext-> I3 (derived)" in res.output
    assert "2 declared, 1 derived" in res.output


def test_arch_single_object_closure(tmp_path):
    (tmp_path / "solo.adl").write_text(
        "interface I1 { }\narchitecture business BA { object I1; }\n")
    (tmp_path / "cat.txt").write_text("solo.adl\n")
    res = run("--catalog", str(tmp_path / "cat.txt"), "arch", "--closure")
    assert res.exit_code == 0
    assert "0 derived" in res.output


def test_arch_check_warns_on_mixed_composition(tmp_path):
    (tmp_path / "mix.adl").write_text(
        "interface I1 { }\ninterface I2 { }\ninterface I3 { }\n"
        "architecture business BA {\n"
        "  object I1;\n  object I2;\n  object I3;\n"
        "  morphism I1 -ext-> I2;\n  morphism I2 -cmp-> I3;\n}\n")
    (tmp_path / "cat.txt").write_text("mix.adl\n")
    res = run("--catalog", str(tmp_path / "cat.txt"), "arch", "--check")
    assert res.exit_code == 0
    assert "composition undefined" in res.output


def test_arch_check_names_a_derived_morphism(tmp_path):
    (tmp_path / "mix.adl").write_text(
        "interface I1 { }\ninterface I2 { }\ninterface I3 { }\ninterface I4 { }\n"
        "architecture business BA {\n"
        "  object I1;\n  object I2;\n  object I3;\n  object I4;\n"
        "  morphism I1 -ext-> I2;\n  morphism I2 -ext-> I3;\n  morphism I3 -cmp-> I4;\n}\n")
    (tmp_path / "cat.txt").write_text("mix.adl\n")
    res = run("--catalog", str(tmp_path / "cat.txt"), "arch", "--check")
    assert res.exit_code == 0
    # the first composable pair in sorted order starts with the derived I1 -ext-> I3
    assert "  warning: composition undefined for kinds (ext, cmp), " \
           "e.g. I1 -ext-> I3 then I3 -cmp-> I4\n" in res.output


def test_arch_unknown_name(workdir):
    res = run("--catalog", str(workdir / "catalog_full.txt"), "arch", "Nope")
    assert res.exit_code == 2


# --- protocol ---------------------------------------------------------------------

def test_protocol_expression_dfa():
    res = run("protocol", "?a", "--emit-dfa")
    assert res.exit_code == 0
    assert res.output == "start: 0\naccept: 1\n0 a 1\n"


def test_protocol_sample_contract(workdir):
    res = run("--catalog", str(workdir / "catalog.txt"),
              "protocol", "ManageDocumentCtr", "--sample", "2")
    assert res.exit_code == 0
    assert "searchDocuments setPreference" in res.output.splitlines()


def test_protocol_component_and_publication(workdir):
    res = run("--catalog", str(workdir / "catalog_full.txt"),
              "protocol", "AccountServicePub", "--sample", "1")
    assert res.exit_code == 0
    assert "getBalance" in res.output
    res = run("--catalog", str(workdir / "catalog_full.txt"),
              "protocol", "DocumentManager", "--emit-dfa")
    assert res.exit_code == 0
    assert res.output.startswith("start: 0")


def test_protocol_unknown_name(workdir):
    res = run("--catalog", str(workdir / "catalog.txt"), "protocol", "Ghost")
    assert res.exit_code == 2


def test_internal_error_is_one_line_and_exit_three(monkeypatch):
    def broken(*_):
        raise RuntimeError("minimize failed")

    monkeypatch.setattr(protocol, "minimize", broken)
    res = run("protocol", "?a")
    assert res.exit_code == 3
    assert "Traceback" not in res.output
    [line] = res.output.splitlines()
    assert line.startswith("error: internal error: RuntimeError: ")


def test_ctrl_c_is_one_line_and_exit_130(monkeypatch):
    def interrupted(*_):
        raise KeyboardInterrupt

    monkeypatch.setattr(protocol, "minimize", interrupted)
    res = run("protocol", "?a")
    assert (res.exit_code, res.stdout, res.stderr) == (130, "", "error: interrupted\n")


def _fresh_cli(*args, cwd=None, stdout=None):
    """Run archmatch in a new interpreter, at its default recursion limit."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "archmatch.cli", *args], env=env, cwd=cwd,
                          stdout=subprocess.PIPE if stdout is None else stdout,
                          stderr=subprocess.PIPE, text=True)


@pytest.mark.parametrize("args", [
    ["protocol", "(?a+?b+?c+?d+?e)*", "--sample", "5"],
    ["protocol", "?a"],
    ["--quiet", "--catalog", "catalog_full.txt", "match", "manage_documents_req.adl"],
], ids=["37-kB-output", "small-output", "match-ends-in-sys-exit"])
def test_a_reader_that_closed_stdout_gets_exit_141_and_no_message(workdir, args):
    # the read end is closed before archmatch starts, so its first write to stdout fails:
    # mid-run for a large output, in the last flush for one smaller than the buffer
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = _fresh_cli(*args, cwd=workdir, stdout=write_end)
    finally:
        os.close(write_end)
    assert (res.returncode, res.stderr) == (141, "")


def _dfa_states(text):
    states = {0}
    for line in text.splitlines()[2:]:
        s, _, t = line.split()
        states |= {int(s), int(t)}
    return len(states)


@pytest.mark.parametrize("expr,states", [
    ("(" * 300 + "?a" + ")" * 300, 2),
    (" ".join(f"?e{i}" for i in range(1200)), 1201),
    (" + ".join(f"?e{i}" for i in range(1200)), 2),
], ids=["300-nested-parentheses", "1200-event-sequence", "1200-way-alternative"])
def test_deep_protocols_compile(expr, states):
    res = _fresh_cli("protocol", expr, "--emit-dfa")
    assert (res.returncode, res.stderr) == (0, "")
    assert _dfa_states(res.stdout) == states


def test_match_on_a_component_with_a_1200_event_protocol(tmp_path):
    events = " ".join(["?a ?b"] * 600)
    (tmp_path / "long.adl").write_text(
        "interface Ops { a(); b(); }\n"
        f"contract OpsCtr implements Ops {{ protocol {{ {events} }} }}\n"
        "component Long { provided contract OpsCtr }\n")
    (tmp_path / "catalog.txt").write_text("long.adl\n")
    (tmp_path / "req.adl").write_text(
        "interface Need { a(); b(); }\n"
        f"contract NeedSpec implements Need {{ protocol {{ {events} }} }}\n")
    res = _fresh_cli("--quiet", "--catalog", "catalog.txt", "match", "req.adl", cwd=tmp_path)
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.splitlines()[0] == "USE Long"


def test_check_a_1200_interface_extends_chain(tmp_path):
    unit = tmp_path / "chain.adl"
    unit.write_text("interface I0 { m0(); }\n" + "".join(
        f"interface I{i} extends I{i - 1} {{ m{i}(); }}\n" for i in range(1, 1200)))
    res = _fresh_cli("check", str(unit))
    assert (res.returncode, res.stderr) == (0, "checked 1 unit(s): ok\n")


def test_no_recursion_limit_is_raised():
    src = Path(__file__).resolve().parent.parent / "src" / "archmatch"
    assert not [p for p in src.rglob("*.py") if "setrecursionlimit" in p.read_text()]


# --- match ------------------------------------------------------------------------

def test_match_use_exit_zero(workdir):
    res = run("--quiet", "--catalog", str(workdir / "catalog.txt"),
              "match", str(workdir / "manage_documents_req.adl"))
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == "USE DocumentManager"


def test_match_new_exit_one(workdir):
    res = run("--quiet", "--catalog", str(workdir / "catalog.txt"),
              "match", str(workdir / "manage_portfolio_req.adl"))
    assert res.exit_code == 1
    assert res.output.splitlines()[0] == "NEW"


def test_match_adapt(workdir):
    res = run("--quiet", "--catalog", str(workdir / "catalog.txt"),
              "match", str(workdir / "manage_documents_view_req.adl"))
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == "ADAPT DocumentManager"
    assert "viewDocument" in res.output


def test_match_malformed_requirement(workdir, tmp_path):
    bad = tmp_path / "bad.adl"
    bad.write_text("interface {")
    res = run("--quiet", "--catalog", str(workdir / "catalog.txt"), "match", str(bad))
    assert res.exit_code == 2


def test_match_json_shape(workdir):
    res = run("--quiet", "--catalog", str(workdir / "catalog.txt"),
              "match", str(workdir / "manage_documents_req.adl"), "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["version"] == 2
    assert doc["recommendation"] == {"action": "USE", "component": "DocumentManager"}
    report = doc["reports"][0]
    assert report["component"] == "DocumentManager"
    assert report["verdict"] == "USE"
    assert report["kind"] == "exact"
    assert "score" not in report
    assert report["methodMap"]["searchDocuments"] == "searchDocuments"
    assert report["unmatched"] == []
    assert report["nameMatches"] == 3
    assert report["protocolVerdict"] == "HOLDS"
    assert report["counterexample"] is None


def test_match_json_counterexample(workdir):
    res = run("--quiet", "--catalog", str(workdir / "catalog.txt"),
              "match", str(workdir / "manage_documents_view_req.adl"), "--format", "json")
    doc = json.loads(res.output)
    assert doc["reports"][0]["counterexample"] == ["viewDocument"]


def test_match_no_prefilter_same_recommendation(workdir):
    catalog, m, _ = repo.load(workdir / "catalog_full.txt")
    index = repo.build_index(catalog, m)
    for name in ("manage_documents_req.adl", "manage_documents_view_req.adl",
                 "manage_portfolio_req.adl"):
        res = run("--quiet", "--catalog", str(workdir / "catalog_full.txt"),
                  "match", str(workdir / name))
        req, merged, _ = repo.load_requirement(workdir / name, catalog, m)
        unfiltered = matcher.match_requirement(req, index, TypeLattice.from_types(merged.types),
                                               use_prefilter=False)
        assert res.output.splitlines()[0] == unfiltered.recommendation.render()


def test_match_renamed_provider_is_used(tmp_path):
    # method names never block a match: only the signature types line up
    (tmp_path / "archive.adl").write_text(
        "type String;\ntype Doc;\n"
        "interface FileStore { fetchFile(path: String): Doc; }\n"
        "contract FileStoreCtr implements FileStore { }\n"
        "component Archive { provided contract FileStoreCtr }\n")
    (tmp_path / "cat.txt").write_text("archive.adl\n")
    (tmp_path / "req.adl").write_text(
        "type String;\ntype Doc;\ninterface Records { getRecord(id: String): Doc; }\n")
    res = run("--quiet", "--catalog", str(tmp_path / "cat.txt"), "match", str(tmp_path / "req.adl"))
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == "USE Archive"


def test_match_cold_and_warm_cache_identical(workdir):
    args = ["--quiet", "--catalog", str(workdir / "catalog.txt"),
            "match", str(workdir / "manage_documents_req.adl")]
    cold = run(*args)
    assert (workdir / "catalog.txt.idx").is_file()
    warm = run(*args)
    assert cold.output == warm.output
    assert cold.exit_code == warm.exit_code


def test_match_note_says_why_the_index_was_rebuilt(workdir):
    cache = workdir / "catalog.txt.idx"
    args = ["--catalog", str(workdir / "catalog.txt"),
            "match", str(workdir / "manage_documents_req.adl")]

    def note():
        return [line for line in run(*args).stderr.splitlines() if line.startswith("index: ")]

    assert note() == ["index: built (1 component(s); cache missing)"]
    assert note() == ["index: cache (1 component(s))"]
    shutil.copy(V2_CACHE, cache)
    assert note() == ["index: built (1 component(s); "
                      "unsupported cache version (expected ARCHMATCH-IDX v12))"]
    cache.write_text(f"{repo.CACHE_MAGIC}\n{{}}\n")
    assert note() == ["index: built (1 component(s); corrupt cache: KeyError: 'hash')"]
    unit = workdir / "document_manager.adl"
    unit.write_text(unit.read_text() + "\n// touched\n")
    assert note() == ["index: built (1 component(s); cache stale; re-derived 1 of 2 units)"]
    (workdir / "catalog.txt").write_text("document_manager.adl\ntypes.adl\n")
    assert note() == ["index: built (1 component(s); cache stale; "
                      "full load: the catalog lists other units)"]


def test_broken_cache_is_rebuilt_with_the_same_answer(workdir):
    cache = workdir / "catalog_full.txt.idx"
    match_args = ["--catalog", str(workdir / "catalog_full.txt"),
                  "match", str(workdir / "manage_documents_req.adl")]
    clean = run(*match_args)
    text = cache.read_text()
    broken = {f"truncated to {n}": text[:n] for n in (0, 10, 17, len(text) // 2, len(text) - 1)}
    broken.update((name, defect(text)) for name, defect in DEFECTS.items())
    for name, body in broken.items():
        cache.write_text(body)
        inspect = run("--catalog", str(workdir / "catalog_full.txt"), "index", "inspect")
        assert inspect.exit_code == 2, name
        assert inspect.stdout == "" and len(inspect.stderr.splitlines()) == 1, name
        res = run(*match_args)
        assert (res.stdout, res.exit_code) == (clean.stdout, clean.exit_code), name
        assert "index: built " in res.stderr, name
        assert cache.read_text() == text, name


# --- a stale cache rebuilt: re-derived, or by the full load ------------------------

# a requirement whose answer depends on AccountService's automaton
ACCOUNT_REQ = """\
type String;
interface WantAccount {
  getBalance(accountId: String): String;
  listTransactions(accountId: String);
}
contract WantAccountSpec implements WantAccount {
  protocol { ?listTransactions ?getBalance }
}
"""
# a component whose interface extends, and requires, interfaces of another unit
BASE_ADL = """\
interface Base { a(x: String); }
interface Feed { f(x: String); }
"""
DERIVED_ADL = """\
interface Derived extends Base { b(x: String); }
contract DerivedCtr implements Derived { protocol { ?b* } }
component Kiosk {
  provided contract DerivedCtr
  required interface Feed
  causal { (?b ?f)* }
}
"""
# a self-contained unit that no other unit needs, with two publication checks
SOLO_ADL = """\
interface Solo { s(x: Document); }
interface SoloFeed { t(x: String); }
contract SoloCtr implements Solo { protocol { ?s* } }
component Lone {
  provided contract SoloCtr
  required interface SoloFeed
  causal { (?s ?t)* }
}
publication LonePub { provided contract SoloCtr }
"""


def _edit(name: str, old: str, new: str):
    def edit(workdir: Path) -> None:
        unit = workdir / name
        assert old in unit.read_text()
        unit.write_text(unit.read_text().replace(old, new))
    return edit


def _edits(*edits):
    def edit(workdir: Path) -> None:
        for one in edits:
            one(workdir)
    return edit


def _touch(workdir: Path) -> None:
    _edit("insurance.adl", "// Customer-service", "// touched\n// Customer-service")(workdir)


def _another_catalogs_cache(workdir: Path) -> None:
    run("--catalog", str(workdir / "catalog.txt"), "--cache", str(workdir / "catalog_full.txt.idx"),
        "index", "build")


def _catalog_lists(*units: str):
    def edit(workdir: Path) -> None:
        (workdir / "extra.adl").write_text("type Extra;\n")
        (workdir / "catalog_full.txt").write_text("".join(f"{unit}\n" for unit in units))
    return edit


_UNITS = ("types.adl", "document_manager.adl", "insurance.adl", "base.adl", "derived.adl",
          "solo.adl")
_DOCUMENT_PROTOCOL = _edit("document_manager.adl", "(?searchDocuments + ?setPreference)* | ", "")

# an edit made after a `match` built the cache, the state limit of the next
# match, and that match's note after "cache stale; ", or None when the rebuild
# fails as a cold build does
STALE_EDITS = {
    # taken by re-deriving the units that changed
    "protocol edit in an unneeded unit": (_DOCUMENT_PROTOCOL, None, "re-derived 1 of 6 units"),
    "method added to an interface of an unneeded unit": (
        _edit("document_manager.adl", "searchDocuments(params: String);\n",
              "searchDocuments(params: String);\n  archive(documentId: String);\n"),
        None, "re-derived 1 of 6 units"),
    "causal block edited in an unneeded unit": (_edit("solo.adl", "(?s ?t)*", "(?s + ?t)*"),
                                                None, "re-derived 1 of 6 units"),
    "comments in two unneeded units": (
        _edits(_edit("solo.adl", "interface Solo ", "// edited\ninterface Solo "),
               _edit("types.adl", "type String;", "type String; // edited")),
        None, "re-derived 2 of 6 units"),
    # taken by the full load
    "protocol text": (_edit("insurance.adl", "protocol { (?getBalance + ?listTransactions)* }",
                            "protocol { ?getBalance (?getBalance + ?listTransactions)* }"),
                      None, "full load: insurance.adl is not self-contained"),
    "method added to a base interface": (
        _edit("base.adl", "a(x: String);", "a(x: String); c(x: String);"), None,
        "full load: base.adl is needed by derived.adl"),
    "method added to a required interface": (_edit("base.adl", "f(x: String);",
                                                   "f(x: String); g(x: String);"), None, None),
    "causal block that breaks the projection": (_edit("insurance.adl", "(?inquire ?lookup)*",
                                                      "?lookup (?inquire ?lookup)*"), None, None),
    "state limit below the cache's": (_touch, "2", None),
    "cache of another catalog": (_another_catalogs_cache, None,
                                 "full load: the catalog lists other units"),
    "declaration renamed": (_edit("document_manager.adl", "DocInternal", "DocPlumbing"),
                            None, "full load: document_manager.adl changes its declarations"),
    "declaration added": (_edit("document_manager.adl", "interface DocInternal {",
                                "interface Spare { }\ninterface DocInternal {"),
                          None, "full load: document_manager.adl changes its declarations"),
    "supertype changed": (_edit("types.adl", "type Document;", "type Document <: Party;"),
                          None, "full load: types.adl changes its declarations"),
    "needed unit edited": (_edit("base.adl", "interface Feed", "// edited\ninterface Feed"),
                           None, "full load: base.adl is needed by derived.adl"),
    "reference to another unit gained": (
        _edit("document_manager.adl", "required interface DocRepositoryServices",
              "required interface DirectoryFeed"),
        None, "full load: document_manager.adl names a declaration of another unit"),
    "architecture unit edited": (_touch, None, "full load: insurance.adl is not self-contained"),
    "unit added": (_edits(_catalog_lists(*_UNITS, "extra.adl"), _DOCUMENT_PROTOCOL), None,
                   "full load: the catalog lists other units"),
    "unit removed": (_edits(_catalog_lists(*_UNITS[:-1]), _DOCUMENT_PROTOCOL), None,
                     "full load: the catalog lists other units"),
    "units reordered": (_catalog_lists(*_UNITS[::-1]), None,
                        "full load: the catalog lists other units"),
    "check broken": (_edit("solo.adl", "(?s ?t)*", "?t (?s ?t)*"), None, None),
    "requirement that needs the catalog": (
        _edits(_DOCUMENT_PROTOCOL, lambda workdir: (workdir / "account_req.adl").write_text(
            "type String;\ninterface WantAccount extends AccountInquiry { }\n")),
        None, "full load: the requirement needs the catalog"),
}


def _stale_catalog(workdir: Path) -> list[str]:
    """The fixture catalog and three more units, its cache built by a match;
    the arguments of that match."""
    (workdir / "base.adl").write_text(BASE_ADL)
    (workdir / "derived.adl").write_text(DERIVED_ADL)
    (workdir / "solo.adl").write_text(SOLO_ADL)
    (workdir / "account_req.adl").write_text(ACCOUNT_REQ)
    with (workdir / "catalog_full.txt").open("a") as catalog:
        catalog.write("base.adl\nderived.adl\nsolo.adl\n")
    args = ["--catalog", str(workdir / "catalog_full.txt"),
            "match", str(workdir / "account_req.adl")]
    assert run(*args).exit_code == 0  # builds the cache
    return args


@pytest.mark.parametrize("case", list(STALE_EDITS))
def test_a_stale_cache_rebuild_equals_a_cold_build(workdir, monkeypatch, case):
    edit, limit, note = STALE_EDITS[case]
    env = {} if limit is None else {"ARCHMATCH_STATE_LIMIT": limit}
    match_args = _stale_catalog(workdir)
    edit(workdir)
    calls = _count_calls(monkeypatch)
    stale = run(*match_args, env=env)
    parses = calls["parse_unit"]
    cold = run("--cache", str(workdir / "cold.idx"), *match_args, env=env)
    assert (stale.stdout, stale.exit_code) == (cold.stdout, cold.exit_code)
    assert _without_index_note(stale.stderr) == _without_index_note(cold.stderr)
    if note is None:  # the rebuild fails as the cold build does
        assert stale.exit_code == cold.exit_code == 2
        assert "index: " not in stale.stderr
        return
    components = len(repo.reach(repo.load_cache(workdir / "cold.idx")[0]).entries)
    assert f"index: built ({components} component(s); cache stale; {note})\n" in stale.stderr
    # the requirement is no catalog unit, and is parsed once either way
    if note.startswith("re-derived "):
        assert parses == 1 + int(note.split()[1])  # the changed units
    else:  # every unit once, also the units `_rederive` parsed before it refused
        units = repo.Units.listed(workdir / "catalog_full.txt",
                                  (workdir / "catalog_full.txt").read_text())
        assert parses == 1 + len(units.paths)
    build = run(*match_args[:2], "--cache", str(workdir / "built.idx"), "index", "build")
    assert build.exit_code == 0
    built = (workdir / "built.idx").read_bytes()
    assert (workdir / "catalog_full.txt.idx").read_bytes() == built
    assert (workdir / "cold.idx").read_bytes() == built


def test_a_full_load_decodes_no_stale_entry(workdir, monkeypatch):
    match_args = _stale_catalog(workdir)
    STALE_EDITS["method added to a base interface"][0](workdir)
    decoded = []

    def entry_from_json(name, comp, lattice, _real=repo._entry_from_json):
        decoded.append(name)
        return _real(name, comp, lattice)
    monkeypatch.setattr(repo, "_entry_from_json", entry_from_json)
    res = run(*match_args)
    assert "full load: base.adl is needed by derived.adl" in res.stderr
    assert decoded == []  # it builds every entry, as a cold build does


# --- random edit sequences: every stale rebuild writes what a cold build does ---------------

_WANT = ("type T0;\ninterface Want { m0_0(x: T0); }\n"
         "contract WantCtr implements Want { protocol { ?m0_0* } }\n")
# what an edit of the catalog below changes: (operation, unit, choice)
_EDIT_OPERATIONS = ("protocol", "method", "rename", "extends", "required", "supertype",
                    "comment", "causal", "publication", "order")


def _unit_text(i: int, unit: dict, units: list[dict]) -> str:
    """Unit `i` of the catalog `_edit_sequence` edits, as `unit` describes it."""
    own = [name for name, _ in unit["methods"]]
    alternatives = " + ".join(f"?{name}" for name in own)
    protocol_ = (f"({alternatives})*", " ".join(f"?{name}" for name in own),
                 f"?{own[-1]} ({alternatives})*")[unit["protocol"]]
    k = i if unit["required"] is None else unit["required"]
    causal = ("", f"\n  causal {{ ({protocol_}) (?r{k})* }}",
              f"\n  causal {{ ?r{k} ({protocol_}) }}")[unit["causal"]]  # the last one fails
    extends = "" if unit["extends"] is None else f" extends I{unit['extends']}"
    methods = "".join(f"  {name}(x: T{t});\n" for name, t in unit["methods"])
    return "".join(f"// edit {n}\n" for n in range(unit["comments"])) + (
        f"interface I{i}{extends} {{\n{methods}}}\n"
        f"interface {unit['feed']} {{ r{i}(x: T0); }}\n"
        f"contract C{i} implements I{i} {{ protocol {{ {protocol_} }} }}\n"
        f"component K{i} {{\n  provided contract C{i}\n"
        f"  required interface {units[k]['feed']}{causal}\n}}\n") + (
        f"publication P{i} {{ provided contract C{i} }}\n" if unit["publication"] else "")


def _apply(edit: tuple[str, int, int], units: list[dict], catalog: dict) -> None:
    operation, i, choice = edit
    unit = units[i]
    if operation in ("protocol", "causal"):
        unit[operation] = choice
    elif operation == "method" and len(unit["methods"]) < 3:
        unit["methods"].append((f"m{i}_{len(unit['methods'])}", choice % 2))
    elif operation == "rename":
        unit["feed"] += "x"
    elif operation == "extends":  # only on a unit before it, so that no chain cycles
        unit["extends"] = choice if choice < i else None
    elif operation == "required":
        unit["required"] = None if choice == i else choice
    elif operation == "supertype":
        catalog["supertype"] = not catalog["supertype"]
    elif operation == "comment":
        unit["comments"] += 1
    elif operation == "publication":
        unit["publication"] = not unit["publication"]
    elif operation == "order":
        catalog["order"] = catalog["order"][1:] + catalog["order"][:1]


def _write_edited_catalog(root: Path, units: list[dict], catalog: dict) -> None:
    """Write the catalog and each unit whose text changed."""
    supertype = " <: T0" if catalog["supertype"] else ""
    texts = {"types.adl": f"type T0;\ntype T1{supertype};\n",
             "cat.txt": "".join(f"{name}\n" for name in ["types.adl"] + [
                 f"u{i}.adl" for i in catalog["order"]])}
    texts.update((f"u{i}.adl", _unit_text(i, unit, units)) for i, unit in enumerate(units))
    for name, text in texts.items():
        if not (root / name).is_file() or (root / name).read_text() != text:
            (root / name).write_text(text)


@settings(deadline=None)  # the example count is the profile's (tests/conftest.py)
@given(st.lists(st.tuples(st.sampled_from(_EDIT_OPERATIONS), st.integers(0, 2), st.integers(0, 2)),
                min_size=1, max_size=6))
def test_edit_sequences_rebuild_as_a_cold_build(edits):
    units = [{"methods": [(f"m{i}_0", 0)], "protocol": 0, "extends": None, "required": None,
              "causal": int(i == 1), "publication": i == 2, "feed": f"R{i}", "comments": 0}
             for i in range(3)]
    catalog = {"supertype": True, "order": [0, 1, 2]}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "want.adl").write_text(_WANT)
        _write_edited_catalog(root, units, catalog)
        args = ["--catalog", str(root / "cat.txt"), "match", str(root / "want.adl")]
        assert run(*args).exit_code == 0  # builds the cache
        for edit in edits:
            _apply(edit, units, catalog)
            _write_edited_catalog(root, units, catalog)
            stale = run(*args)
            (root / "cold.idx").unlink(missing_ok=True)
            cold = run("--cache", str(root / "cold.idx"), *args)
            assert (stale.stdout, stale.exit_code) == (cold.stdout, cold.exit_code), edit
            assert _without_index_note(stale.stderr) == _without_index_note(cold.stderr), edit
            if stale.exit_code != 2:
                assert run(*args[:2], "--cache", str(root / "built.idx"), "index", "build"
                           ).exit_code == 0
                built = (root / "built.idx").read_bytes()
                assert (root / "cat.txt.idx").read_bytes() == built, edit
                assert (root / "cold.idx").read_bytes() == built, edit
            event(f"re-derived: {'re-derived' in stale.stderr}")


def test_a_defective_stale_cache_lends_the_rebuild_nothing(workdir):
    cache = workdir / "catalog_full.txt.idx"
    catalog = str(workdir / "catalog_full.txt")
    match_args = ["--catalog", catalog, "match", str(workdir / "manage_documents_req.adl")]
    run(*match_args)
    text = cache.read_text()
    _touch(workdir)
    clean = run(*match_args)
    rebuilt = cache.read_bytes()
    broken = {f"truncated to {n}": text[:n] for n in (0, 10, 17, len(text) // 2, len(text) - 1)}
    broken.update((name, defect(text)) for name, defect in DEFECTS.items())
    for name, body in broken.items():
        cache.write_text(body)
        res = run(*match_args)
        assert (res.stdout, res.exit_code) == (clean.stdout, clean.exit_code), name
        assert "index: built " in res.stderr, name
        assert cache.read_bytes() == rebuilt, name


def test_an_edit_that_breaks_an_unchanged_unit_gives_the_diagnostics_of_a_parse(workdir):
    catalog = str(workdir / "catalog_full.txt")
    match_args = ["match", str(workdir / "manage_documents_req.adl")]
    run("--catalog", catalog, *match_args)  # writes the cache
    types = workdir / "types.adl"
    types.write_text(types.read_text().replace("type String;", ""))
    stale = run("--catalog", catalog, *match_args)
    cold = run("--catalog", catalog, "--cache", str(workdir / "cold.idx"), *match_args)
    assert stale.exit_code == cold.exit_code == 2
    assert "document_manager.adl:" in stale.stderr and "insurance.adl:" in stale.stderr
    assert stale.stderr_bytes == cold.stderr_bytes


# --- a syntax memo left beside the cache by an earlier version -----------------------

# the syntax memo (`ARCHMATCH-SYNTAX v1`) that `index build` wrote for
# fixtures/catalog_full.txt before the memo was removed
V1_SYNTAX_MEMO = FIXTURES / "catalog_full_v1_syntax_memo.bin"
# what an earlier version may have left at `<cache>.syntax`
LEFTOVER_MEMOS = {
    "the memo an earlier version wrote": lambda memo: shutil.copy(V1_SYNTAX_MEMO, memo),
    "garbage bytes": lambda memo: memo.write_bytes(b"\0\xffnot a memo\n" * 3),
    "a directory": Path.mkdir,
    "an unreadable file": lambda memo: os.symlink(memo.name, memo),  # a loop
}


def _opened(monkeypatch) -> list[str]:
    """The files that `open` and `Path.open` are asked for from now on."""
    opened: list[str] = []

    def spying(file, *args, _real=open, **kwargs):
        opened.append(str(file))
        return _real(file, *args, **kwargs)

    def path_spying(path, *args, _real=Path.open, **kwargs):
        opened.append(str(path))
        return _real(path, *args, **kwargs)
    monkeypatch.setattr(builtins, "open", spying)
    monkeypatch.setattr(Path, "open", path_spying)
    return opened


def _as_found(path: Path) -> tuple:
    """What a rewrite or a removal of `path` would change."""
    found = path.lstat()
    return found.st_ino, found.st_mtime_ns, os.readlink(path) if path.is_symlink() else \
        sorted(os.listdir(path)) if path.is_dir() else path.read_bytes()


@pytest.mark.parametrize("leftover", list(LEFTOVER_MEMOS))
def test_a_syntax_memo_left_by_an_earlier_version_is_ignored(workdir, monkeypatch, leftover):
    catalog = str(workdir / "catalog_full.txt")
    match_args = ["--catalog", catalog, "match", str(workdir / "manage_documents_req.adl")]
    cache, memo = workdir / "catalog_full.txt.idx", workdir / "catalog_full.txt.idx.syntax"
    assert run("--catalog", catalog, "index", "build").exit_code == 0
    LEFTOVER_MEMOS[leftover](memo)
    found = _as_found(memo)
    opened = _opened(monkeypatch)
    warm = run(*match_args)
    assert warm.stderr == "index: cache (5 component(s))\n"
    inspect = run("--catalog", catalog, "index", "inspect")
    assert inspect.exit_code == 0 and "memo" not in inspect.stdout
    _DOCUMENT_PROTOCOL(workdir)
    stale = run(*match_args)
    assert stale.stderr == "index: built (5 component(s); cache stale; re-derived 1 of 3 units)\n"
    cold = run("--cache", str(workdir / "cold.idx"), *match_args)
    assert run("--catalog", catalog, "--cache", str(workdir / "built.idx"), "index", "build"
               ).exit_code == 0
    assert not [path for path in opened if path.endswith(".syntax")]
    monkeypatch.undo()
    assert _as_found(memo) == found
    assert (stale.stdout, stale.exit_code) == (cold.stdout, cold.exit_code)
    assert cache.read_bytes() == (workdir / "cold.idx").read_bytes() == \
        (workdir / "built.idx").read_bytes()
    assert [path.name for path in workdir.glob("*.syntax")] == [memo.name]  # no build writes one


# --- no unit, however hostile, ends in a traceback ---------------------------------------

_HOSTILE = ("type T;\ninterface I {{ {method}(x: T); }}\n"
            "contract C implements I {{ protocol {{ {protocol} }} }}\n"
            "component K {{ provided contract C }}\n")
_PLAIN = _HOSTILE.format(method="a", protocol="?a*")
# the text of a unit of each hostile shape, in bytes
HOSTILE_UNITS = {
    "invalid UTF-8": _PLAIN.encode() + b"// \xff\xfe\n",
    "a NUL byte": _PLAIN.replace(";", ";\0", 1).encode(),
    "5,000-deep parentheses": _HOSTILE.format(
        method="a", protocol="(" * 5000 + "?a" + ")" * 5000).encode(),
    "a 200,000-character identifier": _HOSTILE.format(
        method="m" * 200_000, protocol=f"?{'m' * 200_000}*").encode(),
    "unbalanced braces": _PLAIN.replace("component K {", "component K { {").encode(),
    "3,000 nested stars": _HOSTILE.format(
        method="a", protocol="(" * 3000 + "?a" + ")*" * 3000).encode(),
    "cyclic subtypes": ("type U <: V;\ntype V <: U;\n" + _PLAIN.replace("x: T", "x: U")).encode(),
    "cyclic extends": ("interface J extends I { b(x: T); }\n"
                       + _PLAIN.replace("interface I {", "interface I extends J {")).encode(),
}
# each command on `hostile.adl`, alone or in the catalog `hostile.txt`; `match`
# runs twice, to build a cache and to read it
_ON_HOSTILE = (["check", "hostile.adl"],
               ["--catalog", "hostile.txt", "match", "manage_documents_req.adl"],
               ["--catalog", "hostile.txt", "match", "manage_documents_req.adl"],
               ["--catalog", "hostile.txt", "index", "build"],
               ["--catalog", "catalog_full.txt", "match", "hostile.adl"],
               ["--catalog", "hostile.txt", "arch"], ["protocol", "--unit", "hostile.adl", "C"])


@pytest.mark.parametrize("shape", list(HOSTILE_UNITS))
def test_no_hostile_unit_ends_in_a_traceback(workdir, monkeypatch, shape):
    monkeypatch.chdir(workdir)
    (workdir / "hostile.adl").write_bytes(HOSTILE_UNITS[shape])
    (workdir / "hostile.txt").write_text("types.adl\nhostile.adl\n")
    for args in _ON_HOSTILE:
        res = run(*args)
        assert res.exit_code in (0, 1, 2), (args, res.stderr[-500:])
        assert not [line for line in res.stderr.splitlines()
                    if "Traceback" in line or "internal error" in line], args


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("args", [["protocol", "?a ?b"], ["protocol", "?a ?"]], ids=["ok", "error"])
def test_main_pauses_the_collector_and_leaves_it_as_it_found_it(monkeypatch, collecting, args):
    during = []

    def compile_(*args, _real=protocol.compile, **kwargs):
        during.append(gc.isenabled())
        return _real(*args, **kwargs)
    monkeypatch.setattr(protocol, "compile", compile_)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        res = run(*args)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert res.exit_code == (0 if args[1] == "?a ?b" else 2)
    assert during == ([False] if res.exit_code == 0 else [])


def _without_index_note(stderr: str) -> list[str]:
    return [line for line in stderr.splitlines() if not line.startswith("index: ")]


@pytest.mark.parametrize("case", sorted(GOLDEN_EXIT_CODES))
def test_match_output_is_the_golden_output(workdir, case):
    catalog, name = case.split("/")
    requirement, output_format = name.split(".")
    args = ["--catalog", str(workdir / f"{catalog}.txt"), "match",
            str(workdir / f"{requirement}.adl"), "--format", output_format]
    cold = run(*args)  # builds the cache
    warm = run(*args)  # answered from it
    assert "index: built " in cold.stderr and "index: cache " in warm.stderr
    for res in (cold, warm):
        assert res.stdout_bytes == (GOLDEN / case).read_bytes()
        assert res.exit_code == GOLDEN_EXIT_CODES[case]
    assert _without_index_note(cold.stderr) == _without_index_note(warm.stderr)


def _count_calls(monkeypatch) -> Counter:
    """Count the calls of the loading layers a warm `match` can skip."""
    calls: Counter = Counter()
    for module, name in ((dsl, "parse_unit"), (model, "validate_publication"),
                         (category, "close")):
        def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return calls


def test_a_warm_match_parses_only_the_requirement(workdir, monkeypatch):
    calls = _count_calls(monkeypatch)
    args = ["--catalog", str(workdir / "catalog_full.txt"),
            "match", str(workdir / "manage_documents_req.adl")]
    run(*args)
    assert calls["parse_unit"] == 4  # three catalog units and the requirement
    assert calls["validate_publication"] > 0 and calls["close"] == 0
    calls.clear()
    assert "index: cache " in run(*args).stderr
    assert [calls[name] for name in ("parse_unit", "validate_publication", "close")] == [1, 0, 0]


def test_only_arch_and_link_close_architectures(workdir, monkeypatch):
    catalog = str(workdir / "catalog_full.txt")
    units = [str(workdir / name) for name in ("types.adl", "document_manager.adl",
                                              "insurance.adl")]
    calls = _count_calls(monkeypatch)
    for args in (["match", str(workdir / "manage_documents_req.adl")],
                 ["match", str(workdir / "manage_documents_req.adl")],
                 ["check", *units], ["index", "build"]):
        assert run("--catalog", catalog, *args).exit_code == 0, args
    assert calls["close"] == 0
    run("--catalog", catalog, "arch")  # CustomerService and BackOffice
    assert calls["close"] == 2
    run("--catalog", catalog, "link", "Realization")  # its source and target
    assert calls["close"] == 4


def test_a_warm_match_parses_the_requirement_once(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    (workdir / "req.adl").write_text(FALLBACKS["declares a component"][0])
    run("--catalog", "catalog_full.txt", "match", "req.adl")  # builds the cache
    parsed: Counter = Counter()

    def counting(unit, _real=dsl.parse_unit):
        parsed[unit.path] += 1
        return _real(unit)
    monkeypatch.setattr(dsl, "parse_unit", counting)
    res = run("--catalog", "catalog_full.txt", "match", "req.adl")
    assert "index: cache " in res.stderr
    # the catalog is loaded once
    assert parsed == {"req.adl": 1, "types.adl": 1, "document_manager.adl": 1,
                      "insurance.adl": 1}


# requirements the cache cannot answer alone: the text of `req.adl` (None: the
# catalog lists `manage_documents_req.adl` and it is the requirement), and the
# exit code, first stdout line and stderr of a warm `match`, recorded before a
# warm `match` could skip the catalog
FALLBACKS = {
    "extends a catalog interface": (
        "type String;\ninterface R extends ManageDocument { extra(x: String); }\n",
        0, "ADAPT DocumentManager", "index: cache (5 component(s))\n"),
    "implements a catalog interface": (
        "type String;\ninterface R { viewDocument(documentId: String); }\n"
        "contract RC implements ManageDocument { }\n",
        0, "USE DocumentManager", "index: cache (5 component(s))\n"),
    "declares a component": (
        "type String;\ninterface R { viewDocument(documentId: String); }\n"
        "contract RC implements R { }\ncomponent RK { provided contract RC }\n",
        0, "USE DocumentManager", "index: cache (5 component(s))\n"),
    "interface named like a catalog contract": (
        "type String;\ninterface ManageDocumentCtr { viewDocument(documentId: String); }\n",
        2, None, "document_manager.adl:20:1: error: duplicate declaration of "
                 "'ManageDocumentCtr' [duplicate-declaration]\n"
                 "document_manager.adl:28:1: error: unknown contract 'ManageDocumentCtr' "
                 "[unbound-name]\n"),
    "a catalog unit": (None, 0, "USE DocumentManager", "index: cache (1 component(s))\n"),
    "an unreadable unit": (
        None, 2, None, "document_manager.adl:1:1: error: cannot read unit file "
                       "document_manager.adl: 'utf-8' codec can't decode byte 0xff in position "
                       "1114: invalid start byte [unreadable-file]\n"),
}


@pytest.mark.parametrize("case", list(FALLBACKS))
def test_a_warm_match_falls_back_to_the_whole_catalog(workdir, monkeypatch, case):
    text, code, first_line, stderr = FALLBACKS[case]
    monkeypatch.chdir(workdir)
    (workdir / "cat.txt").write_text("types.adl\ndocument_manager.adl\nmanage_documents_req.adl\n")
    catalog, requirement = ("catalog_full.txt", "req.adl") if text else \
        ("cat.txt", "manage_documents_req.adl")
    if text:
        (workdir / requirement).write_text(text)
    cold = run("--catalog", catalog, "match", requirement)
    if case == "an unreadable unit":
        unit = workdir / "document_manager.adl"
        unit.write_bytes(unit.read_bytes() + b"\n# \xff\n")
    calls = _count_calls(monkeypatch)
    res = run("--catalog", catalog, "match", requirement)
    assert calls["parse_unit"] > 1  # the catalog was loaded
    assert (res.exit_code, res.stderr) == (code, stderr)
    assert res.stdout.splitlines()[:1] == ([first_line] if first_line else [])
    if code == 0:
        assert res.stdout == cold.stdout


# how each case leaves the cache before a `match`, and that match's index note
CACHE_LOADS = {
    "missing": (None, "built (5 component(s); cache missing)"),
    "fresh": (lambda cache: None, "cache (5 component(s))"),
    "stale": (lambda cache: (cache.parent / "insurance.adl").write_text(
        (cache.parent / "insurance.adl").read_text() + "\n// touched\n"),
        "built (5 component(s); cache stale; full load: insurance.adl is not self-contained)"),
    "corrupt": (lambda cache: cache.write_text(f"{repo.CACHE_MAGIC}\n{{}}\n"),
                "built (5 component(s); corrupt cache: KeyError: 'hash')"),
    "v6 cache": (lambda cache: shutil.copy(V6_CACHE, cache),
                 "built (5 component(s); unsupported cache version (expected ARCHMATCH-IDX v12))"),
    "lowered limit": (lambda cache: None, "built (5 component(s); cache built under a higher "
                                          f"state limit ({protocol.DEFAULT_STATE_LIMIT}))"),
    "a catalog unit": (lambda cache: None, "cache (1 component(s))"),
    "declares a component": (lambda cache: None, "cache (5 component(s))"),
}


@pytest.mark.parametrize("case", list(CACHE_LOADS))
def test_a_match_decodes_the_cache_at_most_once(workdir, monkeypatch, case):
    setup, note = CACHE_LOADS[case]
    monkeypatch.chdir(workdir)
    (workdir / "cat.txt").write_text("types.adl\ndocument_manager.adl\nmanage_documents_req.adl\n")
    catalog, requirement = ("cat.txt", "manage_documents_req.adl") if case == "a catalog unit" \
        else ("catalog_full.txt", "req.adl")
    text = FALLBACKS[case][0] if case == "declares a component" else \
        (workdir / "manage_documents_req.adl").read_text()
    (workdir / "req.adl").write_text(text)
    args = ["--catalog", catalog, "match", requirement]
    if setup is not None:
        run(*args)  # builds the cache
        setup(workdir / f"{catalog}.idx")
    loads = []

    def load_cache(*args, _real=repo.load_cache):
        loads.append(args)
        return _real(*args)

    monkeypatch.setattr(repo, "load_cache", load_cache)
    res = run(*args, env={"ARCHMATCH_STATE_LIMIT": "50"} if case == "lowered limit" else {})
    assert res.exit_code == 0 and res.stderr == f"index: {note}\n"
    assert len(loads) == (setup is not None)


@pytest.mark.parametrize("cache", ["missing/x.idx", "directory"])
def test_match_answers_when_the_cache_cannot_be_written(workdir, cache):
    (workdir / "directory").mkdir()
    args = ["match", str(workdir / "manage_documents_req.adl")]
    clean = run("--catalog", str(workdir / "catalog.txt"), *args)
    res = run("--catalog", str(workdir / "catalog.txt"), "--cache", str(workdir / cache), *args)
    assert (res.stdout, res.exit_code) == (clean.stdout, clean.exit_code)
    if cache.startswith("missing"):
        read, write = "cache missing", "No such file or directory"
    else:
        read = f"cannot read cache: [Errno {errno.EISDIR}] Is a directory: {str(workdir / cache)!r}"
        write = "Is a directory"
    assert [line for line in res.stderr.splitlines() if line.startswith("index: ")] == \
        [f"index: built (1 component(s); {read}; cannot write cache: {write})"]
    assert not any(".tmp" in p.name for p in workdir.rglob("*"))


@pytest.mark.parametrize("cache", ["missing/x.idx", "directory"])
def test_index_build_reports_an_unwritable_cache(workdir, cache):
    (workdir / "directory").mkdir()
    res = run("--catalog", str(workdir / "catalog.txt"), "--cache", str(workdir / cache),
              "index", "build")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: cannot write cache ") and \
        len(res.stderr.splitlines()) == 1
    assert not any(".tmp" in p.name for p in workdir.rglob("*"))


# --- a warm match decodes only what its requirement reaches ---------------------------

@pytest.mark.parametrize("defect", list(FIELD_DEFECTS))
def test_a_resealed_defect_is_found_where_it_is_decoded(workdir, defect):
    # under a right checksum only decoding finds a defect: a full load always
    # decodes it, and so does a match whose requirement reaches the entry
    cache = workdir / "catalog_full.txt.idx"
    (workdir / "account_req.adl").write_text(ACCOUNT_REQ)  # reaches AccountService
    match_args = ["--catalog", str(workdir / "catalog_full.txt"),
                  "match", str(workdir / "account_req.adl")]
    clean = run(*match_args)
    text = cache.read_text()
    cache.write_text(resealed(FIELD_DEFECTS[defect](text)))
    with pytest.raises(repo.CacheError, match="^corrupt cache: "):
        repo.reach(repo.load_cache(cache)[0])
    inspect = run("--catalog", str(workdir / "catalog_full.txt"), "index", "inspect")
    assert (inspect.exit_code, inspect.stdout) == (2, "")
    res = run(*match_args)
    if defect != "wrong shape":  # which hides AccountService from the requirement
        assert (res.stdout, res.exit_code) == (clean.stdout, clean.exit_code)
    if defect in UNREAD_ON_A_HIT:
        assert "index: cache (5 component(s))\n" in res.stderr
    else:
        assert "index: built (5 component(s); corrupt cache: " in res.stderr
        assert cache.read_text() == text


# requirements besides the fixtures' that a warm match must answer as a cold one
WARM_AS_COLD = {
    "no methods": "interface Nothing { }\n",
    "a subtype of a catalog type": (
        "type String;\ntype AccountId <: String;\n"
        "interface WantBalance {\n  getBalance(accountId: AccountId): String;\n}\n"),
    # README: shared types may only be repeated verbatim, so a requirement
    # cannot change a catalog method's shape
    "a catalog type with another supertype": (
        "type Party;\ntype Account <: Party;\ninterface Open {\n  open(owner: Account);\n}\n"),
}


@pytest.mark.parametrize("case", ["manage_documents_req.adl", "manage_documents_view_req.adl",
                                  "manage_portfolio_req.adl", *WARM_AS_COLD])
def test_a_warm_match_answers_as_a_cold_one(workdir, case):
    requirement = workdir / case
    if case in WARM_AS_COLD:
        requirement = workdir / "req.adl"
        requirement.write_text(WARM_AS_COLD[case])
    catalog = ["--catalog", str(workdir / "catalog_full.txt")]
    assert run(*catalog, "index", "build").exit_code == 0
    warm = run(*catalog, "match", str(requirement))
    cold = run(*catalog, "--cache", str(workdir / "cold.idx"), "match", str(requirement))
    assert (warm.stdout, warm.exit_code) == (cold.stdout, cold.exit_code)
    assert _without_index_note(warm.stderr) == _without_index_note(cold.stderr)
    if case == "a catalog type with another supertype":
        assert warm.exit_code == 2 and warm.stdout == ""
        assert "type 'Account' redeclared with a different supertype" in warm.stderr
    else:
        assert "index: cache (5 component(s))\n" in warm.stderr


# --- link -------------------------------------------------------------------------

def test_link_pass(workdir):
    res = run("--quiet", "--catalog", str(workdir / "catalog_full.txt"),
              "link", "Realization")
    assert res.exit_code == 0
    assert res.output.strip() == "link Realization: PASS"


def test_link_broken(tmp_path):
    (tmp_path / "broken.adl").write_text(
        "interface I1 { }\ninterface I2 { }\n"
        "contract C1 implements I1 { }\ncontract C2 implements I2 { }\n"
        "component K1 { provided contract C1 }\n"
        "component K2 { provided contract C2 }\n"
        "architecture business BA {\n"
        "  object I1;\n  object I2;\n  morphism I1 -ext-> I2;\n}\n"
        "architecture application AA {\n"
        "  object K1;\n  object K2;\n}\n"
        "link L from BA to AA {\n"
        "  map I1 -> K1;\n  map I2 -> K2;\n"
        "  generator ext -> use;\n  generator cmp -> cmp;\n}\n")
    (tmp_path / "cat.txt").write_text("broken.adl\n")
    res = run("--quiet", "--catalog", str(tmp_path / "cat.txt"), "link", "L")
    assert res.exit_code == 1
    assert "FAIL" in res.output
    assert "K1 -use-> K2" in res.output


def test_link_passes_through_a_derived_target_morphism(tmp_path):
    (tmp_path / "chain.adl").write_text(
        "interface I1 { }\ninterface I3 { }\n"
        "interface J1 { }\ninterface J2 { }\ninterface J3 { }\n"
        "contract C1 implements J1 { }\ncontract C2 implements J2 { }\n"
        "contract C3 implements J3 { }\n"
        "component K1 { provided contract C1 }\n"
        "component K2 { provided contract C2 }\n"
        "component K3 { provided contract C3 }\n"
        "architecture business BA {\n"
        "  object I1;\n  object I3;\n  morphism I1 -ext-> I3;\n}\n"
        "architecture application AA {\n"
        "  object K1;\n  object K2;\n  object K3;\n"
        "  morphism K1 -use-> K2;\n  morphism K2 -use-> K3;\n}\n"
        "link L from BA to AA {\n"
        "  map I1 -> K1;\n  map I3 -> K3;\n"
        "  generator ext -> use;\n  generator cmp -> cmp;\n}\n")
    (tmp_path / "cat.txt").write_text("chain.adl\n")
    res = run("--quiet", "--catalog", str(tmp_path / "cat.txt"), "link", "L")
    # K1 -use-> K3 exists only in the closure of AA
    assert (res.exit_code, res.output) == (0, "link L: PASS\n")


def test_link_unknown(workdir):
    res = run("--quiet", "--catalog", str(workdir / "catalog_full.txt"), "link", "Nope")
    assert res.exit_code == 2


# --- index ------------------------------------------------------------------------

def test_index_build_and_inspect(workdir):
    res = run("--catalog", str(workdir / "catalog_full.txt"), "index", "build")
    assert res.exit_code == 0
    assert "indexed 5 component(s)" in res.output
    res = run("--catalog", str(workdir / "catalog_full.txt"), "index", "inspect")
    assert res.exit_code == 0
    assert "components: 5" in res.output
    assert "freshness: fresh" in res.output
    assert "DocumentManager" in res.output


def test_index_inspect_reads_freshness_from_the_unit_texts(workdir, monkeypatch):
    catalog = str(workdir / "catalog_full.txt")
    run("--catalog", catalog, "index", "build")
    calls = _count_calls(monkeypatch)
    res = run("--catalog", catalog, "index", "inspect")
    assert "freshness: fresh\n" in res.output
    assert [calls[name] for name in ("parse_unit", "validate_publication")] == [0, 0]
    # a unit that no longer parses is still read, so the cache reads as stale
    (workdir / "insurance.adl").write_text("interface {\n")
    res = run("--catalog", catalog, "index", "inspect")
    assert (res.exit_code, res.stderr) == (0, "")
    assert "freshness: stale\n" in res.output
    (workdir / "insurance.adl").unlink()
    assert "freshness:" not in run("--catalog", catalog, "index", "inspect").output


def test_index_inspect_reads_no_unit_of_an_unchanged_catalog(workdir, monkeypatch):
    # freshness is judged as `match` judges it, from the unit stats
    catalog = str(workdir / "catalog_full.txt")
    run("--catalog", catalog, "index", "build")
    cache = workdir / "catalog_full.txt.idx"
    later = os.stat(cache).st_mtime_ns + 10 * 10**9  # every unit changed before the cache
    os.utime(cache, ns=(later, later))
    reads = []

    def text(self, i, _real=repo.Units.text):
        reads.append(i)
        return _real(self, i)
    monkeypatch.setattr(repo.Units, "text", text)
    res = run("--catalog", catalog, "index", "inspect")
    assert (res.exit_code, reads) == (0, [])
    assert "freshness: fresh\n" in res.output


def test_index_inspect_corrupt(workdir):
    cache = workdir / "catalog.txt.idx"
    cache.write_text("garbage\n")
    res = run("--catalog", str(workdir / "catalog.txt"), "index", "inspect")
    assert res.exit_code == 2


def test_state_limit_env_rejected_when_invalid(workdir):
    res = run("protocol", "?a", env={"ARCHMATCH_STATE_LIMIT": "banana"})
    assert res.exit_code == 2


def test_state_limit_env_applies(workdir):
    res = run("--quiet", "protocol", "(?a ?b)* | (?c ?d)*",
              env={"ARCHMATCH_STATE_LIMIT": "2"})
    assert res.exit_code == 2
    assert "protocol too large" in res.stderr


def _grow_fixture_protocols(workdir):
    """Prefix two events to the provided protocols of AccountServicePub and of
    DocumentManager, so that their derivative DFAs have 3 and 15 states: a limit
    of 2 then stops the first publication check, and a limit of 4 the index
    build (at 1 and 3 states, the fixtures stop neither)."""
    for unit, protocol in (("insurance.adl", "(?getBalance + ?listTransactions)*"),
                           ("document_manager.adl", "(?searchDocuments + ?setPreference)*")):
        path = workdir / unit
        first = protocol.split()[0].lstrip("(")
        path.write_text(path.read_text().replace(protocol, f"{first} {first} {protocol}", 1))


# limit 2 stops the first publication check, limit 4 the index build
@pytest.mark.parametrize("limit,args", [
    ("2", ["arch"]),
    ("2", ["link", "Realization"]),
    ("2", ["check", "types.adl", "document_manager.adl", "insurance.adl"]),
    ("2", ["protocol", "DocumentManager"]),
    ("2", ["index", "build"]),
    ("4", ["index", "build"]),
    ("2", ["match", "manage_documents_req.adl"]),
    ("4", ["match", "manage_documents_req.adl"]),
])
def test_state_limit_overflow_while_loading_is_an_input_error(workdir, monkeypatch, limit, args):
    monkeypatch.chdir(workdir)
    _grow_fixture_protocols(workdir)
    res = run("--catalog", "catalog_full.txt", *args, env={"ARCHMATCH_STATE_LIMIT": limit})
    assert res.exit_code == 2
    assert res.stdout == ""
    where = {"2": "publication 'AccountServicePub'", "4": "component 'DocumentManager'"}[limit]
    assert res.stderr == \
        f"error: {where}: protocol too large: determinization exceeds {limit} states\n"


def test_a_lowered_state_limit_reloads_a_warm_cache(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    _grow_fixture_protocols(workdir)
    args = ["--catalog", "catalog_full.txt", "match", "manage_documents_req.adl"]
    run(*args)  # builds the cache at the default limit
    res = run(*args, env={"ARCHMATCH_STATE_LIMIT": "2"})
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", "error: publication 'AccountServicePub': protocol too large: "
               "determinization exceeds 2 states\n")


def test_a_warm_cache_gives_the_cold_answer_under_a_lowered_limit(workdir, monkeypatch):
    # limit 2 passes every publication check but not the index build
    monkeypatch.chdir(workdir)
    args = ["--catalog", "catalog_full.txt", "match", "manage_documents_req.adl"]
    cold = run(*args, env={"ARCHMATCH_STATE_LIMIT": "2"})
    assert not (workdir / "catalog_full.txt.idx").exists()
    run(*args)  # builds the cache at the default limit
    warm = run(*args, env={"ARCHMATCH_STATE_LIMIT": "2"})
    assert (warm.exit_code, warm.stdout, warm.stderr) == (cold.exit_code, cold.stdout, cold.stderr)
    assert cold.stderr == ("error: component 'DocumentManager': protocol too large: "
                           "determinization exceeds 2 states\n")


def test_a_warm_cache_answers_under_a_limit_at_least_the_recorded_one(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    args = ["--catalog", "catalog_full.txt", "match", "manage_documents_req.adl"]
    built = run(*args, env={"ARCHMATCH_STATE_LIMIT": "50"})
    calls = _count_calls(monkeypatch)
    hit = "cache (5 component(s))"
    for limit, loaded, note in (
            ("50", 1, hit), ("1000", 1, hit),
            ("49", 4, "built (5 component(s); cache built under a higher state limit (50))")):
        calls.clear()
        res = run(*args, env={"ARCHMATCH_STATE_LIMIT": limit})
        assert calls["parse_unit"] == loaded, limit
        assert (res.stdout, res.exit_code) == (built.stdout, built.exit_code)
        assert res.stderr == f"index: {note}\n"


@pytest.mark.parametrize("args,bad", [
    pytest.param(["check", "types.adl"], "types.adl", id="check"),
    pytest.param(["protocol", "--unit", "document_manager.adl", "ManageDocumentCtr"],
                 "document_manager.adl", id="protocol-unit"),
    pytest.param(["arch"], "document_manager.adl", id="arch-catalog-unit"),
    pytest.param(["match", "manage_documents_req.adl"], "types.adl", id="match-catalog-unit"),
    pytest.param(["match", "manage_documents_req.adl"], "manage_documents_req.adl",
                 id="match-requirement"),
    pytest.param(["arch"], "catalog.txt", id="arch-catalog-file"),
])
def test_a_file_that_is_not_utf8_is_an_input_error(workdir, monkeypatch, args, bad):
    monkeypatch.chdir(workdir)
    (workdir / bad).write_bytes((workdir / bad).read_bytes() + b"\n# \xff\n")
    res = run("--catalog", "catalog.txt", *args)
    assert res.exit_code == 2
    assert "internal error" not in res.stderr
    [line] = res.stderr.splitlines()
    assert line.startswith(f"{bad}:1:1: error: cannot read ")
    assert "can't decode byte 0xff" in line and line.endswith("[unreadable-file]")


_OPENS: list[Counter] = []  # the count being taken, if any


def _count_open(event: str, args: tuple) -> None:
    """An audit hook: count each file opened by its real path while a count is
    taken. Opening a FIFO fails the command instead of blocking it."""
    if event != "open" or not _OPENS or isinstance(args[0], int):
        return
    path = os.path.realpath(args[0])
    try:
        fifo = stat.S_ISFIFO(os.stat(path).st_mode)
    except OSError:
        fifo = False
    if fifo:
        raise AssertionError(f"opened the FIFO {path}")
    _OPENS[-1][path] += 1


@functools.cache
def _add_open_hook() -> None:
    sys.addaudithook(_count_open)  # it cannot be removed: it stays for the session


@pytest.fixture()
def opens():
    """The files opened while the test runs, counted by real path."""
    _add_open_hook()
    _OPENS.append(Counter())
    yield _OPENS[-1]
    _OPENS.pop()


@pytest.mark.parametrize("unreadable", [False, True], ids=["readable", "not UTF-8"])
def test_no_command_opens_a_unit_file_twice(workdir, monkeypatch, opens, unreadable):
    monkeypatch.chdir(workdir)
    units = ("types.adl", "document_manager.adl", "insurance.adl")
    if unreadable:
        (workdir / units[1]).write_bytes((workdir / units[1]).read_bytes() + b"\n# \xff\n")
    match = ["--catalog", "catalog_full.txt", "match", "manage_documents_req.adl"]
    commands = {"check": (None, ["check", *units]), "cold match": (None, match),
                "warm match": (None, match), "stale match": (_touch, match),
                "index build": (None, ["--catalog", "catalog_full.txt", "index", "build"])}
    for name, (edit, args) in commands.items():
        if edit is not None:
            edit(workdir)
        opens.clear()
        assert run(*args).exit_code == (2 if unreadable else 0), name
        counts = [opens[str(workdir / unit)] for unit in units]
        assert max(counts) <= 1, (name, counts)
        if name in ("check", "cold match", "index build"):  # each unit must be read
            assert counts == [1, 1, 1], (name, counts)


_CANNOT_READ = {  # how the unit file `unit.adl` cannot be read, and the error that says so
    "missing": (lambda unit: None, "no such unit file: unit.adl [missing-file]"),
    "directory": (Path.mkdir, "no such unit file: unit.adl [missing-file]"),
    "FIFO": (os.mkfifo, "no such unit file: unit.adl [missing-file]"),
    "not UTF-8": (lambda unit: unit.write_bytes(b"type T;\n// \xff\n"),
                  "cannot read unit file unit.adl: 'utf-8' codec can't decode byte 0xff in "
                  "position 11: invalid start byte [unreadable-file]"),
}


@pytest.mark.parametrize("case", list(_CANNOT_READ))
def test_a_unit_that_cannot_be_read_gets_one_error_from_every_command(workdir, monkeypatch,
                                                                      opens, case):
    make, error = _CANNOT_READ[case]
    monkeypatch.chdir(workdir)
    make(workdir / "unit.adl")
    (workdir / "units.txt").write_text("types.adl\nunit.adl\n")
    catalog = ["--catalog", "units.txt"]
    for args in (["check", "types.adl", "unit.adl"], ["protocol", "--unit", "unit.adl", "C"],
                 [*catalog, "arch"], [*catalog, "index", "build"],
                 [*catalog, "match", "manage_documents_req.adl"]):
        opens.clear()
        res = run(*args)
        assert (res.exit_code, res.stderr) == (2, f"unit.adl:1:1: error: {error}\n"), args
        assert opens[str(workdir / "unit.adl")] == (case == "not UTF-8"), args


def test_a_unit_listed_with_a_trailing_slash_loads_in_every_command(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    (workdir / "units.txt").write_text("types.adl\ndocument_manager.adl/\n")
    for args in (["arch"], ["index", "build"], ["match", "manage_documents_req.adl"],
                 ["match", "manage_documents_req.adl"]):
        res = run("--catalog", "units.txt", *args)
        assert (res.exit_code, "error" in res.stderr) == (0, False), (args, res.stderr)
    assert res.stdout.startswith("USE DocumentManager\n")


# --- determinism -------------------------------------------------------------------

def test_commands_are_byte_deterministic(workdir):
    cases = [
        ("--quiet", "--catalog", str(workdir / "catalog_full.txt"), "arch", "--closure"),
        ("--quiet", "--catalog", str(workdir / "catalog_full.txt"), "protocol",
         "DocumentManager", "--emit-dfa"),
        ("--quiet", "--catalog", str(workdir / "catalog_full.txt"), "match",
         str(workdir / "manage_documents_req.adl"), "--format", "json"),
        ("--quiet", "--catalog", str(workdir / "catalog_full.txt"), "link", "Realization"),
    ]
    for args in cases:
        first = run(*args)
        second = run(*args)
        assert first.output == second.output
        assert first.exit_code == second.exit_code


# --- the command line --------------------------------------------------------------

GOLDEN_COMMAND_ARGS = {
    "arch": ["--catalog", "catalog_full.txt", "arch"],
    "arch_closure": ["--catalog", "catalog_full.txt", "arch", "--closure"],
    "arch_check": ["--catalog", "catalog_full.txt", "arch", "--check"],
    "arch_closure_check": ["--catalog", "catalog_full.txt", "arch", "--closure", "--check"],
    "link_realization": ["--catalog", "catalog_full.txt", "link", "Realization"],
    "protocol_emit_dfa": ["--catalog", "catalog_full.txt", "protocol", "DocumentManager",
                          "--emit-dfa"],
    "protocol_sample": ["--catalog", "catalog.txt", "protocol", "ManageDocumentCtr",
                        "--sample", "2"],
    "protocol_expression": ["protocol", "(?a + ?b)* ?c"],
    "index_build": ["--catalog", "catalog_full.txt", "index", "build"],
    "index_inspect": ["--catalog", "catalog_full.txt", "index", "inspect"],
}


@pytest.mark.parametrize("case", sorted(GOLDEN_COMMAND_EXIT_CODES))
def test_command_output_is_the_golden_output(workdir, monkeypatch, case):
    monkeypatch.chdir(workdir)
    if case == "index_inspect":
        run(*GOLDEN_COMMAND_ARGS["index_build"])
    res = run(*GOLDEN_COMMAND_ARGS[case])
    assert res.stdout_bytes == (GOLDEN_COMMANDS / f"{case}.stdout").read_bytes()
    assert res.stderr_bytes == (GOLDEN_COMMANDS / f"{case}.stderr").read_bytes()
    assert res.exit_code == GOLDEN_COMMAND_EXIT_CODES[case]


# an exclusion and a range check that the commands make themselves, with their lines
USAGE_ERRORS = {
    "no command": ([], None),
    "index alone": (["index"], None),
    "match without a file": (["match"], None),
    "unknown format": (["match", "req.adl", "--format", "xml"], None),
    "sample not an integer": (["protocol", "?a", "--sample", "x"], None),
    "option prefix": (["--cat", "catalog.txt", "arch"], None),
    "emit-dfa and sample": (["protocol", "?a", "--emit-dfa", "--sample", "1"],
                            "error: --emit-dfa and --sample are mutually exclusive\n"),
    "negative sample": (["protocol", "?a", "--sample", "-1"], "error: --sample must be >= 0\n"),
    "negative sample of a protocol over the limit": (
        ["protocol", "(?a ?b)* | (?c ?d)*", "--sample", "-1"], "error: --sample must be >= 0\n"),
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_errors_exit_two(case):
    args, stderr = USAGE_ERRORS[case]
    # a limit that `(?a ?b)* | (?c ?d)*` exceeds: usage is checked before any construction
    res = run(*args, env={"ARCHMATCH_STATE_LIMIT": "2"})
    assert (res.exit_code, res.stdout) == (2, "")
    assert "Traceback" not in res.stderr
    if stderr is not None:
        assert res.stderr == stderr


# every option and command that each help text listed before the move to argparse
HELP = {
    (): ["--catalog", "--cache", "--quiet", "--help",
         "check", "arch", "protocol", "match", "link", "index"],
    ("check",): ["--help", "UNIT"],
    ("arch",): ["--closure", "--check", "--help", "NAME"],
    ("protocol",): ["--emit-dfa", "--sample", "--unit", "--help", "NAME_OR_EXPR"],
    ("match",): ["--format", "--help", "REQUIREMENT_FILE"],
    ("link",): ["--help", "NAME"],
    ("index",): ["--help", "build", "inspect"],
    ("index", "build"): ["--help"],
    ("index", "inspect"): ["--help"],
}


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: " ".join(c) or "archmatch")
def test_help_names_every_option(command):
    res = run(*command, "--help")
    assert (res.exit_code, res.stderr) == (0, "")
    assert [name for name in HELP[command] if name not in res.stdout] == []


def test_cli_imports_none_of_numpy_scipy_or_click():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, archmatch.cli; "
            "print(sorted({'numpy', 'scipy', 'click'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
