"""Command-line behavior: output shapes, exit codes, determinism."""

from __future__ import annotations

import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from archmatch import matcher, repo
from archmatch.cli import main
from archmatch.sigmatch import TypeLattice
from broken_caches import DEFECTS, V2_CACHE

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# `match` stdout for each catalog and requirement, recorded before the signature
# level was given one result type, and the exit codes in exit_codes.json
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())
# malformed units with the `check` stderr and exit codes recorded before the
# lexer became one regular expression
GOLDEN_CHECK = GOLDEN / "check"
GOLDEN_CHECK_EXIT_CODES = json.loads((GOLDEN_CHECK / "exit_codes.json").read_text())

runner = CliRunner()


@pytest.fixture()
def workdir(tmp_path):
    for name in ("types.adl", "document_manager.adl", "insurance.adl",
                 "manage_documents_req.adl", "manage_documents_view_req.adl",
                 "manage_portfolio_req.adl", "catalog.txt", "catalog_full.txt"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    return tmp_path


def run(*args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


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


def test_internal_error_is_one_line_and_exit_three():
    # the recursive-descent parser overflows the stack on 300 nested parentheses
    res = runner.invoke(main, ["protocol", "(" * 300 + "?a" + ")" * 300])
    assert res.exit_code == 3
    assert "Traceback" not in res.output
    [line] = res.output.splitlines()
    assert line.startswith("error: internal error: RecursionError: ")


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
    assert doc["version"] == 1
    assert doc["recommendation"] == {"action": "USE", "component": "DocumentManager"}
    report = doc["reports"][0]
    assert report["component"] == "DocumentManager"
    assert report["verdict"] == "USE"
    assert report["kind"] == "exact"
    assert report["score"] == 1.0
    assert report["methodMap"]["searchDocuments"] == "searchDocuments"
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
                      "unsupported cache version (expected ARCHMATCH-IDX v4))"]
    cache.write_text(f"{repo.CACHE_MAGIC}\n{{}}\n")
    assert note() == ["index: built (1 component(s); corrupt cache: KeyError: 'hash')"]
    unit = workdir / "document_manager.adl"
    unit.write_text(unit.read_text() + "\n// touched\n")
    assert note() == ["index: built (1 component(s); cache stale)"]


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


@pytest.mark.parametrize("case", sorted(GOLDEN_EXIT_CODES))
def test_match_output_is_the_golden_output(workdir, case):
    catalog, name = case.split("/")
    requirement, output_format = name.split(".")
    res = run("--catalog", str(workdir / f"{catalog}.txt"), "match",
              str(workdir / f"{requirement}.adl"), "--format", output_format)
    assert res.stdout_bytes == (GOLDEN / case).read_bytes()
    assert res.exit_code == GOLDEN_EXIT_CODES[case]


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


def test_index_inspect_corrupt(workdir):
    cache = workdir / "catalog.txt.idx"
    cache.write_text("garbage\n")
    res = run("--catalog", str(workdir / "catalog.txt"), "index", "inspect")
    assert res.exit_code == 2


def test_state_limit_env_rejected_when_invalid(workdir):
    res = run("protocol", "?a", env={"ARCHMATCH_STATE_LIMIT": "banana"})
    assert res.exit_code == 2


def test_state_limit_env_applies(workdir):
    res = run("--quiet", "protocol", "(?a + ?b)* | (?c + ?d)*",
              env={"ARCHMATCH_STATE_LIMIT": "2"})
    assert res.exit_code == 2
    assert "protocol too large" in res.stderr


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
    res = run("--catalog", "catalog_full.txt", *args, env={"ARCHMATCH_STATE_LIMIT": limit})
    assert res.exit_code == 2
    assert res.stdout == ""
    where = {"2": "publication 'AccountServicePub'", "4": "component 'DocumentManager'"}[limit]
    assert res.stderr == \
        f"error: {where}: protocol too large: determinization exceeds {limit} states\n"


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


# --- dependencies ------------------------------------------------------------------

def test_cli_imports_neither_numpy_nor_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, archmatch.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
