"""Tests of the benchmark itself: generator, expected answers, tracer, tail rule.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import gen  # noqa: E402
import run  # noqa: E402
from archmatch import dsl, matcher, repo  # noqa: E402
from archmatch.protocol import Alt, Ev, Seq, Shuffle, Star  # noqa: E402
from archmatch.sigmatch import TypeLattice  # noqa: E402
from oracles import lang_upto, mem  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

WORKLOADS = (run.WarmQuery, run.ScanQuery, run.EditRebuild)
PRIVATE_KINDS = ["use", "use-plain", "use-renamed", "adapt-protocol", "adapt-partial", "new"]


def small(workload, seed: int, n: int = 16, queries: int = 15,
          kinds: list[str] | None = None) -> gen.Catalog:
    """A small catalog of the workload's mix; requirements of every kind the
    mix supports unless `kinds` is given."""
    catalog = gen.generate(seed, n, workload.MIX)
    if kinds is None:
        kinds = workload.KINDS if workload.MIX.shared else PRIVATE_KINDS
    gen.add_queries(catalog, seed, kinds, queries)
    return catalog


# --- generator determinism -------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_same_seed_gives_identical_files(workload, tmp_path):
    a, b = small(workload, 7), small(workload, 7)
    a.write(tmp_path / "a")
    b.write(tmp_path / "b")
    for rel in a.files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    assert a.files == b.files and a.queries == b.queries
    assert small(workload, 8).files != a.files


def test_edits_are_deterministic():
    mix = run.EditRebuild.MIX
    out = []
    for _ in range(2):
        catalog = gen.generate(3, 12, mix)
        rng = random.Random("edits")
        paths = []
        for _ in range(12):
            index = rng.randrange(3)
            before = catalog.files[catalog.components[index].path]
            paths.append(gen.edit(catalog, mix, index, rng))
            assert catalog.files[paths[-1]] != before
        out.append((paths, dict(catalog.files)))
    assert out[0] == out[1]


def test_generated_catalogs_load(tmp_path):
    for workload in WORKLOADS:
        catalog = small(workload, 1)
        catalog.write(tmp_path / workload.name)
        loaded, _, diags = repo.load(tmp_path / workload.name / "catalog.txt")
        assert loaded is not None, [str(d) for d in diags]


# --- expected answers, checked without archmatch's matcher -----------------------

_WEIGHT = {"exact": 1.0, "permuted": 0.8, "generalized": 0.6, "specialized": 0.4}
_RANK = {"USE": 0, "ADAPT_CANDIDATE": 1, "NO_MATCH": 2}


def _parents() -> dict[str, str]:
    out = {}
    for line in gen.SHARED_TYPES.splitlines():
        words = line.rstrip(";").split()
        if len(words) == 4 and words[2] == "<:":
            out[words[1]] = words[3]
    return out


def _le(a: str, b: str, parents) -> bool:
    while a is not None:
        if a == b:
            return True
        a = parents.get(a)
    return False


def _ret_le(a, b, parents) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return _le(a, b, parents)


def _kind(q: gen.Method, p: gen.Method, parents) -> str | None:
    """The strongest signature relation, straight from the README definitions."""
    if len(q.params) != len(p.params):
        return None
    if q.params == p.params and q.ret == p.ret:
        return "exact"
    if sorted(q.params) == sorted(p.params) and q.ret == p.ret:
        return "permuted"
    if (all(_le(a, b, parents) for a, b in zip(q.params, p.params))
            and _ret_le(p.ret, q.ret, parents)):
        return "generalized"
    if (all(_le(b, a, parents) for a, b in zip(q.params, p.params))
            and _ret_le(q.ret, p.ret, parents)):
        return "specialized"
    return None


def _best_assignment(req, comp, parents):
    """Brute force over injective maps: the best complete one as (weight of
    its weakest kind, name matches, map), else None; and the best partial
    coverage as (matched, name matches)."""
    complete = None
    partial = (0, 0)
    for chosen in itertools.permutations(comp, len(req)) if len(req) <= len(comp) else ():
        kinds = [_kind(q, p, parents) for q, p in zip(req, chosen)]
        names = sum(q.name == p.name for q, p in zip(req, chosen))
        if None not in kinds:
            key = (min(_WEIGHT[k] for k in kinds), names, tuple(p.name for p in chosen))
            complete = key if complete is None or key[:2] > complete[:2] else complete
    for size in range(len(req), 0, -1):
        for qs in itertools.combinations(req, size):
            for ps in itertools.permutations(comp, size):
                if all(_kind(q, p, parents) for q, p in zip(qs, ps)):
                    partial = max(partial, (size, sum(q.name == p.name for q, p in zip(qs, ps))))
        if partial[0]:
            break
    return complete, partial


def _requirement(query: gen.Query):
    """(methods, protocol text) read back from the generated requirement."""
    methods, protocol = [], None
    for line in query.text.splitlines():
        line = line.strip()
        if line.startswith("protocol {"):
            protocol = line[len("protocol {"):-1].strip()
        elif "(" in line and line.endswith(";") and not line.startswith("//"):
            name, rest = line.split("(", 1)
            params_text, ret_text = rest.rsplit(")", 1)
            params = tuple(p.split(":")[1].strip() for p in params_text.split(",") if p)
            ret = ret_text.strip(" :;") or None
            methods.append(gen.Method(name, params, ret))
    return methods, protocol


def _rename(expr, mapping):
    if isinstance(expr, Ev):
        return Ev(mapping.get(expr.name, expr.name))
    if isinstance(expr, Star):
        return Star(_rename(expr.inner, mapping))
    if isinstance(expr, (Seq, Alt, Shuffle)):
        return type(expr)(_rename(expr.left, mapping), _rename(expr.right, mapping))
    return expr


def _included(req_protocol: str, mapping: dict[str, str], provided: str) -> bool:
    """Bounded language inclusion with the definitional oracle (words <= 6)."""
    req_expr, _ = dsl.parse_protocol(req_protocol)
    prov_expr, _ = dsl.parse_protocol(provided)
    return all(mem(prov_expr, w) for w in lang_upto(_rename(req_expr, mapping), 6))


def oracle(catalog: gen.Catalog, query: gen.Query) -> tuple[str, str | None]:
    """The recommendation the paper's semantics give, computed by brute force:
    the target's exact verdict and score against an upper bound for every
    other component."""
    parents = _parents()
    req, protocol = _requirement(query)
    n = len(req)
    rows = []
    for comp in catalog.components:
        complete, (matched, pnames) = _best_assignment(req, comp.methods, parents)
        exact_target = comp.name == query.component
        if complete is not None:
            weight, names, chosen = complete
            if protocol is None:
                verdict, proto_weight = "USE", 0.5
            elif not exact_target:
                verdict, proto_weight = "USE", 1.0  # optimistic
            else:
                mapping = {q.name: p for q, p in zip(req, chosen)}
                holds = _included(protocol, mapping, comp.template.expr)
                verdict, proto_weight = ("USE", 1.0) if holds else ("ADAPT_CANDIDATE", 0.0)
            score = 0.5 * weight + 0.3 * names / n + 0.2 * proto_weight
        elif matched / n >= 0.5:
            verdict, score = "ADAPT_CANDIDATE", 0.5 * matched / n + 0.3 * pnames / n + 0.1
        else:
            verdict, score = "NO_MATCH", 0.0
        rows.append((_RANK[verdict], -round(score, 6), comp.name, verdict))
    rows.sort()
    best = rows[0]
    if best[3] == "NO_MATCH":
        return gen.NEW, None
    runner_up = rows[1] if len(rows) > 1 else None
    # the answer is certain only when the target beats every upper bound strictly
    assert runner_up is None or runner_up[:2] > best[:2], (best, runner_up)
    return ("USE" if best[3] == "USE" else "ADAPT"), best[2]


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
@pytest.mark.parametrize("seed", [1, 2])
def test_expected_answers_match_the_oracle(workload, seed):
    catalog = small(workload, seed, n=10, queries=10)
    for query in catalog.queries:
        assert oracle(catalog, query) == (query.action, query.component), query.family


def _archmatch_answers(catalog: gen.Catalog, root: Path, **options):
    catalog.write(root)
    cat, model, diags = repo.load(root / "catalog.txt")
    assert cat is not None, [str(d) for d in diags]
    index = repo.build_index(cat, model)
    for query in catalog.queries:
        req, merged, diags = repo.load_requirement(root / query.path, cat, model)
        assert req is not None, [str(d) for d in diags]
        lattice = TypeLattice.from_types(merged.types)
        yield query, matcher.match_requirement(req, index, lattice, **options).recommendation


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_archmatch_agrees_on_the_workloads_requirements(workload, tmp_path):
    catalog = small(workload, 5, kinds=workload.KINDS)
    for query, rec in _archmatch_answers(catalog, tmp_path):
        assert run.check_answer(query, rec.action, rec.component) == ""


def test_renamed_requirements_are_answered_without_the_prefilter(tmp_path):
    catalog = small(run.WarmQuery, 9, kinds=["use-renamed"], queries=4)
    for query in catalog.queries:
        assert oracle(catalog, query) == (gen.USE, query.component)
    for query, rec in _archmatch_answers(catalog, tmp_path, use_prefilter=False):
        assert run.check_answer(query, rec.action, rec.component) == ""


def test_template_facts_hold():
    rng = random.Random(0)
    names = [f"m{i}" for i in range(6)]
    for family in gen.FAMILIES:
        for _ in range(5):
            tpl = gen.template(family, names, rng, 3, 3)
            expr, _ = dsl.parse_protocol(tpl.expr)
            inside, _ = dsl.parse_protocol(tpl.inside)
            assert all(mem(expr, w) for w in lang_upto(inside, 8)), tpl
            assert not mem(expr, tuple(tpl.outside.replace("?", "").split())), tpl


# --- failure accounting --------------------------------------------------------------

def test_checks_count_every_kind_of_failure():
    q = gen.Query("r.adl", "", gen.USE, "Service1", "use/seq")
    good = json.dumps({"recommendation": {"action": "USE", "component": "Service1"}})
    note = "index: cache (3 component(s))\n"
    assert run.check_cli(q, 0, good, note, "cache") == ""
    assert run.check_cli(q, 0, good.replace("Service1", "Service2"), note, "cache")
    assert run.check_cli(q, 1, good, note, "cache")
    assert run.check_cli(q, 0, good, note + "Traceback (most recent call last):\nX", "cache")
    assert run.check_cli(q, 0, good, note, "built")
    assert run.check_cli(q, 0, "not json", note, "cache")
    # the name-blocking case of ROADMAP: semantics say USE, a blocked prefilter says NEW
    assert run.check_answer(gen.Query("r", "", gen.USE, "Archive", "x"), "NEW", None)


# --- tail percentile ---------------------------------------------------------------------

def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    for n in (11, 20, 37, 100):
        samples = random.Random(n).sample(range(1000), n)
        pct, value = run.tail(samples)
        beyond = sum(1 for s in samples if s > value)
        assert beyond == 10
        assert pct == pytest.approx(100.0 * (n - 10) / n)
    assert run.tail(list(range(1, 21))) == (50.0, 10)
    assert run.tail(list(range(1, 101))) == (90.0, 90)
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_tail_percentile_is_fixed_by_the_operation_count():
    # a run that completes more operations than the workload's count reads the
    # same percentile, and still has at least ten samples beyond it
    for count in (11, 14, 40):
        for n in range(count, 3 * count):
            samples = random.Random(n).sample(range(1000), n)
            pct, value = run.tail(samples, count)
            assert pct == pytest.approx(100.0 * (count - 10) / count)
            assert sum(1 for s in samples if s > value) >= 10
            assert sum(1 for s in samples if s <= value) * count >= (count - 10) * n
    assert run.tail(list(range(1, 41)), 20) == (50.0, 20)
    with pytest.raises(ValueError):
        run.tail(list(range(13)), 14)


# --- tracer ---------------------------------------------------------------------------------

def test_self_time_subtracts_covered_child_time():
    spans = [(0, None, "a", 0.0, 10.0), (1, 0, "b", 2.0, 4.0), (2, 0, "c", 5.0, 7.0),
             (3, 2, "d", 5.5, 6.0)]
    self_s = self_times(spans)
    assert self_s["a"] == pytest.approx(6.0)
    assert self_s["c"] == pytest.approx(1.5)
    assert self_s["d"] == pytest.approx(0.5)


def test_tracer_is_transparent_in_process(tmp_path):
    catalog = small(run.ScanQuery, 4, n=30, queries=6)
    catalog.write(tmp_path)
    cat, model, _ = repo.load(tmp_path / "catalog.txt")
    index = repo.build_index(cat, model)

    def answers():
        out = []
        for query in catalog.queries:
            req, merged, _ = repo.load_requirement(tmp_path / query.path, cat, model)
            result = matcher.match_requirement(req, index, TypeLattice.from_types(merged.types))
            out.append([(r.component, r.verdict, r.score, r.counterexample)
                        for r in result.reports])
        return out

    plain = answers()
    tracer = Tracer()
    tracer.install()
    try:
        traced = answers()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.counts["matcher.match_requirement.calls"] == len(catalog.queries)
    assert tracer.counts["sigmatch.match_module.calls"] > 0
    assert matcher.match_requirement.__module__ == "archmatch.matcher"
    assert not hasattr(matcher.match_requirement, "__wrapped__")


def test_tracer_is_transparent_through_the_cli(tmp_path):
    catalog = small(run.WarmQuery, 6, n=12, queries=5)
    catalog.write(tmp_path)
    env = run.child_env()
    base = ["--catalog", "catalog.txt", "--cache", "catalog.idx"]
    subprocess.run([sys.executable, "-m", "archmatch.cli", *base, "index", "build"],
                   cwd=tmp_path, env=env, check=True, capture_output=True)
    for query in catalog.queries:
        args = [*base, "match", query.path, "--format", "json"]
        plain = subprocess.run([sys.executable, "-m", "archmatch.cli", *args],
                               cwd=tmp_path, env=env, capture_output=True)
        trace_file = tmp_path / "trace.json"
        traced = subprocess.run([sys.executable, str(BENCH / "launch.py"), str(trace_file),
                                 *args], cwd=tmp_path, env=env, capture_output=True)
        assert traced.stdout == plain.stdout and plain.stdout
        assert traced.returncode == plain.returncode
        trace = json.loads(trace_file.read_text())
        names = {span[2] for span in trace["spans"]}
        assert {"dsl.tokenize", "model.resolve", "repo.load_cache",
                "matcher.match_requirement"} <= names


# --- isolation --------------------------------------------------------------------------------

def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", "tests"))
    result = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "warm-query",
                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                            cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for section, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [m["name"] for m in spec[section]] == list(names)
        assert all(m["unit"] == run.unit_of(m["name"]) for m in spec[section])
