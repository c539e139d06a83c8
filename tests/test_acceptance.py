"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import time
from pathlib import Path

from click.testing import CliRunner

from archmatch import category as C
from archmatch import dsl, matcher, model, repo
from archmatch import protocol as P
from archmatch.cli import main as cli_main
from archmatch.dsl import SourceUnit, format_protocol
from archmatch.matcher import Requirement
from archmatch.protocol import Alt, Ev, Eps, Seq, Shuffle, Star
from archmatch.sigmatch import TypeLattice

from oracles import OracleBudgetExceeded, all_words, lang_upto, mem, random_expr
from test_category import brute_force_two_step_reachability

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def load_sample_repo():
    catalog, m, diags = repo.load(FIXTURES / "catalog.txt")
    assert catalog is not None, [str(d) for d in diags]
    index = repo.build_index(catalog, m)
    return catalog, m, index


def run_query(catalog, m, index, requirement_file):
    req, merged, diags = repo.load_requirement(FIXTURES / requirement_file, catalog, m)
    assert req is not None, [str(d) for d in diags]
    lattice = TypeLattice.from_types(merged.types)
    start = time.perf_counter()
    result = matcher.match_requirement(req, index, lattice)
    return result, time.perf_counter() - start


def test_criterion_1_paper_use_cases():
    catalog, m, index = load_sample_repo()

    documents, documents_time = run_query(catalog, m, index, "manage_documents_req.adl")
    ok = documents.recommendation == matcher.Recommendation("USE", "DocumentManager")
    top = documents.reports[0]
    ok = ok and top.module_match is not None and top.module_match.overall_kind == "exact"
    ok = ok and top.protocol_verdict == matcher.HOLDS

    portfolio, portfolio_time = run_query(catalog, m, index, "manage_portfolio_req.adl")
    ok = ok and portfolio.recommendation == matcher.Recommendation("NEW")
    ok = ok and documents_time < 1.0 and portfolio_time < 1.0
    report("1 paper-use-case-reproduction", ok)


def test_criterion_2_protocol_oracle_equivalence():
    rng = random.Random(0xC2)
    start = time.perf_counter()
    checked = 0
    ok = True
    while checked < 200:
        alphabet = ["a", "b", "c", "d"][: rng.randint(1, 4)]
        expr = random_expr(rng, alphabet, 4)
        try:
            expected = lang_upto(expr, 8, budget=1_000_000)
        except OracleBudgetExceeded:
            continue  # oracle too slow for this expression; draw another
        dfa = P.minimize(P.determinize(P.compile(expr)))
        accepted = set(P.sample_traces(dfa, 8))
        if accepted != expected:
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - start
    report("2 protocol-oracle-equivalence", ok and checked >= 200 and elapsed < 60.0)


def test_criterion_3_inclusion_counterexample_soundness():
    rng = random.Random(0xC3)
    verified = 0
    ok = True
    alphabet = ["a", "b", "c"]
    while verified < 100 and ok:
        required = random_expr(rng, alphabet, 3)
        provided = random_expr(rng, alphabet, 3)
        result = P.includes(P.compile(required), P.compile(provided))
        if result.holds:
            continue
        trace = result.counterexample
        if len(trace) > 6:
            continue  # keep the enumeration check affordable
        if not (mem(required, trace) and not mem(provided, trace)):
            ok = False
            break
        # shortest (and lexicographically smallest among equals) by enumeration
        for word in all_words(alphabet, len(trace)):
            if (len(word), word) < (len(trace), trace):
                if mem(required, word) and not mem(provided, word):
                    ok = False
                    break
        verified += 1
    report("3 inclusion-counterexample-soundness", ok and verified >= 100)


def test_criterion_4_negative_paper_protocol():
    catalog, m, _ = load_sample_repo()
    provided_expr = m.contracts["ManageDocumentCtr"].prot
    required_expr, diags = dsl.parse_protocol("(?viewDocument)")
    assert required_expr is not None, diags
    result = P.includes(P.compile(required_expr), P.compile(provided_expr))
    report("4 negative-paper-protocol-check",
           not result.holds and result.counterexample == ("viewDocument",))


def _distinct_event_protocol(rng, events):
    """A random expression in which every given event occurs exactly once."""
    exprs = [Ev(name) for name in events]
    rng.shuffle(exprs)
    while len(exprs) > 1:
        right = exprs.pop()
        left = exprs.pop()
        combined = rng.choice([Seq, Alt, Shuffle])(left, right)
        if rng.random() < 0.3:
            combined = Star(combined)
        exprs.append(combined)
    return exprs[0]


def _delete_event(expr, target):
    """Replace the unique Ev(target) with the empty word."""
    if isinstance(expr, Ev):
        return Eps() if expr.name == target else expr
    if isinstance(expr, (Seq, Alt, Shuffle)):
        return type(expr)(_delete_event(expr.left, target),
                          _delete_event(expr.right, target))
    if isinstance(expr, Star):
        return Star(_delete_event(expr.inner, target))
    return expr


def test_criterion_5_publication_laws():
    rng = random.Random(0xC5)
    types = ["String", "Account"]
    units = ["type String;\ntype Account;"]
    specs = []
    for i in range(50):
        provided = [f"p{i}_{j}" for j in range(rng.randint(1, 3))]
        required = [f"r{i}_{j}" for j in range(rng.randint(1, 2))]

        def method_decl(name):
            params = ", ".join(
                f"x{k}: {rng.choice(types)}" for k in range(rng.randint(0, 2)))
            return f"{name}({params})"

        provided_sigs = {name: method_decl(name) for name in provided}
        proto = format_protocol(_distinct_event_protocol(rng, provided))
        lines = [f"interface P{i} {{"]
        lines += [f"  {sig};" for sig in provided_sigs.values()]
        lines.append("}")
        lines.append(f"interface R{i} {{")
        lines += [f"  {method_decl(name)};" for name in required]
        lines.append("}")
        lines.append(f"contract C{i} implements P{i} {{")
        for name, sig in provided_sigs.items():
            lines.append(f'  method {sig} [guard: "g_{name}" design: "d_{name}"];')
        lines.append(f"  protocol {{ {proto} }}")
        lines.append("}")
        lines.append(f"component K{i} {{")
        lines.append(f"  provided contract C{i}")
        lines.append(f"  required interface R{i}")
        lines.append("}")
        units.append("\n".join(lines))
        specs.append((f"K{i}", provided, required))

    tree, diags = dsl.parse_unit(SourceUnit("corpus.adl", "\n\n".join(units)))
    assert tree is not None, diags
    m, diags = model.resolve([tree])
    assert m is not None, [str(d) for d in diags]

    ok = True
    for name, provided, required in specs:
        comp = m.components[name]
        pub = model.publish(comp)
        if any(spec.guard is not None for spec in pub.provided.designs.values()):
            ok = False
        if pub.provided.iface.all_methods() != comp.provided_interface.all_methods():
            ok = False
        if not model.validate_publication(pub).ok:
            ok = False
        victim = rng.choice(provided + required)
        mutated = dataclasses.replace(pub, causal=_delete_event(pub.causal, victim))
        broken = model.validate_publication(mutated)
        if broken.ok or not broken.failures or broken.failures[0].witness is None:
            ok = False
        if not ok:
            break
    report("5 publication-laws", ok)


def test_criterion_6_closure_oracle():
    rng = random.Random(0xC6)
    ok = True
    for _ in range(50):
        n = rng.randint(2, 50)
        objects = [f"O{i}" for i in range(n)]
        kind = rng.choice(["ext", "cmp"])
        edges = set()
        for _ in range(rng.randint(1, 200)):
            edges.add((rng.choice(objects), rng.choice(objects)))
        cat = C.PseudoCategory(
            "business", "gen", frozenset(objects),
            frozenset(C.Morphism(s, d, kind) for s, d in edges),
            C.BUSINESS_GENERATORS, C.default_table(C.BUSINESS_GENERATORS))
        closed = C.close(cat)
        derived = {(mo.src, mo.dst) for mo in closed.morphisms if mo.derived}
        expected = brute_force_two_step_reachability(objects, edges) - edges
        if derived != expected or C.close(closed).morphisms != closed.morphisms:
            ok = False
            break
    report("6 closure-oracle", ok)


def test_criterion_7_functor_validation():
    rng = random.Random(0xC7)
    ok = True
    for _ in range(50):
        n = rng.randint(2, 8)
        objects = [f"I{i}" for i in range(n)]
        edges = {(rng.choice(objects), rng.choice(objects), rng.choice(["ext", "cmp"]))
                 for _ in range(rng.randint(1, 12))}
        ba = C.close(C.PseudoCategory(
            "business", "ba", frozenset(objects),
            frozenset(C.Morphism(*e) for e in edges),
            C.BUSINESS_GENERATORS, C.default_table(C.BUSINESS_GENERATORS)))
        object_map = {o: "C" + o[1:] for o in objects}
        generator_map = {"ext": rng.choice(["use", "cmp"]),
                         "cmp": rng.choice(["use", "cmp"])}
        image = {(object_map[s], object_map[d], generator_map[k])
                 for s, d, k in ba.morphism_keys()}
        aa = C.close(C.PseudoCategory(
            "application", "aa", frozenset(object_map.values()),
            frozenset(C.Morphism(*e) for e in image),
            C.APPLICATION_GENERATORS, C.default_table(C.APPLICATION_GENERATORS)))
        mapping = C.FunctorMapping("F", ba, aa, object_map, generator_map)
        if not C.check_functor(mapping).ok:
            ok = False
            break
        for victim in sorted(image):
            smaller = C.PseudoCategory(
                aa.kind, aa.name, aa.objects,
                frozenset(mo for mo in aa.morphisms
                          if (mo.src, mo.dst, mo.kind) != victim),
                aa.generators, aa.table)
            result = C.check_functor(C.FunctorMapping("F", ba, smaller,
                                                      object_map, generator_map))
            rendered = f"{victim[0]} -{victim[2]}-> {victim[1]}"
            if result.ok or not any(rendered in v for v in result.violations):
                ok = False
                break
        if not ok:
            break
    report("7 functor-validation", ok)


PROTOCOL_TEMPLATES = [
    "(?{0} + ?{1})* ?{2}",
    "?{0} (?{1} ?{2})*",
    "(?{0} ?{1})* + ?{2}*",
    "?{0}* | ?{1} ?{2}",
    "(?{0} + ?{1} ?{2})*",
]


def test_criterion_8_desk_scale_performance(tmp_path):
    rng = random.Random(0xC8)
    paths = []
    for i in range(500):
        methods = [f"svc{i}op{j}" for j in range(3)]
        proto = PROTOCOL_TEMPLATES[i % len(PROTOCOL_TEMPLATES)].format(*methods)
        body = "\n".join(f"  {name}(arg: String);" for name in methods)
        text = (f"interface Ops{i} {{\n{body}\n}}\n\n"
                f"contract Ctr{i} implements Ops{i} {{\n"
                f"  protocol {{ {proto} }}\n}}\n\n"
                f"component Service{i} {{\n  provided contract Ctr{i}\n}}\n")
        path = tmp_path / f"service{i}.adl"
        path.write_text("type String;\n\n" + text)
        paths.append(path.name)
    catalog_path = tmp_path / "catalog.txt"
    catalog_path.write_text("\n".join(paths) + "\n")

    start = time.perf_counter()
    catalog, m, diags = repo.load(catalog_path)
    assert catalog is not None, [str(d) for d in diags]
    index = repo.build_index(catalog, m)
    index_time = time.perf_counter() - start

    ok = len(index.entries) == 500 and index_time < 10.0
    ok = ok and all(len(e.provided_automaton.states) <= 30 for e in index.entries.values())

    # hash and cache bytes are stable across rebuilds
    again = repo.build_index(catalog, m)
    repo.save_cache(index, tmp_path / "a.idx")
    repo.save_cache(again, tmp_path / "b.idx")
    ok = ok and index.source_hash == again.source_hash
    ok = ok and (tmp_path / "a.idx").read_bytes() == (tmp_path / "b.idx").read_bytes()

    target = rng.randrange(500)
    req = Requirement(m.interfaces[f"Ops{target}"])
    lattice = TypeLattice.from_types(m.types)
    start = time.perf_counter()
    result = matcher.match_requirement(req, index, lattice)
    query_time = time.perf_counter() - start
    ok = ok and query_time < 1.0
    ok = ok and result.recommendation.action == matcher.USE
    report("8 desk-scale-performance", ok)


def test_criterion_9_round_trip_and_cache_transparency(tmp_path):
    ok = True
    for path in sorted(FIXTURES.glob("*.adl")):
        unit = SourceUnit(path.name, path.read_text())
        tree, diags = dsl.parse_unit(unit)
        if tree is None:
            ok = False
            break
        again, diags = dsl.parse_unit(SourceUnit(path.name, dsl.format(tree)))
        if again != tree:
            ok = False
            break

    for name in ("types.adl", "document_manager.adl", "manage_documents_req.adl",
                 "catalog.txt"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    runner = CliRunner()
    args = ["--quiet", "--catalog", str(tmp_path / "catalog.txt"),
            "match", str(tmp_path / "manage_documents_req.adl"), "--format", "json"]
    cold = runner.invoke(cli_main, args, catch_exceptions=False)
    warm = runner.invoke(cli_main, args, catch_exceptions=False)
    ok = ok and (tmp_path / "catalog.txt.idx").is_file()
    ok = ok and cold.output == warm.output and cold.exit_code == warm.exit_code == 0
    report("9 round-trip-and-cache-transparency", ok)
