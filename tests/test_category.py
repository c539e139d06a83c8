"""Pseudo-category construction, closure, and functor validation."""

from __future__ import annotations

import random

import pytest

from archmatch import category as C
from archmatch import dsl, model
from archmatch.diagnostics import ERROR, WARNING, Diagnostic, Span
from archmatch.dsl import SourceUnit, syntax


def arch_category(text, name=None, extra=""):
    """Parse `text` (plus any support declarations) and build one architecture."""
    tree, diags = dsl.parse_unit(SourceUnit("arch.adl", extra + text))
    assert tree is not None, diags
    m, diags = model.resolve([tree])
    assert m is not None, [str(d) for d in diags]
    decl = m.architectures[name] if name else next(iter(m.architectures.values()))
    cat, diags = C.build(decl, m)
    return cat, diags, m


BA_SUPPORT = """\
interface I1 { }
interface I2 { }
interface I3 { }

"""


def make_category(kind, objects, morphisms):
    return C.PseudoCategory(kind, "t", frozenset(objects),
                            frozenset(C.Morphism(s, d, k) for s, d, k in morphisms))


# --- build --------------------------------------------------------------------

def test_build_chain_of_extensions():
    text = """\
architecture business BA {
  object I1;
  object I2;
  object I3;
  morphism I1 -ext-> I2;
  morphism I2 -ext-> I3;
}
"""
    cat, diags, _ = arch_category(text, extra=BA_SUPPORT)
    assert diags == []
    assert cat.objects == {"I1", "I2", "I3"}
    assert len(cat.morphisms) == 2
    assert all(not m.derived for m in cat.morphisms)


def test_build_single_object():
    cat, diags, _ = arch_category("architecture business BA { object I1; }",
                                  extra=BA_SUPPORT)
    assert cat.objects == {"I1"}
    assert cat.morphisms == frozenset()


def test_build_rejects_use_in_business_architecture():
    text = """\
architecture business BA {
  object I1;
  object I2;
  morphism I1 -use-> I2;
}
"""
    cat, diags, _ = arch_category(text, extra=BA_SUPPORT)
    assert cat is None
    assert any(d.code == "bad-morphism-kind" for d in diags)


def test_build_rejects_unknown_object():
    text = "architecture business BA { object Ghost; }"
    cat, diags, _ = arch_category(text, extra=BA_SUPPORT)
    assert cat is None
    assert any(d.code == "unknown-object" for d in diags)


# --- close --------------------------------------------------------------------

def test_close_adds_transitive_extension():
    cat = make_category("business", ["I1", "I2", "I3"],
                        [("I1", "I2", "ext"), ("I2", "I3", "ext")])
    closed = C.close(cat)
    keys = closed.morphism_keys()
    assert ("I1", "I3", "ext") in keys
    derived = [m for m in closed.morphisms if m.derived]
    assert [(m.src, m.dst, m.kind) for m in derived] == [("I1", "I3", "ext")]


def test_close_idempotent():
    cat = make_category("business", ["A", "B", "C", "D"],
                        [("A", "B", "ext"), ("B", "C", "ext"), ("C", "D", "cmp")])
    closed = C.close(cat)
    assert C.close(closed).morphisms == closed.morphisms


def test_close_keeps_declared_flag():
    cat = make_category("business", ["A", "B", "C"],
                        [("A", "B", "ext"), ("B", "C", "ext"), ("A", "C", "ext")])
    closed = C.close(cat)
    assert all(not m.derived for m in closed.morphisms)


# each architecture kind with its generators, sorted so that a seed draws the same kinds
KINDS = [("business", ["cmp", "ext"]), ("application", ["cmp", "use"])]


def brute_force_two_step_reachability(objects, edges):
    """Pairs (x, z) connected by a walk of length >= 2 over `edges`."""
    adjacency = {o: set() for o in objects}
    for s, d in edges:
        adjacency[s].add(d)
    # transitive closure (walks of length >= 1)
    reach = {o: set(adjacency[o]) for o in objects}
    changed = True
    while changed:
        changed = False
        for o in objects:
            extra = set()
            for t in reach[o]:
                extra |= adjacency[t]
            if not extra <= reach[o]:
                reach[o] |= extra
                changed = True
    out = set()
    for x in objects:
        for y in adjacency[x]:
            for z in reach[y]:
                out.add((x, z))
    return out


def test_close_matches_reachability_oracle_on_random_graphs():
    """Mixed kinds, self-loops and cycles: each kind closes on its own."""
    rng = random.Random(101)
    for _ in range(30):
        n = rng.randint(1, 50)
        objects = [f"O{i}" for i in range(n)]
        cat_kind, generators = rng.choice(KINDS)
        edges = set()
        for _ in range(rng.randint(1, 200)):
            src = rng.choice(objects)
            dst = src if rng.random() < 0.05 else rng.choice(objects)
            edges.add((src, dst, rng.choice(generators)))
        closed = C.close(make_category(cat_kind, objects, edges))
        derived = {(m.src, m.dst, m.kind) for m in closed.morphisms if m.derived}
        expected = set()
        for kind in generators:
            same_kind = {(s, d) for s, d, k in edges if k == kind}
            expected |= {(s, d, kind) for s, d in
                         brute_force_two_step_reachability(objects, same_kind) - same_kind}
        assert derived == expected
        assert C.close(closed).morphisms == closed.morphisms


# --- check_category -------------------------------------------------------------

def test_check_category_clean():
    cat = C.close(make_category("business", ["A", "B", "C"],
                                [("A", "B", "ext"), ("B", "C", "ext")]))
    assert C.check_category(cat) == []


def test_check_category_warns_on_undefined_composition():
    cat = make_category("business", ["x", "y", "z"],
                        [("x", "y", "ext"), ("y", "z", "cmp")])
    diags = C.check_category(cat)
    assert [d.severity for d in diags] == ["warning"]
    assert "composition undefined" in diags[0].message


def test_check_category_rejects_dangling_object():
    cat = make_category("business", ["A"], [("A", "Ghost", "ext"), ("A", "Ghost", "use")])
    diags = C.check_category(cat)
    assert any(d.severity == "error" and d.code == "unknown-object" for d in diags)
    assert any(d.severity == "error" and d.code == "bad-morphism-kind" for d in diags)


def nested_loop_check_category(category):
    """check_category as a scan of every morphism pair in sorted order."""
    zero = Span(1, 1, 0, 0)
    diagnostics = []
    ordered = category.sorted_morphisms()
    for m in ordered:
        if m.kind not in category.generators:
            diagnostics.append(Diagnostic(
                ERROR, zero, f"morphism {m.render()} has kind outside the generator set",
                "bad-morphism-kind"))
        for name in (m.src, m.dst):
            if name not in category.objects:
                diagnostics.append(Diagnostic(
                    ERROR, zero, f"morphism {m.render()} references unknown object {name!r}",
                    "unknown-object"))
    pairs = set()
    for f in ordered:
        for g in ordered:
            if f.dst == g.src and f.kind != g.kind:
                if (f.kind, g.kind) not in pairs:
                    pairs.add((f.kind, g.kind))
                    diagnostics.append(Diagnostic(
                        WARNING, zero,
                        f"composition undefined for kinds ({f.kind}, {g.kind}), "
                        f"e.g. {f.render()} then {g.render()}", "composition-undefined"))
    return diagnostics


def test_check_category_matches_nested_loop_on_random_categories():
    rng = random.Random(211)
    for _ in range(200):
        objects = [f"O{i}" for i in range(rng.randint(1, 8))]
        names = objects + ["Ghost"]
        cat_kind, generators = rng.choice(KINDS)
        morphisms = [(rng.choice(names), rng.choice(names), rng.choice(generators))
                     for _ in range(rng.randint(0, 25))]
        cat = make_category(cat_kind, objects, morphisms)
        assert C.check_category(cat) == nested_loop_check_category(cat)
        closed = C.close(cat)
        assert C.check_category(closed) == nested_loop_check_category(closed)


def test_check_category_matches_nested_loop_on_a_120_object_chain():
    objects = [f"O{i}" for i in range(120)]
    steps = [(objects[i], objects[i + 1], "ext") for i in range(119)]
    steps += [(objects[i], objects[i + 1], "cmp") for i in range(0, 119, 10)]
    cat = C.close(make_category("business", objects, steps))
    assert len(cat.morphisms) == 7152
    diags = C.check_category(cat)
    assert [d.message for d in diags] == [
        "composition undefined for kinds (cmp, ext), e.g. O0 -cmp-> O1 then O1 -ext-> O10",
        "composition undefined for kinds (ext, cmp), e.g. O0 -ext-> O10 then O10 -cmp-> O11"]
    assert diags == nested_loop_check_category(cat)


# --- check_functor ---------------------------------------------------------------

def functor(source, target, object_map, generator_map):
    return C.FunctorMapping("F", source, target, object_map, generator_map)


def test_functor_single_morphism_passes():
    ba = C.close(make_category("business", ["I1", "I2"], [("I1", "I2", "ext")]))
    aa = C.close(make_category("application", ["C1", "C2"], [("C1", "C2", "use")]))
    res = C.check_functor(functor(ba, aa, {"I1": "C1", "I2": "C2"},
                                  {"ext": "use", "cmp": "cmp"}))
    assert res.ok, res.violations


def test_functor_identity_on_application_architecture():
    aa = C.close(make_category("application", ["C1", "C2", "C3"],
                               [("C1", "C2", "use"), ("C2", "C3", "use")]))
    res = C.check_functor(functor(aa, aa, {o: o for o in aa.objects},
                                  {"use": "use", "cmp": "cmp"}))
    assert res.ok


def test_functor_missing_target_morphism_fails_naming_it():
    ba = C.close(make_category("business", ["I1", "I2"], [("I1", "I2", "ext")]))
    aa = C.close(make_category("application", ["C1", "C2"], []))
    res = C.check_functor(functor(ba, aa, {"I1": "C1", "I2": "C2"},
                                  {"ext": "use", "cmp": "cmp"}))
    assert not res.ok
    assert any("C1 -use-> C2" in v and "I1 -ext-> I2" in v for v in res.violations)


def test_functor_requires_total_maps():
    ba = make_category("business", ["I1", "I2"], [])
    aa = make_category("application", ["C1"], [])
    with pytest.raises(ValueError):
        C.check_functor(functor(ba, aa, {"I1": "C1"}, {"ext": "use", "cmp": "cmp"}))
    with pytest.raises(ValueError):
        C.check_functor(functor(ba, aa, {"I1": "C1", "I2": "C1"}, {"ext": "use"}))


def test_functor_monotone_in_target():
    rng = random.Random(103)
    for _ in range(20):
        n = rng.randint(2, 8)
        objects = [f"I{i}" for i in range(n)]
        edges = {(rng.choice(objects), rng.choice(objects), rng.choice(["ext", "cmp"]))
                 for _ in range(rng.randint(0, 10))}
        ba = C.close(make_category("business", objects, edges))
        object_map = {o: "C" + o[1:] for o in objects}
        gmap = {"ext": "use", "cmp": "cmp"}
        image = [(object_map[s], object_map[d], gmap[k]) for s, d, k in ba.morphism_keys()]
        aa = C.close(make_category("application", list(object_map.values()), image))
        assert C.check_functor(functor(ba, aa, object_map, gmap)).ok
        # adding morphisms never turns PASS into FAIL
        extra = set(aa.morphism_keys())
        extra.add((object_map[objects[0]], object_map[objects[-1]], "use"))
        bigger = C.close(make_category("application", list(object_map.values()), extra))
        assert C.check_functor(functor(ba, bigger, object_map, gmap)).ok


def test_build_functor_from_link_declaration():
    text = """\
interface I1 { }
interface I2 { }

contract Ctr1 implements I1 { }
contract Ctr2 implements I2 { }

component C1 { provided contract Ctr1 }
component C2 { provided contract Ctr2 }

architecture business BA {
  object I1;
  object I2;
  morphism I1 -ext-> I2;
}

architecture application AA {
  object C1;
  object C2;
  morphism C1 -use-> C2;
}

link Realize from BA to AA {
  map I1 -> C1;
  map I2 -> C2;
  generator ext -> use;
  generator cmp -> cmp;
}
"""
    tree, diags = dsl.parse_unit(SourceUnit("link.adl", text))
    assert tree is not None, diags
    m, diags = model.resolve([tree])
    assert m is not None, [str(d) for d in diags]
    cats = {}
    for name, decl in m.architectures.items():
        cat, cdiags = C.build(decl, m)
        assert cat is not None, cdiags
        cats[name] = C.close(cat)
    mapping, ldiags = C.build_functor(m.links["Realize"], cats)
    assert mapping is not None, ldiags
    assert C.check_functor(mapping).ok


def test_build_functor_rejects_partial_map():
    decl = syntax.LinkDecl("L", "BA", "AA", (syntax.MapEntry("I1", "C1", None),),
                           (syntax.GeneratorEntry("ext", "use", None),
                            syntax.GeneratorEntry("cmp", "cmp", None)), None)
    ba = make_category("business", ["I1", "I2"], [])
    aa = make_category("application", ["C1"], [])
    mapping, diags = C.build_functor(decl, {"BA": ba, "AA": aa})
    assert mapping is None
    assert any(d.code == "incomplete-map" for d in diags)
