"""Resolution, publication derivation, and the causal projection condition."""

from __future__ import annotations

import functools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archmatch import dsl, model, repo
from archmatch import protocol as P
from archmatch.diagnostics import ERROR, Diagnostic, Span
from archmatch.dsl import SourceUnit, syntax
from archmatch.matcher import Requirement
from archmatch.protocol import Alt, Ev, Seq, Star

from oracles import erase_expr, lang_upto, mem, random_expr

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def resolve_text(*texts):
    trees = []
    for i, text in enumerate(texts):
        tree, diags = dsl.parse_unit(SourceUnit(f"unit{i}.adl", text))
        assert tree is not None, diags
        trees.append(tree)
    return model.resolve(trees)


def resolve_fixtures(*names):
    trees = []
    for name in names:
        text = (FIXTURES / name).read_text()
        tree, diags = dsl.parse_unit(SourceUnit(name, text))
        assert tree is not None, diags
        trees.append(tree)
    m, diags = model.resolve(trees)
    assert m is not None, [str(d) for d in diags]
    return m


# --- resolve -------------------------------------------------------------------

def test_resolve_use_case_listings():
    m = resolve_fixtures("manage_portfolio_req.adl", "manage_documents_req.adl")
    assert len(m.interfaces["ManagePortfolio"].all_methods()) == 5
    assert len(m.interfaces["ManageDocuments"].all_methods()) == 3


def test_resolve_empty_input():
    m, diags = model.resolve([])
    assert m is not None and diags == []
    assert m.interfaces == {} and m.components == {}


def test_resolve_rejects_self_extending_interface():
    m, diags = resolve_text("interface A extends A { }")
    assert m is None
    assert any(d.code == "cyclic-declaration" for d in diags)


def test_resolve_rejects_cyclic_types():
    m, diags = resolve_text("type A <: B;\ntype B <: A;")
    assert m is None
    assert any(d.code == "cyclic-declaration" for d in diags)


def test_every_type_that_reaches_a_supertype_cycle_is_reported_once():
    # A and E lead into the B-C cycle, D does not, and B's identical
    # re-declaration is reported at its first declaration
    m, diags = resolve_text("type A <: B;\ntype B <: C;\ntype C <: B;\ntype D;\n"
                            "type E <: A;\ntype F <: E;\ntype B <: C;")
    assert m is None
    assert [str(d) for d in diags] == [
        f"{line}:1: error: cyclic supertype chain through {name!r} [cyclic-declaration]"
        for line, name in ((1, "A"), (2, "B"), (3, "C"), (5, "E"), (6, "F"))]


def _load_unit(tmp_path, text):
    (tmp_path / "u.adl").write_text(text)
    (tmp_path / "cat.txt").write_text("u.adl\n")
    start = time.perf_counter()
    catalog, m, diags = repo.load(tmp_path / "cat.txt")
    assert catalog is not None, [str(d) for d in diags[:3]]
    return m, time.perf_counter() - start


def _chain(n: int) -> str:
    return "interface I0 { m0(); }\n" + "".join(
        f"interface I{i} extends I{i - 1} {{ m{i}(); }}\n" for i in range(1, n))


def test_a_2000_deep_extends_chain_loads_in_linear_time(tmp_path):
    # each interface's method tuple is built once, when first asked for
    m, seconds = _load_unit(tmp_path, _chain(2000))
    assert [s.name for s in m.interfaces["I1999"].all_methods()] == [f"m{i}" for i in range(2000)]
    assert seconds < 1.0


def test_a_10000_deep_extends_chain_resolves_in_linear_time():
    # each link takes its base's set of method names over and adds its own
    tree, _ = dsl.parse_unit(SourceUnit("u.adl", _chain(10_000)))
    start = time.perf_counter()
    m, diags = model.resolve([tree])
    seconds = time.perf_counter() - start
    assert m is not None, diags[:3]
    assert seconds < 1.0
    assert len(m.interfaces["I9999"].all_methods()) == 10_000


def test_duplicate_methods_are_found_down_every_extends_branch():
    # B, C and E extend A, and D extends B: a link that takes over its base's
    # names leaves its siblings theirs; recorded before links shared name sets
    m, diags = resolve_text(
        "interface A { a(); }\n"
        "interface B extends A { b(); a(); }\n"
        "interface C extends A { c(); c(); a(); }\n"
        "interface D extends B { a(); b(); d(); d(); }\n"
        "interface E extends A { b(); d(); }\n"
        "interface G extends F { f(); g(); a(); }\n"
        "interface F extends E { f(); b(); }\n"
        "interface H extends D { h(); }\n")
    assert m is None
    assert [f"{d.span}: {d.message}" for d in diags] == [
        f"{at}: duplicate method {name!r}"
        for at, name in (("2:30", "a"), ("3:30", "c"), ("3:35", "a"), ("4:25", "a"),
                         ("4:30", "b"), ("4:40", "d"), ("7:30", "b"), ("6:25", "f"),
                         ("6:35", "a"))]
    m, diags = resolve_text("interface A { a(); }\ninterface B extends A { b(); }\n"
                            "interface C extends A { c(); }\ninterface D extends B { d(); }\n")
    assert [[s.name for s in m.interfaces[name].all_methods()] for name in "DCBA"] == \
        [["a", "b", "d"], ["a", "c"], ["a", "b"], ["a"]]


def test_a_6000_type_subtype_chain_loads_in_linear_time(tmp_path):
    # the cycle check walks each supertype link once
    m, seconds = _load_unit(tmp_path, "type T0;\n" + "".join(
        f"type T{i} <: T{i - 1};\n" for i in range(1, 6000)))
    assert len(m.types) == 6000
    assert seconds < 1.0


def test_resolve_allows_identical_type_redeclaration():
    m, diags = resolve_text("type String;", "type String;\ntype Account;")
    assert m is not None
    assert set(m.types) == {"String", "Account"}


def test_resolve_rejects_conflicting_type_redeclaration():
    m, diags = resolve_text("type A;\ntype B;\ntype C <: A;", "type C <: B;")
    assert m is None
    assert any(d.code == "duplicate-declaration" for d in diags)


def test_resolve_rejects_duplicate_names_across_kinds():
    m, diags = resolve_text("type X;\ninterface X { }")
    assert m is None
    assert any(d.code == "duplicate-declaration" for d in diags)


def test_resolve_rejects_unknown_parameter_type():
    m, diags = resolve_text("interface A { f(x: Ghost); }")
    assert m is None
    assert any(d.code == "unbound-name" for d in diags)


def test_resolve_rejects_contract_signature_mismatch():
    m, diags = resolve_text(
        "type String;\ninterface A { f(x: String); }\n"
        "contract C implements A { method f(x: String): String; }")
    assert m is None
    assert any(d.code == "signature-mismatch" for d in diags)


def test_resolve_rejects_unknown_protocol_event_in_contract():
    m, diags = resolve_text(
        "type String;\ninterface A { f(x: String); }\n"
        "contract C implements A { protocol { ?ghost } }")
    assert m is None
    assert any(d.code == "unknown-event" for d in diags)


def test_resolve_rejects_overlapping_component_interfaces():
    m, diags = resolve_text(
        "interface A { f(); }\ninterface B { f(); }\n"
        "contract C implements A { }\n"
        "component K { provided contract C required interface B }")
    assert m is None
    assert any(d.code == "overlapping-methods" for d in diags)


def test_resolve_extends_collects_inherited_methods():
    m, diags = resolve_text(
        "type String;\n"
        "interface Base { f(x: String); }\n"
        "interface Derived extends Base { g(); }")
    assert m is not None
    derived = m.interfaces["Derived"]
    assert [s.name for s in derived.all_methods()] == ["f", "g"]
    assert derived.method_names() == {"f", "g"}


def test_resolve_deterministic():
    texts = [(FIXTURES / n).read_text() for n in ("types.adl", "document_manager.adl")]
    first = resolve_text(*texts)
    second = resolve_text(*texts)
    assert first[0] == second[0]


# --- a requirement resolved on top of the catalog ----------------------------------

@functools.cache
def load_catalog(name):
    catalog, m, diags = repo.load(FIXTURES / name)
    assert catalog is not None, diags
    return catalog, m


def full_load_requirement(path, catalog):
    """repo.load_requirement with the whole catalog resolved again together with
    the requirement: the oracle for resolving on top of the catalog's model."""
    tree, diagnostics = dsl.parse_unit(SourceUnit(str(path), path.read_text()))
    if tree is None:
        return None, None, diagnostics
    merged, diags = model.resolve(list(catalog.trees) + [tree])
    diagnostics = diagnostics + diags
    if merged is None:
        return None, None, diagnostics
    interfaces = [d for d in tree.declarations if isinstance(d, syntax.InterfaceDecl)]
    if len(interfaces) != 1:
        return None, None, diagnostics + [Diagnostic(
            ERROR, Span(1, 1, 0, 0),
            f"a requirement unit must declare exactly one interface, found {len(interfaces)}",
            "bad-requirement", str(path))]
    iface = merged.interfaces[interfaces[0].name]
    contracts = [d for d in tree.declarations
                 if isinstance(d, syntax.ContractDecl) and d.implements == iface.name]
    required_protocol = merged.contracts[contracts[0].name].prot if contracts else None
    return Requirement(iface, required_protocol), merged, diagnostics


def assert_resolves_as_the_whole_catalog(catalog_name, text, directory):
    catalog, m = load_catalog(catalog_name)
    path = directory / "requirement.adl"
    path.write_text(text)
    req, merged, diags = repo.load_requirement(path, catalog, m)
    ref, ref_merged, ref_diags = full_load_requirement(path, catalog)
    assert (req is None) == (ref is None)
    assert diags == ref_diags
    if req is not None:
        assert req.iface == ref.iface
        assert req.required_protocol == ref.required_protocol
        assert merged == ref_merged
    return diags


REQUIREMENTS = {
    "verbatim type repeat": "type String;\ninterface R { f(x: String); }",
    "type with another supertype": "type Document <: String;\ninterface R { f(x: Document); }",
    "extends a catalog interface": (
        "type String;\ninterface R extends ManageDocument { more(x: String): String; }\n"
        "contract RSpec implements R { protocol { ?searchDocuments ?more* } }"),
    "unknown type": "interface R { f(x: Money); }",
    "same-kind clash": "interface ManageDocument { f(x: String); }",
    "cross-kind cascade": "interface ManageDocumentCtr { f(x: String); }",
    "type named like a catalog interface": "type ManageDocument;\ninterface R { f(x: ManageDocument); }",
    "interface named like a catalog type": "interface Document { f(x: String); }",
    "new supertype cycle": "type A <: B;\ntype B <: A;\ninterface R { f(x: A); }",
    "contract of a catalog interface": (
        "interface R { f(x: String); }\n"
        "contract Other implements ManageDocument { protocol { ?viewDocument* } }"),
}


@pytest.mark.parametrize("catalog_name", ["catalog.txt", "catalog_full.txt"])
@pytest.mark.parametrize("case", sorted(REQUIREMENTS))
def test_requirement_resolves_as_with_the_whole_catalog(tmp_path, catalog_name, case):
    assert_resolves_as_the_whole_catalog(catalog_name, REQUIREMENTS[case], tmp_path)


def test_a_cross_kind_clash_blames_the_catalog_declaration(tmp_path):
    # the requirement's interface claims the name before the catalog's contract
    diags = assert_resolves_as_the_whole_catalog(
        "catalog.txt", REQUIREMENTS["cross-kind cascade"], tmp_path)
    assert [(Path(d.path).name, str(d.span), d.code) for d in diags] == [
        ("document_manager.adl", "20:1", "duplicate-declaration"),
        ("document_manager.adl", "28:1", "unbound-name")]


# a name of every kind the catalogs declare, or a name they do not declare
_name = st.sampled_from(["R", "S", "T"]) | st.sampled_from([
    "String", "Document", "ManageDocument", "AccountInquiry", "ManageDocumentCtr",
    "DocumentManager", "AccountServicePub", "CustomerService", "Realization"])
# mostly names that resolve, so that some units resolve
_type = st.sampled_from(["String", "Document", "R", "ManageDocument"])
_base = st.sampled_from([None, None, "ManageDocument", "AccountInquiry", "S", "DocumentManager"])
_method = st.sampled_from(["f", "viewDocument", "getBalance"])


def _method_decl(name, params, ret):
    args = ", ".join(f"x{i}: {t}" for i, t in enumerate(params))
    return f"{name}({args})" + (f": {ret}" if ret else "") + ";"


_interface = st.builds(
    lambda n, base, methods: f"interface {n}" + (f" extends {base}" if base else "")
    + " { " + " ".join(methods) + " }",
    _name, _base,
    st.lists(st.builds(_method_decl, _method, st.lists(_type, max_size=2), st.none() | _type),
             max_size=2))
_declaration = st.one_of(
    st.builds(lambda n, sup: f"type {n}" + (f" <: {sup}" if sup else "") + ";",
              _type, st.none() | _type),
    _interface,
    st.builds(lambda n, iface, events: f"contract {n} implements {iface} {{ protocol {{ "
              + " ".join(f"?{e}" for e in events) + "* } }",
              _name, _name, st.lists(_method, min_size=1, max_size=2)),
    st.builds(lambda n, contract: f"component {n} {{ provided contract {contract} }}",
              _name, _name),
)
# an interface and up to two more declarations, in any order
_unit = st.tuples(_interface, st.lists(_declaration, max_size=2)).flatmap(
    lambda t: st.permutations([t[0], *t[1]]))


@pytest.fixture(scope="module")
def requirement_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("requirements")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["catalog.txt", "catalog_full.txt"]), _unit)
def test_random_requirements_resolve_as_with_the_whole_catalog(requirement_dir, catalog_name,
                                                               declarations):
    assert_resolves_as_the_whole_catalog(catalog_name, "\n".join(declarations),
                                         requirement_dir)


# --- publish ---------------------------------------------------------------------

def test_publish_document_manager_matches_publication_listing():
    m = resolve_fixtures("types.adl", "document_manager.adl")
    comp = m.components["DocumentManager"]
    pub = model.publish(comp)
    assert pub.name == "DocumentManager"
    assert set(pub.provided.designs) == {"viewDocument", "searchDocuments", "setPreference"}
    assert all(spec.guard is None for spec in pub.provided.designs.values())
    assert pub.provided.traces == comp.provided_protocol
    assert pub.required is not None
    assert pub.required.iface.method_names() == {
        "getDocument", "getDocuments", "updateDocumentSetting"}
    # guards are stripped, designs and signatures are untouched
    assert pub.provided.designs["searchDocuments"].design == "query the document store"
    assert pub.provided.iface is comp.provided_interface


def test_publish_without_guards_is_identity_on_designs():
    m, _ = resolve_text(
        "type String;\ninterface A { f(x: String); }\n"
        "contract C implements A { method f(x: String) [design: \"plain\"]; protocol { ?f } }\n"
        "component K { provided contract C }")
    comp = m.components["K"]
    pub = model.publish(comp)
    assert pub.provided.designs == comp.provided.base.phi
    assert pub.required is None


def test_publish_strips_every_guard():
    m, _ = resolve_text(
        "interface A { f(); g(); }\n"
        "contract C implements A { method f() [guard: \"p\"]; method g() [guard: \"q\"]; "
        "protocol { ?f ?g } }\n"
        "component K { provided contract C }")
    pub = model.publish(m.components["K"])
    assert sum(1 for s in pub.provided.designs.values() if s.guard is not None) == 0


def test_publish_requires_protocol():
    m, _ = resolve_text(
        "interface A { f(); }\ncontract C implements A { }\n"
        "component K { provided contract C }")
    with pytest.raises(model.ModelError, match="cannot publish without protocol"):
        model.publish(m.components["K"])


def test_publish_never_alters_signatures():
    m = resolve_fixtures("types.adl", "document_manager.adl")
    comp = m.components["DocumentManager"]
    pub = model.publish(comp)
    assert pub.provided.iface.all_methods() == comp.provided_interface.all_methods()


# --- validate_publication ---------------------------------------------------------

def iface(name, *methods):
    return model.Interface(name, (), tuple(model.MethodSig(m, ()) for m in methods))


def make_publication(provided_iface, provided_traces, causal,
                     required_iface=None, required_traces=None):
    provided = model.PublicationContract(
        provided_iface, {m.name: model.MethodSpec() for m in provided_iface.all_methods()},
        provided_traces)
    required = None
    if required_iface is not None:
        traces = required_traces
        if traces is None:
            traces = P.universal_expr(required_iface.method_names())
        required = model.PublicationContract(
            required_iface, {m.name: model.MethodSpec() for m in required_iface.all_methods()},
            traces)
    return model.Publication("pub", provided, required, causal)


def test_validate_projection_drops_required_events():
    pub = make_publication(
        iface("P", "searchDocuments"), Ev("searchDocuments"),
        Seq(Ev("getDocuments"), Ev("searchDocuments")),
        required_iface=iface("R", "getDocuments"),
        required_traces=Ev("getDocuments"))
    res = model.validate_publication(pub)
    assert res.ok, res.failures


def test_validate_identity_projection():
    traces = Star(Alt(Ev("a"), Ev("b")))
    pub = make_publication(iface("P", "a", "b"), traces, traces)
    assert model.validate_publication(pub).ok


def test_validate_fails_with_counterexample():
    # projection of the causal relation is {aa}, the declared protocol is {a};
    # the shortest separating word is "a", on the declared side
    pub = make_publication(iface("P", "a"), Ev("a"), Seq(Ev("a"), Ev("a")))
    res = model.validate_publication(pub)
    assert not res.ok
    failure = res.failures[0]
    assert failure.condition == "provided"
    assert failure.witness == ("a",)
    assert failure.side == "declared-protocol"
    # both words of the symmetric difference witness the mismatch; "aa" is the
    # one on the projection side
    assert mem(Seq(Ev("a"), Ev("a")), ("a", "a")) and not mem(Ev("a"), ("a", "a"))


def test_validate_default_causal_passes():
    m = resolve_fixtures("types.adl", "document_manager.adl")
    pub = model.publish(m.components["DocumentManager"])
    assert model.validate_publication(pub).ok


def test_validate_declared_causal_from_fixture():
    m = resolve_fixtures("types.adl", "insurance.adl")
    pub = model.publish(m.components["InquiryPortal"])
    assert pub.causal == Star(Seq(Ev("inquire"), Ev("lookup")))
    assert model.validate_publication(pub).ok


def test_validate_agrees_with_enumeration_oracle():
    rng = random.Random(71)
    agreements = 0
    while agreements < 40:
        provided_events = ["a", "b"]
        required_events = ["x", "y"]
        p_iface = iface("P", *provided_events)
        r_iface = iface("R", *required_events)
        provided_traces = random_expr(rng, provided_events, 2)
        required_traces = random_expr(rng, required_events, 2)
        causal = random_expr(rng, provided_events + required_events, 3)
        pub = make_publication(p_iface, provided_traces, causal, r_iface, required_traces)
        res = model.validate_publication(pub)
        # oracle: the projected causal language is the language of the
        # syntactically erased expression; compare bounded enumerations
        checks = {"provided": (frozenset(provided_events), provided_traces),
                  "required": (frozenset(required_events), required_traces)}
        oracle_ok = True
        for keep, declared in checks.values():
            if lang_upto(erase_expr(causal, keep), 8) != lang_upto(declared, 8):
                oracle_ok = False
        if res.ok != oracle_ok:
            # a difference only beyond the enumeration bound: the oracle sees
            # equality, the full check does not; the witness must be long
            assert res.ok is False and oracle_ok is True
            assert all(len(f.witness) > 8 for f in res.failures)
            continue
        if not res.ok:
            f = res.failures[0]
            keep, declared = checks[f.condition]
            assert mem(erase_expr(causal, keep), f.witness) != mem(declared, f.witness)
        agreements += 1
