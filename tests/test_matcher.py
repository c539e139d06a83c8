"""End-to-end matching pipeline: prefilter, classification, ranking, narratives."""

from __future__ import annotations

from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from archmatch import matcher, model, repo, sigmatch
from archmatch import protocol as P
from archmatch.matcher import Requirement
from archmatch.protocol import Alt, Eps, Ev, Seq, Shuffle, Star
from archmatch.sigmatch import TypeLattice

from oracles import dfa_of, rename_expr

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _index(entries):
    """An index of `entries` alone, with no catalog behind it."""
    return repo.CompiledIndex(entries, "h", {}, (), P.DEFAULT_STATE_LIMIT)


@pytest.fixture(scope="module")
def repo_state():
    catalog, m, diags = repo.load(FIXTURES / "catalog.txt")
    assert catalog is not None, [str(d) for d in diags]
    index = repo.build_index(catalog, m)
    return catalog, m, index


def requirement_from(name, catalog, m):
    req, merged, diags = repo.load_requirement(FIXTURES / name, catalog, m)
    assert req is not None, [str(d) for d in diags]
    return req, merged


def test_an_inclusion_overflow_names_the_component():
    catalog, m, _ = repo.load(FIXTURES / "catalog_full.txt")
    index = repo.build_index(catalog, m)
    req, merged = requirement_from("manage_documents_req.adl", catalog, m)
    lattice = TypeLattice.from_types(merged.types)
    with pytest.raises(P.ProtocolTooLarge, match="^component 'DocumentManager': protocol too "
                                                 "large: product exceeds 2 states$"):
        matcher.match_requirement(req, index, lattice, state_limit=2)


# --- prefilter ----------------------------------------------------------------

def test_prefilter_keeps_component_sharing_a_shape():
    catalog, m, _ = repo.load(FIXTURES / "catalog_full.txt")
    index = repo.build_index(catalog, m)
    req = Requirement(model.Interface("Renamed", (), (
        model.MethodSig("fetch", (model.Param("key", "String"),)),)))
    kept = matcher.prefilter(req, index.entries.values(), TypeLattice.from_types(m.types))
    # CustomerDirectory and InquiryPortal only provide String -> String methods
    assert [e.component for e in kept] == [
        "AccountService", "DocumentManager", "PremierAccountService"]


def test_prefilter_requirement_without_methods_keeps_all(repo_state):
    *_, index = repo_state
    req = Requirement(model.Interface("X", (), ()))
    kept = matcher.prefilter(req, index.entries.values(), TypeLattice({}))
    assert len(kept) == len(index.entries)


def test_prefilter_disjoint_shapes_drop_everything(repo_state):
    _, m, index = repo_state
    req = Requirement(model.Interface("X", (), (
        model.MethodSig("viewDocument", (model.Param("documentId", "String"),), "Document"),)))
    assert matcher.prefilter(req, index.entries.values(), TypeLattice.from_types(m.types)) == []


# --- match_requirement ------------------------------------------------------------

def test_match_documents_requirement_use(repo_state):
    catalog, m, index = repo_state
    req, merged = requirement_from("manage_documents_req.adl", catalog, m)
    assert req.required_protocol == Star(Alt(Ev("searchDocuments"), Ev("setPreference")))
    result = matcher.match_requirement(req, index, TypeLattice.from_types(merged.types))
    assert result.recommendation == matcher.Recommendation("USE", "DocumentManager")
    report = result.reports[0]
    assert report.verdict == matcher.USE
    assert report.protocol_verdict == matcher.HOLDS
    assert report.module_match.overall_kind == "exact"
    assert report.module_match.name_matches() == 3


def test_match_portfolio_requirement_new(repo_state):
    catalog, m, index = repo_state
    req, merged = requirement_from("manage_portfolio_req.adl", catalog, m)
    result = matcher.match_requirement(req, index, TypeLattice.from_types(merged.types))
    assert result.recommendation == matcher.Recommendation("NEW")
    assert all(r.verdict == matcher.NO_MATCH for r in result.reports)


def test_match_view_requirement_adapt_with_counterexample(repo_state):
    catalog, m, index = repo_state
    req, merged = requirement_from("manage_documents_view_req.adl", catalog, m)
    result = matcher.match_requirement(req, index, TypeLattice.from_types(merged.types))
    assert result.recommendation == matcher.Recommendation("ADAPT", "DocumentManager")
    report = result.reports[0]
    assert report.verdict == matcher.ADAPT_CANDIDATE
    assert report.protocol_verdict == matcher.FAILS
    assert report.counterexample == ("viewDocument",)


def test_match_without_protocol_uses_signature_alone(repo_state):
    catalog, m, index = repo_state
    req = Requirement(m.interfaces["ManageDocument"])
    result = matcher.match_requirement(req, index, TypeLattice.from_types(m.types))
    report = result.reports[0]
    assert report.verdict == matcher.USE
    assert report.protocol_verdict == matcher.NOT_CHECKED


def test_match_empty_repository():
    req = Requirement(model.Interface("X", (), ()))
    empty = _index({})
    result = matcher.match_requirement(req, empty, TypeLattice({}))
    assert result.reports == ()
    assert result.recommendation == matcher.Recommendation("NEW")


def test_use_soundness_sampled_traces(repo_state):
    catalog, m, index = repo_state
    req, merged = requirement_from("manage_documents_req.adl", catalog, m)
    result = matcher.match_requirement(req, index, TypeLattice.from_types(merged.types))
    report = result.reports[0]
    assert report.verdict == matcher.USE
    mapping = {q: mm.provided_method for q, mm in report.module_match.method_map.items()}
    renamed = rename_expr(req.required_protocol, mapping)
    assert P.events(renamed) <= index.entries["DocumentManager"].provided_automaton.alphabet
    provided = index.entries[report.component].provided_automaton
    for trace in P.sample_traces(dfa_of(renamed), 8):
        assert P.accepts(provided, trace)


def test_match_determinism(repo_state):
    catalog, m, index = repo_state
    req, merged = requirement_from("manage_documents_req.adl", catalog, m)
    lattice = TypeLattice.from_types(merged.types)
    a = matcher.match_requirement(req, index, lattice)
    b = matcher.match_requirement(req, index, lattice)
    assert a.recommendation == b.recommendation
    assert [(r.sort_key(), r.verdict, r.counterexample) for r in a.reports] == \
        [(r.sort_key(), r.verdict, r.counterexample) for r in b.reports]


TYPES = ["T0", "T1", "T2", "T3", "T4"]
NAMES = ["get", "put", "find", "drop", "list"]  # drawn independently of the types

_METHODS = st.lists(st.builds(
    lambda name, params, ret: model.MethodSig(
        name, tuple(model.Param(f"p{i}", t) for i, t in enumerate(params)), ret),
    st.sampled_from(NAMES), st.lists(st.sampled_from(TYPES), max_size=3),
    st.none() | st.sampled_from(TYPES)), min_size=1, max_size=3, unique_by=lambda m: m.name)
# protocols over placeholder events "0".."2", renamed onto an interface's methods
_PROTOCOLS = st.recursive(
    st.sampled_from("012").map(Ev) | st.just(Eps()),
    lambda inner: st.one_of(st.builds(Seq, inner, inner), st.builds(Alt, inner, inner),
                            st.builds(Star, inner), st.builds(Shuffle, inner, inner)),
    max_leaves=5)


@st.composite
def _interfaces(draw, name, protocol_odds):
    methods = draw(_METHODS)
    protocol = None
    if draw(st.sampled_from(protocol_odds)):
        protocol = rename_expr(draw(_PROTOCOLS),
                               {str(i): methods[i % len(methods)].name for i in range(3)})
    return model.Interface(name, (), tuple(methods)), protocol


@st.composite
def _queries(draw):
    """A random subtype forest, a catalog over it, and a requirement."""
    lattice = TypeLattice({t: draw(st.sampled_from([None] + TYPES[:i]))
                           for i, t in enumerate(TYPES)})
    entries = {}
    for i in range(draw(st.integers(1, 6))):
        iface, expr = draw(_interfaces(f"Ops{i}", [False, True, True]))
        names = iface.method_names()
        if expr is None:
            expr = P.universal_expr(names)
        auto = P.determinize(P.compile(expr, alphabet=names))
        entries[f"C{i}"] = repo.IndexEntry(f"C{i}", iface.methods, P.minimize(auto))
    iface, expr = draw(_interfaces("Wanted", [False, True]))
    return Requirement(iface, expr), _index(entries), lattice


def _kept_reports(result):
    return [(r.sort_key(), r.verdict, r.module_match.method_map, r.counterexample)
            for r in result.reports if r.verdict != matcher.NO_MATCH]


@settings(max_examples=150, deadline=None)
@given(_queries())
def test_prefilter_is_conservative(query):
    req, index, lattice = query
    with_pf = matcher.match_requirement(req, index, lattice, use_prefilter=True)
    without = matcher.match_requirement(req, index, lattice, use_prefilter=False)
    assert with_pf.recommendation == without.recommendation
    assert _kept_reports(with_pf) == _kept_reports(without)
    # the relabeled requirement DFA decides inclusion like the renamed expression
    for r in without.reports:
        if not r.module_match.unmatched and req.required_protocol is not None:
            mapping = {q: m.provided_method for q, m in r.module_match.method_map.items()}
            reference = P.includes(dfa_of(rename_expr(req.required_protocol, mapping)),
                                   index.entries[r.component].provided_automaton)
            assert reference.counterexample == r.counterexample


@settings(max_examples=100, deadline=None)
@given(_queries())
def test_each_candidate_solves_at_most_one_assignment(query):
    req, index, drawn = query
    for use_prefilter in (True, False):
        lattice = TypeLattice(dict(drawn.parents))
        with mock.patch.object(sigmatch, "_hungarian", wraps=sigmatch._hungarian) as solve, \
                mock.patch.object(sigmatch, "match_module", wraps=sigmatch.match_module) as match:
            result = matcher.match_requirement(req, index, lattice, use_prefilter=use_prefilter)
        assert match.call_count == len(result.reports)  # one call per candidate
        assert solve.call_count <= len(result.reports)


def test_requirement_protocol_compiled_at_most_once(monkeypatch):
    calls = []
    real_compile = P.compile
    auto = P.minimize(P.determinize(P.compile(P.universal_expr({"a", "b"}))))  # not counted

    def counting(*args, **kwargs):
        calls.append(args)
        return real_compile(*args, **kwargs)

    monkeypatch.setattr(P, "compile", counting)
    methods = (model.MethodSig("a", ()), model.MethodSig("b", (model.Param("x", "T"),)))
    index = _index({f"C{i}": repo.IndexEntry(f"C{i}", methods, auto) for i in range(5)})
    lattice = TypeLattice({"T": None, "U": None})
    req = Requirement(model.Interface("R", (), methods), Star(Alt(Ev("a"), Ev("b"))))
    result = matcher.match_requirement(req, index, lattice)
    assert [r.verdict for r in result.reports] == [matcher.USE] * 5
    assert len(calls) == 1
    calls.clear()
    unmatched = Requirement(model.Interface("R", (), (model.MethodSig("a", (), "U"),)), Ev("a"))
    matcher.match_requirement(unmatched, index, lattice, use_prefilter=False)
    assert calls == []


def test_signature_matrix_is_built_once_per_candidate(monkeypatch):
    calls = []
    real_match_types = sigmatch._match_types

    def counting(q_types, p_types, lattice):
        calls.append((q_types, p_types))
        return real_match_types(q_types, p_types, lattice)

    monkeypatch.setattr(sigmatch, "_match_types", counting)
    sig = model.MethodSig
    t, u = (model.Param("x", "T"),), (model.Param("x", "U"),)
    wanted = (sig("a", t), sig("b", t, "T"), sig("c", u), sig("d", u, "U"))
    providers = {"Adapt": (sig("p", t), sig("q", t, "T"), sig("r", ())),  # 2 of 4 covered
                 "Poor": (sig("p", t), sig("r", u, "T")),                 # 1 of 4 covered
                 "Tiny": (sig("c", u),)}                                  # 1 of 4 covered
    auto = P.minimize(P.determinize(P.compile(P.universal_expr(frozenset()))))
    index = _index({name: repo.IndexEntry(name, methods, auto)
                    for name, methods in providers.items()})
    req = Requirement(model.Interface("R", (), wanted))
    result = matcher.match_requirement(req, index, TypeLattice({"T": None, "U": None}))
    # Tiny keeps the name of `c`, Poor keeps none
    assert [(r.component, r.verdict) for r in result.reports] == \
        [("Adapt", matcher.ADAPT_CANDIDATE), ("Tiny", matcher.NO_MATCH),
         ("Poor", matcher.NO_MATCH)]
    # each distinct pair of signature types is compared once, though Adapt and
    # Poor share the signature of `p`
    pairs = {(w.types, m.types) for w in wanted for ms in providers.values() for m in ms}
    assert len(calls) == len(set(calls)) and set(calls) == pairs
    assert len(pairs) < len(wanted) * sum(len(methods) for methods in providers.values())
    assert all(r.module_match.unmatched for r in result.reports)


# --- ranking -----------------------------------------------------------------------

def _ranked(wanted, providers, lattice):
    """Match a requirement of methods `wanted`, without a protocol, against
    components of the given methods that allow every call sequence."""
    auto = P.minimize(P.determinize(P.compile(P.universal_expr(frozenset()))))
    index = _index({name: repo.IndexEntry(name, methods, auto)
                    for name, methods in providers.items()})
    return matcher.match_requirement(Requirement(model.Interface("R", (), wanted)), index,
                                     lattice)


def _methods(names, types):
    return tuple(model.MethodSig(n, (model.Param("x", t),)) for n, t in zip(names, types))


def test_more_matched_methods_outrank_more_same_names():
    wanted = _methods("abcde", TYPES)
    providers = {"Named": _methods("abc", TYPES),      # 3 of 5 methods, 3 same names
                 "Covering": _methods("pqrd", TYPES)}  # 4 of 5 methods, 1 same name
    result = _ranked(wanted, providers, TypeLattice({t: None for t in TYPES}))
    assert [(r.component, r.verdict) for r in result.reports] == \
        [("Covering", matcher.ADAPT_CANDIDATE), ("Named", matcher.ADAPT_CANDIDATE)]
    assert result.recommendation == matcher.Recommendation("ADAPT", "Covering")
    assert matcher.explain(result.reports[0]).splitlines()[0] == \
        "component Covering: ADAPT_CANDIDATE (4 of 5 methods, 1 same names)"


def test_a_stronger_kind_outranks_more_same_names():
    lattice = TypeLattice({"T0": None, "T1": None, "T2": None, "T3": None, "Sub": "T0"})
    wanted = _methods("abcd", ("Sub", "T1", "T2", "T3"))
    providers = {"Named": _methods("abcw", ("T0", "T1", "T2", "T3")),  # generalized, 3 names
                 "Exact": _methods("pqrs", ("Sub", "T1", "T2", "T3"))}  # exact, no name
    result = _ranked(wanted, providers, lattice)
    assert [(r.component, r.module_match.overall_kind) for r in result.reports] == \
        [("Exact", sigmatch.EXACT), ("Named", sigmatch.GENERALIZED)]
    assert result.recommendation == matcher.Recommendation("USE", "Exact")
    assert matcher.explain(result.reports[1]).splitlines()[0] == \
        "component Named: USE (generalized; 4 of 4 methods, 3 same names)"


@st.composite
def _catalogs(draw):
    """A random subtype forest, requirement methods, and components whose
    methods mostly copy a requirement method's signature, some parameter types
    widened to their supertypes, under any name."""
    parents = {t: draw(st.sampled_from([None] + TYPES[:i])) for i, t in enumerate(TYPES)}
    wanted = tuple(draw(_METHODS))

    def near(m):
        types = [draw(st.sampled_from([t, parents[t] or t])) for t in m.param_types()]
        params = tuple(model.Param(p.name, t) for p, t in zip(m.params, types))
        return model.MethodSig(draw(st.sampled_from(NAMES)), params, m.return_type)

    providers = {}
    for i in range(draw(st.integers(2, 5))):
        copies = draw(st.lists(st.sampled_from(wanted), max_size=3))
        methods = {m.name: m for m in [*draw(_METHODS), *map(near, copies)]}
        providers[f"C{i}"] = tuple(methods.values())
    return wanted, providers, TypeLattice(parents)


@settings(max_examples=200, deadline=None)
@given(_catalogs(), st.data())
def test_a_same_name_never_lifts_a_report_above_more_methods_or_a_stronger_kind(catalog, data):
    wanted, providers, lattice = catalog
    names = {m.name for m in wanted}
    renames = [(r.component, q, m.provided_method)
               for r in _ranked(wanted, providers, lattice).reports
               for q, m in sorted(r.module_match.method_map.items())
               if m.provided_method not in names]
    assume(renames)
    # give requirement method q the name of the provided method it maps to
    component, q, p = data.draw(st.sampled_from(renames))
    wanted = tuple(model.MethodSig(p, m.params, m.return_type) if m.name == q else m
                   for m in wanted)
    reports = _ranked(wanted, providers, lattice).reports

    def matched_and_kind(report):
        sig = report.module_match
        return len(sig.method_map), sigmatch.strength(sig.overall_kind)

    at = [r.component for r in reports].index(component)
    assert all(matched_and_kind(r) <= matched_and_kind(reports[at]) for r in reports[at + 1:])


# --- explain -----------------------------------------------------------------------

def test_explain_use_narrative(repo_state):
    catalog, m, index = repo_state
    req, merged = requirement_from("manage_documents_req.adl", catalog, m)
    result = matcher.match_requirement(req, index, TypeLattice.from_types(merged.types))
    text = matcher.explain(result.reports[0])
    assert text.endswith("component can be plugged in")
    assert "searchDocuments -> searchDocuments" in text


def test_explain_adapt_mentions_counterexample(repo_state):
    catalog, m, index = repo_state
    req, merged = requirement_from("manage_documents_view_req.adl", catalog, m)
    result = matcher.match_requirement(req, index, TypeLattice.from_types(merged.types))
    text = matcher.explain(result.reports[0])
    assert "viewDocument" in text
    assert "FAILS" in text


def test_explain_no_match_lists_first_unmatched(repo_state):
    catalog, m, index = repo_state
    req, merged = requirement_from("manage_portfolio_req.adl", catalog, m)
    result = matcher.match_requirement(req, index, TypeLattice.from_types(merged.types))
    text = matcher.explain(result.reports[0])
    assert "  unmatched requirement methods: addAccount, deleteAccount, transferAccount" \
        in text.splitlines()
    assert text.endswith("not a viable provider for this requirement")


def test_explain_no_match_does_not_deny_a_compatible_method():
    # viewDocument and searchDocuments both match listTransactions exactly; the
    # partial assignment gives it to one of them, a different one per component
    catalog, m, _ = repo.load(FIXTURES / "catalog_full.txt")
    index = repo.build_index(catalog, m)
    req, merged = requirement_from("manage_documents_req.adl", catalog, m)
    result = matcher.match_requirement(req, index, TypeLattice.from_types(merged.types))
    reports = {r.component: r for r in result.reports}
    for name, unmatched in (("AccountService", "viewDocument, setPreference"),
                            ("PremierAccountService", "searchDocuments, setPreference")):
        assert reports[name].verdict == matcher.NO_MATCH
        text = matcher.explain(reports[name])
        assert "no compatible" not in text
        assert f"  unmatched requirement methods: {unmatched}" in text.splitlines()
