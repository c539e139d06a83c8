"""Signature matching: kinds, permutations, subtyping, module assignment."""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from archmatch import sigmatch as S
from archmatch.model import Interface, MethodSig, Param


def sig(name, *param_types, ret=None):
    return MethodSig(name, tuple(Param(f"p{i}", t) for i, t in enumerate(param_types)), ret)


def iface(name, *methods):
    return Interface(name, (), tuple(methods))


FLAT = S.TypeLattice({"String": None, "Account": None, "Party": None})
WITH_SUB = S.TypeLattice({"String": None, "Party": None, "Account": "Party",
                          "Premium": "Account"})


# --- match_method --------------------------------------------------------------

def test_exact_match_on_identical_signature():
    m = S.match_method(sig("viewDocument", "String"), sig("viewDocument", "String"), FLAT)
    assert m.kind == S.EXACT
    assert m.param_permutation == (0,)


def test_names_do_not_block_matching():
    m = S.match_method(sig("a", "String"), sig("b", "String"), FLAT)
    assert m.kind == S.EXACT
    assert not m.names_equal()


def test_permuted_match_records_permutation():
    m = S.match_method(sig("f", "String", "Account"), sig("g", "Account", "String"), FLAT)
    assert m.kind == S.PERMUTED
    assert m.param_permutation == (1, 0)
    # applying the permutation to p's parameter types gives q's, positionally
    p_types = ("Account", "String")
    assert tuple(p_types[i] for i in m.param_permutation) == ("String", "Account")


def test_generalized_match_via_declared_subtype():
    q = sig("f", "Account")
    p = sig("h", "Party")
    m = S.match_method(q, p, WITH_SUB)
    assert m.kind == S.GENERALIZED
    # exhaustive over the one-parameter subtype table
    order = ["Premium", "Account", "Party"]
    for qt, pt in itertools.product(order, order):
        got = S.match_method(sig("q", qt), sig("p", pt), WITH_SUB)
        if qt == pt:
            assert got.kind == S.EXACT
        elif WITH_SUB.le(qt, pt):
            assert got.kind == S.GENERALIZED
        elif WITH_SUB.le(pt, qt):
            assert got.kind == S.SPECIALIZED
        else:
            assert got is None


def _first_permutation(qt, pt):
    """Reference: the lexicographically first permutation of p's parameters
    that lists q's parameter types."""
    for perm in itertools.permutations(range(len(pt))):
        if tuple(pt[i] for i in perm) == qt:
            return perm
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["String", "Account", "Party"]), max_size=6).flatmap(
    lambda qt: st.tuples(st.just(tuple(qt)), st.permutations(qt).map(tuple))))
def test_permuted_match_is_the_first_permutation(types):
    qt, pt = types
    m = S.match_method(sig("f", *qt), sig("g", *pt), FLAT)
    assert m.kind == (S.EXACT if qt == pt else S.PERMUTED)
    assert m.param_permutation == _first_permutation(qt, pt)


def test_permuted_match_on_twelve_reversed_parameters():
    qt = ("String", "Account", "Party") * 4
    m = S.match_method(sig("f", *qt), sig("g", *reversed(qt)), FLAT)
    assert m.kind == S.PERMUTED
    assert m.param_permutation == (2, 1, 0, 5, 4, 3, 8, 7, 6, 11, 10, 9)


def test_return_types_are_unit_when_absent():
    assert S.match_method(sig("f"), sig("g"), FLAT).kind == S.EXACT
    assert S.match_method(sig("f"), sig("g", ret="String"), FLAT) is None
    assert S.match_method(sig("f", ret="String"), sig("g", ret="String"), FLAT).kind == S.EXACT


def test_return_type_variance():
    # provided return more specific than asked: generalized overall
    q = sig("f", "String", ret="Party")
    p = sig("g", "String", ret="Account")
    assert S.match_method(q, p, WITH_SUB).kind == S.GENERALIZED
    assert S.match_method(p, q, WITH_SUB).kind == S.SPECIALIZED


def test_match_method_reflexive_exact():
    rng = random.Random(5)
    types = ["String", "Account", "Party", "Premium"]
    for _ in range(40):
        m = sig("m", *(rng.choice(types) for _ in range(rng.randint(0, 3))),
                ret=rng.choice(types + [None]))
        assert S.match_method(m, m, WITH_SUB).kind == S.EXACT


def test_generalized_specialized_duality():
    rng = random.Random(9)
    types = ["String", "Account", "Party", "Premium"]
    for _ in range(200):
        q = sig("q", *(rng.choice(types) for _ in range(rng.randint(0, 2))),
                ret=rng.choice(types + [None]))
        p = sig("p", *(rng.choice(types) for _ in range(rng.randint(0, 2))),
                ret=rng.choice(types + [None]))
        qp = S.match_method(q, p, WITH_SUB)
        pq = S.match_method(p, q, WITH_SUB)
        if qp is not None and qp.kind == S.GENERALIZED:
            assert pq is not None and pq.kind == S.SPECIALIZED
        if qp is not None and qp.kind == S.SPECIALIZED:
            assert pq is not None and pq.kind == S.GENERALIZED


# --- match_module ---------------------------------------------------------------

MANAGE_DOCUMENTS = iface(
    "ManageDocuments",
    sig("viewDocument", "String"),
    sig("searchDocuments", "String"),
    sig("setPreference", "String", "String"))

PROVIDED_DOCUMENT = iface(
    "ManageDocument",
    sig("viewDocument", "String"),
    sig("searchDocuments", "String"),
    sig("setPreference", "String", "String"))

MANAGE_PORTFOLIO = iface(
    "ManagePortfolio",
    sig("createPortfolio", "String"),
    sig("deletePortfolio", "String"),
    sig("addAccount", "Account", "String"),
    sig("deleteAccount", "Account", "String"),
    sig("transferAccount", "Account", "String", "String"))


def test_module_match_documents_use_case():
    m = S.match_module(MANAGE_DOCUMENTS, PROVIDED_DOCUMENT, FLAT)
    assert m is not None
    assert m.overall_kind == S.EXACT
    assert len(m.method_map) == 3
    assert m.method_map["searchDocuments"].provided_method == "searchDocuments"
    assert m.name_overlap() == 1.0


def test_module_match_self_identity():
    m = S.match_module(MANAGE_PORTFOLIO, MANAGE_PORTFOLIO, FLAT)
    assert m.overall_kind == S.EXACT
    assert all(mm.query_method == mm.provided_method for mm in m.method_map.values())


def test_module_match_portfolio_has_no_provider():
    assert S.match_module(MANAGE_PORTFOLIO, PROVIDED_DOCUMENT, FLAT).unmatched


def test_module_match_injective():
    q = iface("Q", sig("a", "String"), sig("b", "String"))
    p = iface("P", sig("x", "String"), sig("y", "String"), sig("z", "Account"))
    m = S.match_module(q, p, FLAT)
    assert m is not None
    provided = [mm.provided_method for mm in m.method_map.values()]
    assert len(provided) == len(set(provided))


def test_module_match_prefers_verbatim_names():
    q = iface("Q", sig("ping", "String"), sig("pong", "String"))
    p = iface("P", sig("pong", "String"), sig("ping", "String"))
    m = S.match_module(q, p, FLAT)
    assert m.method_map["ping"].provided_method == "ping"
    assert m.method_map["pong"].provided_method == "pong"


def brute_force_best_kind(q, p, lattice):
    """Best weakest-link kind over all injective assignments, or None."""
    q_methods = q.all_methods()
    p_methods = p.all_methods()
    if len(q_methods) > len(p_methods):
        return None
    best = None
    for combo in itertools.permutations(range(len(p_methods)), len(q_methods)):
        kinds = []
        for qi, pj in enumerate(combo):
            m = S.match_method(q_methods[qi], p_methods[pj], lattice)
            if m is None:
                break
            kinds.append(m.kind)
        else:
            overall = S.weakest(kinds)
            if best is None or S.strength(overall) > S.strength(best):
                best = overall
    return best


def test_module_match_agrees_with_brute_force():
    rng = random.Random(13)
    types = ["String", "Account", "Party", "Premium"]
    names = ["alpha", "beta", "gamma", "delta", "omega"]
    for _ in range(120):
        def rand_iface(tag, count):
            methods = []
            for i in range(count):
                methods.append(sig(rng.choice(names),
                                   *(rng.choice(types) for _ in range(rng.randint(0, 2))),
                                   ret=rng.choice(types + [None])))
            # method names must be unique within an interface
            seen = {}
            unique = []
            for m in methods:
                if m.name in seen:
                    m = MethodSig(m.name + str(len(unique)), m.params, m.return_type)
                unique.append(m)
                seen[m.name] = m
            return iface(tag, *unique)

        q = rand_iface("Q", rng.randint(1, 4))
        p = rand_iface("P", rng.randint(1, 4))
        expected = brute_force_best_kind(q, p, WITH_SUB)
        got = S.match_module(q, p, WITH_SUB)
        if expected is None:
            assert got.unmatched
        else:
            assert not got.unmatched and got.overall_kind == expected
        if got.unmatched:
            partial = S.partial_match(q, p, WITH_SUB)
            assert (got.method_map, got.unmatched) == (partial.method_map, partial.unmatched)


# --- shape ----------------------------------------------------------------------

TYPES = ["T0", "T1", "T2", "T3", "T4", "T5"]


@st.composite
def _forest_and_methods(draw):
    lattice = S.TypeLattice({t: draw(st.sampled_from([None] + TYPES[:i]))
                             for i, t in enumerate(TYPES)})
    methods = st.builds(lambda name, params, ret: sig(name, *params, ret=ret),
                        st.sampled_from(["f", "g"]),
                        st.lists(st.sampled_from(TYPES), max_size=3),
                        st.none() | st.sampled_from(TYPES))
    return lattice, draw(methods), draw(methods)


def test_root_walks_to_the_top_of_the_chain():
    assert [WITH_SUB.root(t) for t in ("Premium", "Account", "Party", "String", "Unknown")] \
        == ["Party", "Party", "Party", "String", "Unknown"]
    assert S.shape(sig("f", "Premium", "String", ret="Account"), WITH_SUB) == \
        (("Party", "String"), "Party")


@settings(max_examples=300, deadline=None)
@given(_forest_and_methods())
def test_every_match_kind_preserves_shape(case):
    lattice, q, p = case
    if S.match_method(q, p, lattice) is not None:
        assert S.shape(q, lattice) == S.shape(p, lattice)


# --- partial_match ----------------------------------------------------------------

def test_partial_match_covers_what_it_can():
    res = S.partial_match(MANAGE_PORTFOLIO, PROVIDED_DOCUMENT, FLAT)
    assert len(res.method_map) == 2  # the two 1-string + 2-string slots
    assert res.coverage() == 2 / 5
    assert len(res.unmatched) == 3


def test_partial_match_empty_query():
    res = S.partial_match(iface("Q"), PROVIDED_DOCUMENT, FLAT)
    assert res.method_map == {} and res.unmatched == ()
    assert res.coverage() == 1.0


def test_partial_match_more_queries_than_providers():
    q = iface("Q", sig("a", "String"), sig("b", "String"), sig("c", "Account"))
    p = iface("P", sig("x", "String"))
    res = S.partial_match(q, p, FLAT)
    assert len(res.method_map) == 1
    assert set(res.unmatched) <= {"a", "b", "c"}


def test_partial_match_puts_coverage_before_names():
    # two name-equal matches (c->c, b->b) must not beat three plain ones
    lattice = S.TypeLattice({"T0": None, "T1": "T0", "T2": "T0", "T3": "T2", "T4": "T0"})
    q = iface("Q", sig("a", "T1"), sig("c", "T0"), sig("b", "T2"))
    p = iface("P", sig("b", "T0"), sig("c", "T2"), sig("a", "T4"))
    res = S.partial_match(q, p, lattice)
    assert res.coverage() == 1.0
    assert {k: m.provided_method for k, m in res.method_map.items()} == \
        {"a": "b", "c": "a", "b": "c"}


def _best_partial(q_methods, p_methods, lattice):
    """Brute force: the maximal (matched count, verbatim-name count) over all
    injective partial assignments."""
    matrix = [[S.match_method(qm, pm, lattice) for pm in p_methods] for qm in q_methods]

    def best(i, used):
        if i == len(q_methods):
            return (0, 0)
        options = [best(i + 1, used)]
        for j, m in enumerate(matrix[i]):
            if j not in used and m is not None:
                count, names = best(i + 1, used | {j})
                options.append((count + 1, names + m.names_equal()))
        return max(options)
    return best(0, frozenset())


@st.composite
def _forest_and_interfaces(draw):
    lattice = S.TypeLattice({t: draw(st.sampled_from([None] + TYPES[:i]))
                             for i, t in enumerate(TYPES)})

    def interface(tag):
        names = draw(st.lists(st.sampled_from("abcdef"), max_size=5, unique=True))
        return iface(tag, *(sig(name, *draw(st.lists(st.sampled_from(TYPES[:4]), max_size=2)),
                                ret=draw(st.none() | st.sampled_from(TYPES[:4])))
                            for name in names))
    return lattice, interface("Q"), interface("P")


_WORDS = st.text("abcdefgh", min_size=1, max_size=3)


@st.composite
def _planted_crossing(draw):
    """The crossing of test_partial_match_puts_coverage_before_names under
    random type and method names, on either side, plus noise methods whose
    types share no root with it: two name-equal pairs whose types cross, so
    that only an assignment with no names left equal covers every method."""
    types = draw(st.lists(_WORDS, min_size=6, max_size=8, unique=True))
    top, t1, t2, t4 = types[:4]
    noise_types = types[4:]
    lattice = S.TypeLattice({top: None, t1: top, t2: top, t4: top} | {
        t: draw(st.sampled_from([None] + noise_types[:i])) for i, t in enumerate(noise_types)})
    a, b, c, d, *pool = draw(st.lists(_WORDS, min_size=4, max_size=8, unique=True))
    q = [sig(a, t1), sig(c, top), sig(b, t2)]
    p = [sig(b, top), sig(c, t2), sig(draw(st.sampled_from([a, d])), t4)]

    def noise():
        names = draw(st.lists(st.sampled_from(pool), max_size=2, unique=True)) if pool else []
        return [sig(name, *draw(st.lists(st.sampled_from(noise_types), max_size=2)))
                for name in names]

    q, p = q + noise(), p + noise()
    if draw(st.booleans()):
        q, p = p, q
    return lattice, iface("Q", *draw(st.permutations(q))), iface("P", *draw(st.permutations(p)))


@settings(max_examples=200, deadline=None)
@given(_forest_and_interfaces() | _planted_crossing())
def test_partial_match_agrees_with_brute_force(case):
    lattice, q, p = case
    res = S.partial_match(q, p, lattice)
    q_by_name = {m.name: m for m in q.all_methods()}
    p_by_name = {m.name: m for m in p.all_methods()}
    names = sum(m.names_equal() for m in res.method_map.values())
    assert (len(res.method_map), names) == _best_partial(q.all_methods(), p.all_methods(),
                                                         lattice)
    for name, m in res.method_map.items():
        assert m == S.match_method(q_by_name[name], p_by_name[m.provided_method], lattice)
    provided = [m.provided_method for m in res.method_map.values()]
    assert len(provided) == len(set(provided))
    assert res.unmatched == tuple(n for n in q_by_name if n not in res.method_map)
