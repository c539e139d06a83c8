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


def cell(q, p, lattice):
    """The (kind, parameter permutation) of the strongest match of two methods, or None."""
    return S._match_cell(q.types, p.types, lattice)


# --- one pair of methods ---------------------------------------------------------

def test_exact_match_on_identical_signature():
    kind, permutation = cell(sig("viewDocument", "String"), sig("viewDocument", "String"), FLAT)
    assert kind == S.EXACT
    assert permutation == (0,)


def test_names_do_not_block_matching():
    m = S.match_module(iface("Q", sig("a", "String")), iface("P", sig("b", "String")), FLAT)
    assert m.method_map["a"].kind == S.EXACT
    assert m.method_map["a"].provided_method == "b"
    assert not m.method_map["a"].names_equal()


def test_permuted_match_records_permutation():
    kind, permutation = cell(sig("f", "String", "Account"), sig("g", "Account", "String"), FLAT)
    assert kind == S.PERMUTED
    assert permutation == (1, 0)
    # applying the permutation to p's parameter types gives q's, positionally
    p_types = ("Account", "String")
    assert tuple(p_types[i] for i in permutation) == ("String", "Account")


def test_generalized_match_via_declared_subtype():
    q = sig("f", "Account")
    p = sig("h", "Party")
    assert cell(q, p, WITH_SUB)[0] == S.GENERALIZED
    # exhaustive over the one-parameter subtype table
    order = ["Premium", "Account", "Party"]
    for qt, pt in itertools.product(order, order):
        got = cell(sig("q", qt), sig("p", pt), WITH_SUB)
        if qt == pt:
            assert got[0] == S.EXACT
        elif WITH_SUB.le(qt, pt):
            assert got[0] == S.GENERALIZED
        elif WITH_SUB.le(pt, qt):
            assert got[0] == S.SPECIALIZED
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
    kind, permutation = cell(sig("f", *qt), sig("g", *pt), FLAT)
    assert kind == (S.EXACT if qt == pt else S.PERMUTED)
    assert permutation == _first_permutation(qt, pt)


def test_permuted_match_on_twelve_reversed_parameters():
    qt = ("String", "Account", "Party") * 4
    kind, permutation = cell(sig("f", *qt), sig("g", *reversed(qt)), FLAT)
    assert kind == S.PERMUTED
    assert permutation == (2, 1, 0, 5, 4, 3, 8, 7, 6, 11, 10, 9)


def test_return_types_are_unit_when_absent():
    assert cell(sig("f"), sig("g"), FLAT)[0] == S.EXACT
    assert cell(sig("f"), sig("g", ret="String"), FLAT) is None
    assert cell(sig("f", ret="String"), sig("g", ret="String"), FLAT)[0] == S.EXACT


def test_return_type_variance():
    # provided return more specific than asked: generalized overall
    q = sig("f", "String", ret="Party")
    p = sig("g", "String", ret="Account")
    assert cell(q, p, WITH_SUB)[0] == S.GENERALIZED
    assert cell(p, q, WITH_SUB)[0] == S.SPECIALIZED


def test_a_method_matches_itself_exactly():
    rng = random.Random(5)
    types = ["String", "Account", "Party", "Premium"]
    for _ in range(40):
        m = sig("m", *(rng.choice(types) for _ in range(rng.randint(0, 3))),
                ret=rng.choice(types + [None]))
        assert cell(m, m, WITH_SUB)[0] == S.EXACT


def test_generalized_specialized_duality():
    rng = random.Random(9)
    types = ["String", "Account", "Party", "Premium"]
    for _ in range(200):
        q = sig("q", *(rng.choice(types) for _ in range(rng.randint(0, 2))),
                ret=rng.choice(types + [None]))
        p = sig("p", *(rng.choice(types) for _ in range(rng.randint(0, 2))),
                ret=rng.choice(types + [None]))
        qp = cell(q, p, WITH_SUB)
        pq = cell(p, q, WITH_SUB)
        if qp is not None and qp[0] == S.GENERALIZED:
            assert pq is not None and pq[0] == S.SPECIALIZED
        if qp is not None and qp[0] == S.SPECIALIZED:
            assert pq is not None and pq[0] == S.GENERALIZED


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
    assert m.name_matches() == 3


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
            m = cell(q_methods[qi], p_methods[pj], lattice)
            if m is None:
                break
            kinds.append(m[0])
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


def _forest(draw):
    return S.TypeLattice({t: draw(st.sampled_from([None] + TYPES[:i]))
                          for i, t in enumerate(TYPES)})


@st.composite
def _forest_and_methods(draw):
    lattice = _forest(draw)
    methods = st.builds(lambda name, params, ret: sig(name, *params, ret=ret),
                        st.sampled_from(["f", "g"]),
                        st.lists(st.sampled_from(TYPES), max_size=3),
                        st.none() | st.sampled_from(TYPES))
    return lattice, draw(methods), draw(methods)


def test_root_walks_to_the_top_of_the_chain():
    assert [WITH_SUB.root(t) for t in ("Premium", "Account", "Party", "String", "Unknown")] \
        == ["Party", "Party", "Party", "String", "Unknown"]
    assert S.shape(sig("f", "Premium", "String", ret="Account"), WITH_SUB) == \
        "(Party,String):Party"


@settings(max_examples=300, deadline=None)
@given(_forest_and_methods())
def test_every_match_kind_preserves_shape(case):
    lattice, q, p = case
    if cell(q, p, lattice) is not None:
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
    matrix = [[cell(qm, pm, lattice) for pm in p_methods] for qm in q_methods]

    def best(i, used):
        if i == len(q_methods):
            return (0, 0)
        options = [best(i + 1, used)]
        for j, m in enumerate(matrix[i]):
            if j not in used and m is not None:
                count, names = best(i + 1, used | {j})
                options.append((count + 1, names + (q_methods[i].name == p_methods[j].name)))
        return max(options)
    return best(0, frozenset())


@st.composite
def _forest_and_interfaces(draw):
    lattice = _forest(draw)

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
        assert m == S.MethodMatch(name, m.provided_method,
                                  *cell(q_by_name[name], p_by_name[m.provided_method], lattice))
    provided = [m.provided_method for m in res.method_map.values()]
    assert len(provided) == len(set(provided))
    assert res.unmatched == tuple(n for n in q_by_name if n not in res.method_map)


# --- the per-lattice memo of method matches -------------------------------------

def unmemoised_cell(q, p, lattice):
    """The (kind, permutation) of a method match without the memo, each pair
    compared afresh: the reference."""
    qt, pt = q.types[0], p.types[0]
    if len(qt) != len(pt):
        return None
    identity = tuple(range(len(qt)))
    returns_equal = q.return_type == p.return_type

    if qt == pt and returns_equal:
        return S.EXACT, identity

    if sorted(qt) == sorted(pt) and returns_equal:
        pairs = zip(sorted(identity, key=qt.__getitem__), sorted(identity, key=pt.__getitem__))
        return S.PERMUTED, tuple(j for _, j in sorted(pairs))

    if (all(lattice.le(qi, pi) for qi, pi in zip(qt, pt))
            and S._return_le(lattice, p.return_type, q.return_type)):
        strict = qt != pt or q.return_type != p.return_type
        if strict:
            return S.GENERALIZED, identity

    if (all(lattice.le(pi, qi) for qi, pi in zip(qt, pt))
            and S._return_le(lattice, q.return_type, p.return_type)):
        strict = qt != pt or q.return_type != p.return_type
        if strict:
            return S.SPECIALIZED, identity

    return None


@st.composite
def _two_forests_and_methods(draw):
    # few types and names, so that many pairs repeat a signature under another name
    methods = st.builds(lambda name, params, ret: sig(name, *params, ret=ret),
                        st.sampled_from(["f", "g", "h"]),
                        st.lists(st.sampled_from(TYPES[:3]), max_size=3),
                        st.none() | st.sampled_from(TYPES[:3]))
    return _forest(draw), _forest(draw), draw(st.lists(methods, min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(_two_forests_and_methods())
def test_memoised_match_cell_agrees_with_the_unmemoised_one(case):
    first, second, methods = case
    # both lattices, interleaved, and every pair twice: the second time from the memo
    for q, p in itertools.product(methods, repeat=2):
        for lattice in (first, second, first, second):
            assert cell(q, p, lattice) == unmemoised_cell(q, p, lattice)


def test_lattices_with_different_orders_share_no_memo_entry():
    ordered = S.TypeLattice({"A": None, "B": "A"})
    flat = S.TypeLattice({"A": None, "B": None})
    q, p = sig("f", "A"), sig("g", "B")
    for _ in range(2):
        assert cell(q, p, ordered)[0] == S.SPECIALIZED
        assert cell(q, p, flat) is None
        assert cell(p, q, flat) is None
        assert cell(p, q, ordered)[0] == S.GENERALIZED


def test_each_pair_of_signatures_is_compared_once_per_lattice(monkeypatch):
    compared = []
    match_types = S._match_types

    def counted(q_types, p_types, lattice):
        compared.append((q_types, p_types))
        return match_types(q_types, p_types, lattice)

    monkeypatch.setattr(S, "_match_types", counted)
    signatures = [("String",), ("Account",), ("String", "Account"), ("Account", "String"),
                  ("Party", "String")]
    rng = random.Random(3)
    candidates = [iface(f"P{i}", *(sig(f"m{i}_{j}", *rng.choice(signatures)) for j in range(3)))
                  for i in range(300)]
    for lattice in (S.TypeLattice(dict(FLAT.parents)), S.TypeLattice(dict(WITH_SUB.parents))):
        compared.clear()
        for candidate in candidates:
            S.match_module(MANAGE_PORTFOLIO, candidate, lattice)
        query = {m.types for m in MANAGE_PORTFOLIO.all_methods()}
        assert len(compared) == len(set(compared)) <= len(query) * len(signatures)


# --- the per-lattice memos of match_module ----------------------------------------

@st.composite
def _queries_and_providers(draw):
    """A few queries and providers whose methods draw their names from four,
    their parameter types from at most two lists and their return types from
    at most two, so that one query meets provided methods that differ only in
    their return type or only in their names; sizes are drawn apart, so a
    query may have more methods than a provider, and partial matches are
    common."""
    types = st.sampled_from(TYPES[:3])
    params = draw(st.lists(st.lists(types, max_size=2), min_size=1, max_size=2))
    returns = draw(st.lists(st.none() | types, min_size=1, max_size=2))

    def interface(tag):
        names = draw(st.lists(st.sampled_from("abcd"), max_size=4, unique=True))
        return iface(tag, *(sig(name, *draw(st.sampled_from(params)),
                                ret=draw(st.sampled_from(returns))) for name in names))
    queries = [interface(f"Q{i}") for i in range(draw(st.integers(1, 3)))]
    providers = [interface(f"P{i}") for i in range(draw(st.integers(1, 8)))]
    return _forest(draw), queries, providers


@settings(max_examples=300, deadline=None)
@given(_queries_and_providers())
def test_a_shared_lattice_answers_as_fresh_ones_do(case):
    forest, queries, providers = case
    shared = S.TypeLattice(dict(forest.parents))
    # the queries take turns on the shared lattice, over every provider, twice
    for _, p, q in itertools.product(range(2), providers, queries):
        got = S.match_module(q, p, shared)
        fresh = S.match_module(q, p, S.TypeLattice(dict(forest.parents)))
        assert got == fresh
        # MethodMatch equality covers the provided method, kind and permutation
        assert list(got.method_map.items()) == list(fresh.method_map.items())


@settings(max_examples=300, deadline=None)
@given(_queries_and_providers())
def test_the_bitmask_test_agrees_with_the_assignment_cover(case):
    # at each level, the perfect-matching test on the columns' bitmasks says
    # whether the assignment over their costs matches every query method, so
    # the level chosen is the one a search solving every level would choose
    forest, queries, providers = case
    for q, p in itertools.product(queries, providers):
        lattice = S.TypeLattice(dict(forest.parents))
        n = len(q.all_methods())
        query = S._Query(q.all_methods())
        columns = [query.column(pm, lattice) for pm in p.all_methods()]
        searched = len(S.KINDS) - 1
        for k in reversed(range(len(S.KINDS))):
            covers = len(S._assign(tuple(c[1][k] for c in columns), lattice)) == n
            assert S._perfect([c[2][k] for c in columns], n) == covers
            if not covers:
                break
            searched = k
        assert query.level(tuple(c[2] for c in columns)) == searched


def test_one_query_shares_its_method_matches_across_providers():
    q = iface("Q", sig("a", "String"), sig("b", "Account"))
    lattice = S.TypeLattice(dict(FLAT.parents))
    first = S.match_module(q, iface("P1", sig("a", "String"), sig("x", "Account")), lattice)
    second = S.match_module(q, iface("P2", sig("x", "Account"), sig("a", "String")), lattice)
    assert first == second
    assert all(first.method_map[name] is second.method_map[name] for name in "ab")
