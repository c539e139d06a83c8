"""Protocol engine tests: compilation, decision procedures, oracle agreement."""

from __future__ import annotations

import random
import time
from functools import reduce
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from archmatch import protocol as P
from archmatch.protocol import Alt, Eps, Ev, Seq, Shuffle, Star

from oracles import (OracleBudgetExceeded, all_words, dfa_of, erase_expr, lang_upto, mem,
                     random_expr, rename_expr)

# the provided protocol of the DocumentManager publication fixture, with `|`
# read as interleaving
PROVIDED = Shuffle(
    Star(Alt(Ev("searchDocument"), Ev("setPreference"))),
    Star(Alt(Ev("searchDocument"), Seq(Ev("viewDocument"), Ev("setPreference")))),
)


def dfa(expr):
    return P.minimize(P.determinize(P.compile(expr)))


# --- compile ----------------------------------------------------------------

def test_compile_single_event_two_states():
    m = dfa(Ev("a"))
    assert len(m.states) == 2
    assert P.sample_traces(m, 3) == [("a",)]


def test_compile_provided_protocol_matches_oracle_upto_6():
    auto = dfa_of(PROVIDED)
    expected = lang_upto(PROVIDED, 6)
    assert set(P.sample_traces(auto, 6)) == expected
    assert ("searchDocument", "setPreference") in expected
    assert ("searchDocument", "viewDocument", "setPreference") in expected


def test_compile_shuffle_of_two_events():
    auto = dfa_of(Shuffle(Ev("a"), Ev("b")))
    assert set(P.sample_traces(auto, 4)) == {("a", "b"), ("b", "a")}


def test_compile_epsilon():
    auto = dfa_of(Eps())
    assert P.sample_traces(auto, 2) == [()]


# --- determinize ------------------------------------------------------------

def test_determinize_merges_common_prefix():
    expr = Alt(Seq(Ev("a"), Ev("b")), Seq(Ev("a"), Ev("c")))
    m = dfa(expr)
    assert set(P.sample_traces(m, 4)) == lang_upto(expr, 4)
    assert len(m.states) == 3  # shared a-prefix, merged accepting state


def test_determinize_epsilon_only_term():
    d = P.determinize(P.compile(Star(Eps()), alphabet={"a"}))
    assert (d.states, d.alphabet, d.transitions, d.accepting) == ({0}, {"a"}, set(), {0})


# --- minimize ---------------------------------------------------------------

def test_minimize_keeps_minimal_input_size():
    m = dfa(Star(Ev("a")))
    assert len(m.states) == 1
    assert len(P.minimize(m).states) == 1


def test_minimize_drops_unreachable_states():
    d = P.FiniteAutomaton(frozenset({0, 1, 9}), frozenset({"a"}),
                          frozenset({(0, "a", 1), (9, "a", 9)}),
                          0, frozenset({1, 9}))
    m = P.minimize(d)
    assert len(m.states) == 2


def test_minimize_is_a_projection():
    rng = random.Random(7)
    for _ in range(30):
        e = random_expr(rng, ["a", "b", "c"], 3)
        m = P.minimize(P.determinize(P.compile(e)))
        assert P.minimize(m) == m


def test_minimize_preserves_language_random():
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        e = random_expr(rng, ["a", "b"], 3)
        try:
            expected = lang_upto(e, 8)
        except OracleBudgetExceeded:
            continue
        m = dfa(e)
        assert set(P.sample_traces(m, 8)) == expected
        checked += 1


@st.composite
def _partial_dfas(draw):
    """Any partial DFA over at most 7 states: dead, unreachable and dead-start
    states and an empty alphabet all occur."""
    n = draw(st.integers(1, 7))
    state = st.integers(0, n - 1)
    alphabet = sorted(draw(st.sets(st.sampled_from("abc"))))
    slots = list(product(range(n), alphabet))
    targets = draw(st.lists(st.none() | state, min_size=len(slots), max_size=len(slots)))
    return P.FiniteAutomaton(frozenset(range(n)), frozenset(alphabet),
                             frozenset((s, sym, t) for (s, sym), t in zip(slots, targets)
                                       if t is not None),
                             draw(state), draw(st.frozensets(state)))


def _started_at(a, s):
    return P.FiniteAutomaton(a.states, a.alphabet, a.transitions, s, a.accepting)


@settings(max_examples=250, deadline=None)
@given(_partial_dfas())
def test_minimize_gives_the_minimal_trim_dfa(d):
    m = P.minimize(d)
    assert P.equivalent(m, d).holds
    assert P.minimize(m) == m
    reached = {m.start}
    for _ in m.states:
        reached |= {t for s, _, t in m.transitions if s in reached}
    assert reached == m.states
    at = {s: _started_at(m, s) for s in m.states}
    for p, q in combinations(sorted(m.states), 2):
        assert not P.equivalent(at[p], at[q]).holds
    # trim: only a start without transitions may accept nothing
    empty = P.FiniteAutomaton(frozenset({0}), m.alphabet, frozenset(), 0, frozenset())
    dead = [s for s in m.states if P.equivalent(at[s], empty).holds]
    assert dead in ([], [m.start]) and not (dead and m.transitions)


# --- includes ---------------------------------------------------------------

def test_includes_sequence_in_provided_protocol():
    req = dfa_of(Seq(Ev("searchDocument"), Seq(Ev("viewDocument"), Ev("setPreference"))))
    assert P.includes(req, dfa_of(PROVIDED)).holds


def test_includes_reflexive():
    auto = dfa_of(PROVIDED)
    assert P.includes(auto, auto).holds


def test_includes_lone_view_fails_with_counterexample():
    req = dfa_of(Ev("viewDocument"))
    res = P.includes(req, dfa_of(PROVIDED))
    assert not res.holds
    assert res.counterexample == ("viewDocument",)


def test_includes_unknown_event_fails():
    # provider has never heard of the event: union alphabet makes this fail
    res = P.includes(dfa_of(Ev("x")), dfa_of(Star(Ev("a"))))
    assert not res.holds
    assert res.counterexample == ("x",)


def test_includes_counterexample_is_sound_and_shortest():
    rng = random.Random(23)
    fails = 0
    while fails < 40:
        req = random_expr(rng, ["a", "b", "c"], 3)
        prov = random_expr(rng, ["a", "b", "c"], 3)
        res = P.includes(dfa_of(req), dfa_of(prov))
        if res.holds:
            continue
        w = res.counterexample
        assert mem(req, w) and not mem(prov, w)
        if len(w) <= 5:
            for cand in all_words(["a", "b", "c"], len(w)):
                if (len(cand), cand) < (len(w), w):
                    assert not (mem(req, cand) and not mem(prov, cand))
        fails += 1


def test_relabeled_dfa_decides_like_renamed_expression():
    rng = random.Random(31)
    for _ in range(60):
        req = random_expr(rng, ["a", "b", "c"], 3)
        prov = random_expr(rng, ["x", "y", "z", "c"], 3)
        targets = rng.sample(["x", "y", "z", "c"], 3)
        mapping = dict(zip(["a", "b", "c"], targets))
        relabeled = P.relabel(P.determinize(P.compile(req)), mapping)
        renamed = dfa_of(rename_expr(req, mapping))
        assert P.equivalent(relabeled, renamed).holds
        assert P.includes(relabeled, dfa_of(prov)) == P.includes(renamed, dfa_of(prov))


def test_relabel_rejects_a_merging_map():
    dfa = P.determinize(P.compile(Alt(Seq(Ev("a"), Ev("a")), Ev("b"))))
    with pytest.raises(ValueError, match="injective"):
        P.relabel(dfa, {"b": "a"})


def test_includes_transitive():
    rng = random.Random(31)
    for _ in range(25):
        a = random_expr(rng, ["a", "b"], 2)
        b = Alt(a, random_expr(rng, ["a", "b"], 2))
        c = Alt(b, random_expr(rng, ["a", "b"], 2))
        ca, cb, cc = dfa_of(a), dfa_of(b), dfa_of(c)
        assert P.includes(ca, cb).holds
        assert P.includes(cb, cc).holds
        assert P.includes(ca, cc).holds
    # free-form triples: whenever both premises hold, the conclusion must
    hits = 0
    for _ in range(300):
        a = random_expr(rng, ["a", "b"], 2)
        b = random_expr(rng, ["a", "b"], 2)
        c = random_expr(rng, ["a", "b"], 2)
        ca, cb, cc = dfa_of(a), dfa_of(b), dfa_of(c)
        if P.includes(ca, cb).holds and P.includes(cb, cc).holds:
            hits += 1
            assert P.includes(ca, cc).holds
    assert hits > 0


def test_includes_state_limit():
    big = Star(Alt(Ev("a"), Alt(Ev("b"), Ev("c"))))
    with pytest.raises(P.ProtocolTooLarge):
        P.includes(dfa_of(Shuffle(big, Seq(Ev("a"), Ev("b")))), dfa_of(big),
                   state_limit=2)


# --- equivalent -------------------------------------------------------------

def test_equivalent_reflexive():
    a = dfa_of(PROVIDED)
    assert P.equivalent(a, a).holds


def test_equivalent_idempotent_alternative():
    a = dfa_of(Alt(Seq(Ev("a"), Ev("b")), Seq(Ev("a"), Ev("b"))))
    b = dfa_of(Seq(Ev("a"), Ev("b")))
    assert P.equivalent(a, b).holds


def test_equivalent_separates_on_empty_word():
    res = P.equivalent(dfa_of(Star(Ev("a"))), dfa_of(Seq(Ev("a"), Star(Ev("a")))))
    assert not res.holds
    assert res.witness == ()
    assert res.side == "left"


# --- project ----------------------------------------------------------------

def test_project_identity_on_full_alphabet():
    a = P.compile(PROVIDED)
    assert P.equivalent(P.project(a, a.alphabet), dfa_of(PROVIDED)).holds


def test_project_single_word():
    a = P.compile(Seq(Ev("a"), Seq(Ev("b"), Ev("a"))))
    p = P.project(a, {"a"})
    assert P.sample_traces(p, 5) == [("a", "a")]


def test_project_matches_erasure_oracle():
    rng = random.Random(41)
    checked = 0
    while checked < 30:
        e = random_expr(rng, ["a", "b", "c"], 3)
        try:
            expected = lang_upto(erase_expr(e, {"a", "b"}), 6)
        except OracleBudgetExceeded:
            continue
        p = P.project(P.compile(e, alphabet={"a", "b", "c"}), {"a", "b"})
        assert set(P.sample_traces(p, 6)) == expected
        checked += 1


def test_project_monotone():
    rng = random.Random(43)
    for _ in range(20):
        a = random_expr(rng, ["a", "b", "c"], 3)
        b = Alt(a, random_expr(rng, ["a", "b", "c"], 3))
        pa = P.project(P.compile(a, alphabet={"a", "b", "c"}), {"a", "b"})
        pb = P.project(P.compile(b, alphabet={"a", "b", "c"}), {"a", "b"})
        assert P.includes(pa, pb).holds


def test_shuffle_projection_recovers_operand():
    rng = random.Random(47)
    for _ in range(20):
        p = random_expr(rng, ["a", "b"], 3)
        q = random_expr(rng, ["x", "y"], 3)
        shuffled = P.compile(Shuffle(p, q), alphabet={"a", "b", "x", "y"})
        back = P.project(shuffled, {"a", "b"})
        assert P.equivalent(back, dfa_of(p, alphabet={"a", "b"})).holds


# --- sample_traces ----------------------------------------------------------

def test_sample_traces_star():
    assert P.sample_traces(dfa_of(Star(Ev("a"))), 2) == [(), ("a",), ("a", "a")]


def test_sample_traces_provided_protocol():
    traces = P.sample_traces(dfa_of(PROVIDED), 2)
    assert ("searchDocument", "setPreference") in traces


def test_sample_traces_empty_language():
    empty = P.FiniteAutomaton(frozenset({0}), frozenset({"a"}), frozenset(), 0, frozenset())
    assert P.sample_traces(empty, 3) == []


def test_sample_traces_ordering():
    traces = P.sample_traces(dfa_of(Star(Alt(Ev("b"), Ev("a")))), 2)
    assert traces == [(), ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]


# --- oracle agreement (bulk) -------------------------------------------------

def test_dfa_membership_agrees_with_oracle():
    rng = random.Random(53)
    checked = 0
    while checked < 60:
        alphabet = ["a", "b", "c", "d"][: rng.randint(1, 4)]
        e = random_expr(rng, alphabet, 4)
        try:
            expected = lang_upto(e, 6, budget=400_000)
        except OracleBudgetExceeded:
            continue
        m = dfa(e)
        assert set(P.sample_traces(m, 6)) == expected
        checked += 1


# --- textual DFA format ------------------------------------------------------

def test_dfa_text_shape():
    text = P.emit_dfa_text(dfa(Seq(Ev("a"), Ev("b"))))
    assert text.splitlines()[0] == "start: 0"
    assert text.splitlines()[1] == "accept: 2"
    assert "0 a 1" in text


# --- universal --------------------------------------------------------------

def test_universal_language():
    u = dfa(P.universal_expr({"a", "b"}))
    assert set(P.sample_traces(u, 2)) == set(all_words(["a", "b"], 2))
    assert (u.states, u.accepting) == ({0}, {0})


def test_universal_expr_empty_alphabet():
    assert P.equivalent(dfa_of(P.universal_expr(set())), dfa_of(Eps())).holds


# --- derivative construction --------------------------------------------------

# every operator, over few events, so that derivatives often meet again
_EXPRS = st.recursive(
    st.sampled_from([Ev("a"), Ev("b"), Ev("c"), Eps()]),
    lambda sub: st.one_of(st.builds(Seq, sub, sub), st.builds(Alt, sub, sub),
                          st.builds(Shuffle, sub, sub), st.builds(Star, sub)),
    max_leaves=10)
_ORACLE = settings(max_examples=500, deadline=None, derandomize=True, database=None)


def _length_lex(words):
    return sorted(words, key=lambda w: (len(w), w))


def _oracle_language(e, max_len):
    try:
        return _length_lex(lang_upto(e, max_len, budget=200_000))
    except OracleBudgetExceeded:
        assume(False)


@_ORACLE
@given(_EXPRS)
def test_derivative_dfa_has_the_language_of_the_expression(e):
    assert P.sample_traces(dfa(e), 5) == _oracle_language(e, 5)


@_ORACLE
@given(_EXPRS, st.frozensets(st.sampled_from("abc")))
def test_projection_has_the_language_of_the_erased_expression(e, keep):
    projected = P.project(P.compile(e, alphabet={"a", "b", "c"}), keep)
    assert projected.alphabet == keep
    assert P.sample_traces(projected, 5) == _oracle_language(erase_expr(e, keep), 5)


def _interleaved_pairs(k):
    return P.chain(Shuffle, [Seq(Ev(f"a{i}"), Ev(f"b{i}")) for i in range(k)])


@pytest.mark.parametrize("k", range(1, 7))
def test_interleaved_pairs_have_three_states_each(k):
    d = P.determinize(P.compile(_interleaved_pairs(k)))
    assert len(d.states) == len(P.minimize(d).states) == 3 ** k


def test_interleaved_pairs_stop_at_the_state_limit(monkeypatch):
    explored = []
    derivatives = P._Terms.derivatives
    monkeypatch.setattr(P._Terms, "derivatives",
                        lambda table, t: explored.append(t) or derivatives(table, t))
    with pytest.raises(P.ProtocolTooLarge,
                       match="^protocol too large: determinization exceeds 100 states$"):
        P.determinize(P.compile(_interleaved_pairs(8)), 100)
    assert len(explored) <= 100  # 3^8 = 6,561 states in full


def _stars(n):
    e = Ev("a")
    for _ in range(n):
        e = Star(e)
    return e


@pytest.mark.parametrize("expr,states", [
    (_stars(300), 1),
    (P.chain(Seq, [Ev(f"e{i}") for i in range(1200)]), 1201),
    (P.chain(Alt, [Ev(f"e{i}") for i in range(1200)]), 2),
], ids=["300-stars", "1200-event-sequence", "1200-way-alternative"])
def test_deep_shapes_have_their_minimal_state_count(expr, states):
    d = P.determinize(P.compile(expr))
    assert len(d.states) == len(P.minimize(d).states) == states


@pytest.mark.parametrize("nest", [P.chain, reduce], ids=["right-nested", "left-nested"])
def test_a_5000_way_alternative_is_interned_in_linear_time(nest):
    events = [Ev(f"e{i}") for i in range(5_000)]
    start = time.perf_counter()
    term = P.compile(nest(Alt, events))
    d = P.minimize(P.determinize(term))
    seconds = time.perf_counter() - start
    # `()`, the events and one `+` of them all: no partial alternative is made
    # (interning one per level, each copying its members, took time and memory
    # quadratic in the number of members)
    assert len(term.table.nodes) == 1 + len(events) + 1
    assert len(d.states) == 2 and seconds < 1
