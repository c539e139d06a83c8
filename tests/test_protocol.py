"""Protocol engine tests: compilation, decision procedures, oracle agreement."""

from __future__ import annotations

import random

import pytest

from archmatch import protocol as P
from archmatch.protocol import Alt, Eps, Ev, Seq, Shuffle, Star

from oracles import (OracleBudgetExceeded, all_words, erase_expr, lang_upto, mem, random_expr,
                     rename_expr)

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
    auto = P.compile(PROVIDED)
    expected = lang_upto(PROVIDED, 6)
    assert set(P.sample_traces(auto, 6)) == expected
    assert ("searchDocument", "setPreference") in expected
    assert ("searchDocument", "viewDocument", "setPreference") in expected


def test_compile_shuffle_of_two_events():
    auto = P.compile(Shuffle(Ev("a"), Ev("b")))
    assert set(P.sample_traces(auto, 4)) == {("a", "b"), ("b", "a")}


def test_compile_epsilon():
    auto = P.compile(Eps())
    assert P.sample_traces(auto, 2) == [()]


# --- determinize ------------------------------------------------------------

def test_determinize_preserves_language_of_dfa_input():
    d = dfa(Seq(Ev("a"), Ev("b")))
    again = P.determinize(d)
    assert P.equivalent(d, again).holds


def test_determinize_merges_common_prefix():
    expr = Alt(Seq(Ev("a"), Ev("b")), Seq(Ev("a"), Ev("c")))
    m = dfa(expr)
    assert set(P.sample_traces(m, 4)) == lang_upto(expr, 4)
    assert len(m.states) == 3  # shared a-prefix, merged accepting state


def test_determinize_epsilon_only_automaton():
    nfa = P.FiniteAutomaton(frozenset({0, 1}), frozenset({"a"}),
                            frozenset({(0, None, 1)}), 0, frozenset({1}))
    d = P.determinize(nfa)
    assert d.deterministic
    assert P.sample_traces(d, 3) == [()]


# --- minimize ---------------------------------------------------------------

def test_minimize_requires_deterministic():
    nfa = P.compile(Alt(Ev("a"), Ev("a")))
    with pytest.raises(ValueError):
        P.minimize(nfa)


def test_minimize_keeps_minimal_input_size():
    m = dfa(Star(Ev("a")))
    assert len(m.states) == 1
    assert len(P.minimize(m).states) == 1


def test_minimize_drops_unreachable_states():
    d = P.FiniteAutomaton(frozenset({0, 1, 9}), frozenset({"a"}),
                          frozenset({(0, "a", 1), (9, "a", 9)}),
                          0, frozenset({1, 9}), deterministic=True)
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


# --- includes ---------------------------------------------------------------

def test_includes_sequence_in_provided_protocol():
    req = P.compile(Seq(Ev("searchDocument"), Seq(Ev("viewDocument"), Ev("setPreference"))))
    assert P.includes(req, P.compile(PROVIDED)).holds


def test_includes_reflexive():
    auto = P.compile(PROVIDED)
    assert P.includes(auto, auto).holds


def test_includes_lone_view_fails_with_counterexample():
    req = P.compile(Ev("viewDocument"))
    res = P.includes(req, P.compile(PROVIDED))
    assert not res.holds
    assert res.counterexample == ("viewDocument",)


def test_includes_unknown_event_fails():
    # provider has never heard of the event: union alphabet makes this fail
    res = P.includes(P.compile(Ev("x")), P.compile(Star(Ev("a"))))
    assert not res.holds
    assert res.counterexample == ("x",)


def test_includes_counterexample_is_sound_and_shortest():
    rng = random.Random(23)
    fails = 0
    while fails < 40:
        req = random_expr(rng, ["a", "b", "c"], 3)
        prov = random_expr(rng, ["a", "b", "c"], 3)
        res = P.includes(P.compile(req), P.compile(prov))
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
        assert relabeled.deterministic
        renamed = P.compile(rename_expr(req, mapping))
        assert P.equivalent(relabeled, renamed).holds
        assert P.includes(relabeled, P.compile(prov)) == P.includes(renamed, P.compile(prov))


def test_relabel_merging_symbols_is_nondeterministic():
    dfa = P.determinize(P.compile(Alt(Seq(Ev("a"), Ev("a")), Ev("b"))))
    merged = P.relabel(dfa, {"b": "a"})
    assert not merged.deterministic
    assert P.sample_traces(merged, 3) == [("a",), ("a", "a")]


def test_includes_transitive():
    rng = random.Random(31)
    for _ in range(25):
        a = random_expr(rng, ["a", "b"], 2)
        b = Alt(a, random_expr(rng, ["a", "b"], 2))
        c = Alt(b, random_expr(rng, ["a", "b"], 2))
        ca, cb, cc = P.compile(a), P.compile(b), P.compile(c)
        assert P.includes(ca, cb).holds
        assert P.includes(cb, cc).holds
        assert P.includes(ca, cc).holds
    # free-form triples: whenever both premises hold, the conclusion must
    hits = 0
    for _ in range(300):
        a = random_expr(rng, ["a", "b"], 2)
        b = random_expr(rng, ["a", "b"], 2)
        c = random_expr(rng, ["a", "b"], 2)
        ca, cb, cc = P.compile(a), P.compile(b), P.compile(c)
        if P.includes(ca, cb).holds and P.includes(cb, cc).holds:
            hits += 1
            assert P.includes(ca, cc).holds
    assert hits > 0


def test_includes_state_limit():
    big = Star(Alt(Ev("a"), Alt(Ev("b"), Ev("c"))))
    with pytest.raises(P.ProtocolTooLarge):
        P.includes(P.compile(Shuffle(big, big)), P.compile(big), state_limit=2)


# --- equivalent -------------------------------------------------------------

def test_equivalent_reflexive():
    a = P.compile(PROVIDED)
    assert P.equivalent(a, a).holds


def test_equivalent_idempotent_alternative():
    a = P.compile(Alt(Seq(Ev("a"), Ev("b")), Seq(Ev("a"), Ev("b"))))
    b = P.compile(Seq(Ev("a"), Ev("b")))
    assert P.equivalent(a, b).holds


def test_equivalent_separates_on_empty_word():
    res = P.equivalent(P.compile(Star(Ev("a"))), P.compile(Seq(Ev("a"), Star(Ev("a")))))
    assert not res.holds
    assert res.witness == ()
    assert res.side == "left"


# --- project ----------------------------------------------------------------

def test_project_identity_on_full_alphabet():
    a = P.compile(PROVIDED)
    assert P.equivalent(P.project(a, a.alphabet), a).holds


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
        assert P.equivalent(back, P.compile(p, alphabet={"a", "b"})).holds


# --- sample_traces ----------------------------------------------------------

def test_sample_traces_star():
    assert P.sample_traces(P.compile(Star(Ev("a"))), 2) == [(), ("a",), ("a", "a")]


def test_sample_traces_provided_protocol():
    traces = P.sample_traces(P.compile(PROVIDED), 2)
    assert ("searchDocument", "setPreference") in traces


def test_sample_traces_empty_language():
    empty = P.FiniteAutomaton(frozenset({0}), frozenset({"a"}), frozenset(),
                              0, frozenset(), deterministic=True)
    assert P.sample_traces(empty, 3) == []


def test_sample_traces_ordering():
    traces = P.sample_traces(P.compile(Star(Alt(Ev("b"), Ev("a")))), 2)
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
    u = P.universal({"a", "b"})
    assert set(P.sample_traces(u, 2)) == set(all_words(["a", "b"], 2))
    assert P.equivalent(u, P.compile(P.universal_expr({"a", "b"}))).holds


def test_universal_expr_empty_alphabet():
    assert P.equivalent(P.compile(P.universal_expr(set())), P.compile(Eps())).holds
