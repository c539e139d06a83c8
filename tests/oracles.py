"""Independent reference oracles used by the test suite.

Everything in here is deliberately definitional: membership and language
enumeration are computed straight from the protocol-expression semantics,
with no automata involved, so they can serve as an independent check of the
compiled automaton path.  The one exception is `dfa_of`, the product's DFA of
an expression, in the form the decision procedures take.
"""

from __future__ import annotations

from archmatch import protocol
from archmatch.protocol import Alt, Eps, Ev, ProtocolExpr, Seq, Shuffle, Star


class OracleBudgetExceeded(Exception):
    """The truncated-language computation got too expensive for this expression."""


def mem(expr: ProtocolExpr, word: tuple[str, ...]) -> bool:
    """Definitional membership: does `word` belong to the language of `expr`?"""
    if isinstance(expr, Eps):
        return word == ()
    if isinstance(expr, Ev):
        return word == (expr.name,)
    if isinstance(expr, Alt):
        return mem(expr.left, word) or mem(expr.right, word)
    if isinstance(expr, Seq):
        return any(mem(expr.left, word[:i]) and mem(expr.right, word[i:])
                   for i in range(len(word) + 1))
    if isinstance(expr, Star):
        if word == ():
            return True
        # first chunk non-empty, remainder again in the star
        return any(mem(expr.inner, word[:i]) and mem(expr, word[i:])
                   for i in range(1, len(word) + 1))
    if isinstance(expr, Shuffle):
        n = len(word)
        for mask in range(1 << n):
            left = tuple(word[i] for i in range(n) if mask >> i & 1)
            right = tuple(word[i] for i in range(n) if not mask >> i & 1)
            if mem(expr.left, left) and mem(expr.right, right):
                return True
        return False
    raise TypeError(f"not a protocol expression: {expr!r}")


def _interleavings(u: tuple[str, ...], v: tuple[str, ...]):
    if not u:
        yield v
        return
    if not v:
        yield u
        return
    for w in _interleavings(u[1:], v):
        yield (u[0],) + w
    for w in _interleavings(u, v[1:]):
        yield (v[0],) + w


def lang_upto(expr: ProtocolExpr, max_len: int, budget: int = 2_000_000) -> set[tuple[str, ...]]:
    """All words of length <= max_len in the language of `expr`.

    Computed by structural set composition.  Raises OracleBudgetExceeded when
    the amount of work goes past `budget` (pathological shuffles of dense
    languages); callers should skip such expressions rather than wait.
    """
    spent = [0]

    def charge(n: int = 1) -> None:
        spent[0] += n
        if spent[0] > budget:
            raise OracleBudgetExceeded

    def go(e: ProtocolExpr, maxl: int) -> set[tuple[str, ...]]:
        if isinstance(e, Eps):
            return {()}
        if isinstance(e, Ev):
            return {(e.name,)} if maxl >= 1 else set()
        if isinstance(e, Alt):
            return go(e.left, maxl) | go(e.right, maxl)
        if isinstance(e, Seq):
            out: set[tuple[str, ...]] = set()
            left = go(e.left, maxl)
            for u in left:
                for v in go(e.right, maxl - len(u)):
                    charge()
                    out.add(u + v)
            return out
        if isinstance(e, Star):
            base = go(e.inner, maxl)
            words: set[tuple[str, ...]] = {()}
            frontier: set[tuple[str, ...]] = {()}
            while frontier:
                fresh: set[tuple[str, ...]] = set()
                for u in frontier:
                    for v in base:
                        if v and len(u) + len(v) <= maxl:
                            charge()
                            w = u + v
                            if w not in words:
                                fresh.add(w)
                words |= fresh
                frontier = fresh
            return words
        if isinstance(e, Shuffle):
            out = set()
            left = go(e.left, maxl)
            for u in left:
                for v in go(e.right, maxl - len(u)):
                    for w in _interleavings(u, v):
                        charge()
                        out.add(w)
            return out
        raise TypeError(f"not a protocol expression: {e!r}")

    return go(expr, max_len)


def erase_expr(expr: ProtocolExpr, keep) -> ProtocolExpr:
    """Syntactic erasure: events outside `keep` become the empty word.

    String homomorphisms commute with sequence, alternative, repetition, and
    interleaving, so the language of the rewritten expression is exactly the
    erasure image of the original language.
    """
    if isinstance(expr, Ev):
        return expr if expr.name in keep else Eps()
    if isinstance(expr, Seq):
        return Seq(erase_expr(expr.left, keep), erase_expr(expr.right, keep))
    if isinstance(expr, Alt):
        return Alt(erase_expr(expr.left, keep), erase_expr(expr.right, keep))
    if isinstance(expr, Shuffle):
        return Shuffle(erase_expr(expr.left, keep), erase_expr(expr.right, keep))
    if isinstance(expr, Star):
        return Star(erase_expr(expr.inner, keep))
    return expr


def rename_expr(expr: ProtocolExpr, mapping: dict[str, str]) -> ProtocolExpr:
    """Syntactic relabeling: events are renamed through `mapping` (kept when
    absent), which commutes with every operator like erase_expr."""
    if isinstance(expr, Ev):
        return Ev(mapping.get(expr.name, expr.name))
    if isinstance(expr, Seq):
        return Seq(rename_expr(expr.left, mapping), rename_expr(expr.right, mapping))
    if isinstance(expr, Alt):
        return Alt(rename_expr(expr.left, mapping), rename_expr(expr.right, mapping))
    if isinstance(expr, Shuffle):
        return Shuffle(rename_expr(expr.left, mapping), rename_expr(expr.right, mapping))
    if isinstance(expr, Star):
        return Star(rename_expr(expr.inner, mapping))
    return expr


def random_expr(rng, alphabet: list[str], depth: int) -> ProtocolExpr:
    """A random protocol expression of operator depth <= `depth`."""
    if depth <= 0:
        return Ev(rng.choice(alphabet)) if rng.random() < 0.9 else Eps()
    roll = rng.random()
    if roll < 0.25:
        return Ev(rng.choice(alphabet))
    if roll < 0.45:
        return Seq(random_expr(rng, alphabet, depth - 1), random_expr(rng, alphabet, depth - 1))
    if roll < 0.65:
        return Alt(random_expr(rng, alphabet, depth - 1), random_expr(rng, alphabet, depth - 1))
    if roll < 0.82:
        return Star(random_expr(rng, alphabet, depth - 1))
    if roll < 0.97:
        return Shuffle(random_expr(rng, alphabet, depth - 1), random_expr(rng, alphabet, depth - 1))
    return Eps()


def dfa_of(expr: ProtocolExpr, **kw) -> protocol.FiniteAutomaton:
    """The DFA of `expr`, compiled with the keyword arguments `kw`."""
    return protocol.determinize(protocol.compile(expr, **kw))


def all_words(alphabet: list[str], max_len: int):
    """Every word over `alphabet` of length <= max_len, length-then-lex order."""
    out: list[tuple[str, ...]] = [()]
    frontier: list[tuple[str, ...]] = [()]
    for _ in range(max_len):
        frontier = [w + (a,) for w in frontier for a in sorted(alphabet)]
        out.extend(frontier)
    return out
