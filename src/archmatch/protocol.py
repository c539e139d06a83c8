"""Protocol expressions and their finite-automaton semantics.

A protocol denotes a regular language of method-call events.  Expressions are
compiled to NFAs (Thompson construction, product construction for
interleaving), determinized by subset construction and minimized to a
canonical trim DFA.  Inclusion and equivalence questions are answered on the
product automaton and always come with a shortest, lexicographically smallest
witness trace when they fail.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

DEFAULT_STATE_LIMIT = 10**6


class ProtocolTooLarge(Exception):
    """Raised when a construction would exceed the configured state limit."""


class ProtocolExpr:
    """Base class for protocol expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Eps(ProtocolExpr):
    """The empty word."""


@dataclass(frozen=True)
class Ev(ProtocolExpr):
    """A single call event on a named method."""

    name: str


@dataclass(frozen=True)
class Seq(ProtocolExpr):
    left: ProtocolExpr
    right: ProtocolExpr


@dataclass(frozen=True)
class Alt(ProtocolExpr):
    left: ProtocolExpr
    right: ProtocolExpr


@dataclass(frozen=True)
class Star(ProtocolExpr):
    inner: ProtocolExpr


@dataclass(frozen=True)
class Shuffle(ProtocolExpr):
    """Arbitrary interleaving of two protocols."""

    left: ProtocolExpr
    right: ProtocolExpr


def events(expr: ProtocolExpr) -> frozenset[str]:
    """The set of event names occurring in `expr`."""
    out: set[str] = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Ev):
            out.add(e.name)
        elif isinstance(e, (Seq, Alt, Shuffle)):
            stack.append(e.left)
            stack.append(e.right)
        elif isinstance(e, Star):
            stack.append(e.inner)
    return frozenset(out)


def alt_chain(exprs: list[ProtocolExpr]) -> ProtocolExpr:
    """Right-associated alternative of `exprs` (Eps for an empty list)."""
    if not exprs:
        return Eps()
    out = exprs[-1]
    for e in reversed(exprs[:-1]):
        out = Alt(e, out)
    return out


def universal_expr(alphabet: frozenset[str] | set[str]) -> ProtocolExpr:
    """An expression for the universal language over `alphabet`.

    An unconstrained contract imposes no call ordering, so an absent protocol
    block denotes this language.  Over the empty alphabet it is just {eps}.
    """
    names = sorted(alphabet)
    if not names:
        return Eps()
    return Star(alt_chain([Ev(n) for n in names]))


@dataclass(frozen=True)
class FiniteAutomaton:
    """A finite automaton over method-name symbols.

    Epsilon transitions are encoded with symbol None.  When `deterministic`
    is set the automaton has no epsilon transitions and at most one successor
    per (state, symbol).
    """

    states: frozenset[int]
    alphabet: frozenset[str]
    transitions: frozenset[tuple[int, str | None, int]]
    start: int
    accepting: frozenset[int]
    deterministic: bool = False

    def __post_init__(self) -> None:
        if self.start not in self.states:
            raise ValueError(f"start state {self.start} not in states")
        if not self.accepting <= self.states:
            raise ValueError("accepting states not a subset of states")
        seen: set[tuple[int, str | None]] = set()
        for s, sym, t in self.transitions:
            if s not in self.states or t not in self.states:
                raise ValueError(f"transition ({s}, {sym}, {t}) uses unknown state")
            if sym is not None and sym not in self.alphabet:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")
            if self.deterministic:
                if sym is None:
                    raise ValueError("deterministic automaton has an epsilon transition")
                if (s, sym) in seen:
                    raise ValueError(f"deterministic automaton has two transitions on ({s}, {sym})")
                seen.add((s, sym))


def relabel(a: FiniteAutomaton, mapping: dict[str, str]) -> FiniteAutomaton:
    """Rename symbols through `mapping`; symbols without an entry are kept.

    An injective relabeling of a DFA stays deterministic; otherwise the result
    is left for determinize to merge.
    """
    alphabet = frozenset(mapping.get(sym, sym) for sym in a.alphabet)
    transitions = frozenset((s, mapping.get(sym, sym), t) for s, sym, t in a.transitions)
    return FiniteAutomaton(a.states, alphabet, transitions, a.start, a.accepting,
                           a.deterministic and len(alphabet) == len(a.alphabet))


@dataclass(frozen=True)
class InclusionResult:
    holds: bool
    counterexample: tuple[str, ...] | None = None


@dataclass(frozen=True)
class EquivalenceResult:
    holds: bool
    witness: tuple[str, ...] | None = None
    side: str | None = None  # "left" or "right": which automaton accepts the witness


# --- compilation -----------------------------------------------------------

def _build(expr: ProtocolExpr) -> tuple[int, list[tuple[int, str | None, int]], int, frozenset[int]]:
    """Thompson-style construction: (state count, transitions, start, accepting)."""
    if isinstance(expr, Eps):
        return 1, [], 0, frozenset({0})
    if isinstance(expr, Ev):
        return 2, [(0, expr.name, 1)], 0, frozenset({1})
    if isinstance(expr, Seq):
        ln, lt, ls, la = _build(expr.left)
        rn, rt, rs, ra = _build(expr.right)
        shifted = [(s + ln, sym, t + ln) for s, sym, t in rt]
        glue = [(a, None, rs + ln) for a in sorted(la)]
        return ln + rn, lt + shifted + glue, ls, frozenset(a + ln for a in ra)
    if isinstance(expr, Alt):
        ln, lt, ls, la = _build(expr.left)
        rn, rt, rs, ra = _build(expr.right)
        # new start is state 0; both operands shift up
        trans = [(s + 1, sym, t + 1) for s, sym, t in lt]
        trans += [(s + 1 + ln, sym, t + 1 + ln) for s, sym, t in rt]
        trans += [(0, None, ls + 1), (0, None, rs + 1 + ln)]
        acc = frozenset(a + 1 for a in la) | frozenset(a + 1 + ln for a in ra)
        return 1 + ln + rn, trans, 0, acc
    if isinstance(expr, Star):
        n, t, s, a = _build(expr.inner)
        trans = [(p + 1, sym, q + 1) for p, sym, q in t]
        trans.append((0, None, s + 1))
        trans += [(q + 1, None, s + 1) for q in sorted(a)]
        return n + 1, trans, 0, frozenset(q + 1 for q in a) | frozenset({0})
    if isinstance(expr, Shuffle):
        ln, lt, ls, la = _build(expr.left)
        rn, rt, rs, ra = _build(expr.right)
        # product automaton: either component may step while the other waits
        def pid(p: int, q: int) -> int:
            return p * rn + q
        trans = []
        for s, sym, t in lt:
            for q in range(rn):
                trans.append((pid(s, q), sym, pid(t, q)))
        for s, sym, t in rt:
            for p in range(ln):
                trans.append((pid(p, s), sym, pid(p, t)))
        acc = frozenset(pid(p, q) for p in la for q in ra)
        return ln * rn, trans, pid(ls, rs), acc
    raise TypeError(f"not a protocol expression: {expr!r}")


def compile(expr: ProtocolExpr, alphabet: frozenset[str] | set[str] | None = None) -> FiniteAutomaton:
    """Compile `expr` to an NFA accepting exactly its language.

    `alphabet` widens the automaton's alphabet beyond the events occurring in
    the expression (needed when projecting over a larger method set).
    """
    n, trans, start, acc = _build(expr)
    alpha = events(expr)
    if alphabet is not None:
        alpha = alpha | frozenset(alphabet)
    return FiniteAutomaton(frozenset(range(n)), alpha, frozenset(trans), start, acc)


# --- determinization and minimization --------------------------------------

def _adjacency(a: FiniteAutomaton):
    eps: dict[int, list[int]] = {}
    sym: dict[tuple[int, str], set[int]] = {}
    for s, label, t in a.transitions:
        if label is None:
            eps.setdefault(s, []).append(t)
        else:
            sym.setdefault((s, label), set()).add(t)
    return eps, sym


def _eps_closure(states: set[int], eps: dict[int, list[int]]) -> frozenset[int]:
    out = set(states)
    stack = list(states)
    while stack:
        s = stack.pop()
        for t in eps.get(s, ()):
            if t not in out:
                out.add(t)
                stack.append(t)
    return frozenset(out)


def determinize(a: FiniteAutomaton, state_limit: int = DEFAULT_STATE_LIMIT) -> FiniteAutomaton:
    """Subset construction.  Output states are numbered in BFS discovery order."""
    if a.deterministic:
        return a
    eps, sym = _adjacency(a)
    symbols = sorted(a.alphabet)
    start = _eps_closure({a.start}, eps)
    ids: dict[frozenset[int], int] = {start: 0}
    queue: deque[frozenset[int]] = deque([start])
    transitions: list[tuple[int, str | None, int]] = []
    accepting: set[int] = set()
    while queue:
        subset = queue.popleft()
        sid = ids[subset]
        if subset & a.accepting:
            accepting.add(sid)
        for label in symbols:
            move: set[int] = set()
            for s in subset:
                move |= sym.get((s, label), set())
            if not move:
                continue
            target = _eps_closure(move, eps)
            if target not in ids:
                if len(ids) >= state_limit:
                    raise ProtocolTooLarge(
                        f"protocol too large: determinization exceeds {state_limit} states")
                ids[target] = len(ids)
                queue.append(target)
            transitions.append((sid, label, ids[target]))
    return FiniteAutomaton(frozenset(range(len(ids))), a.alphabet, frozenset(transitions),
                           0, frozenset(accepting), deterministic=True)


def _delta(a: FiniteAutomaton) -> dict[tuple[int, str], int]:
    return {(s, sym): t for s, sym, t in a.transitions}


def _renumber_bfs(a: FiniteAutomaton) -> FiniteAutomaton:
    """Canonical state numbering: BFS from start, symbols in sorted order.

    Unreachable states are dropped.
    """
    delta = _delta(a)
    symbols = sorted(a.alphabet)
    order: dict[int, int] = {a.start: 0}
    queue = deque([a.start])
    while queue:
        s = queue.popleft()
        for label in symbols:
            t = delta.get((s, label))
            if t is not None and t not in order:
                order[t] = len(order)
                queue.append(t)
    transitions = frozenset((order[s], sym, order[t]) for (s, sym), t in delta.items()
                            if s in order and t in order)
    accepting = frozenset(order[s] for s in a.accepting if s in order)
    return FiniteAutomaton(frozenset(range(len(order))), a.alphabet, transitions,
                           0, accepting, deterministic=True)


def minimize(a: FiniteAutomaton) -> FiniteAutomaton:
    """Minimal trim DFA for L(a), canonically numbered.

    Minimality is among partial DFAs: dead states (those that cannot reach an
    accepting state) are removed rather than kept as an explicit sink, so the
    result is canonical up to nothing at all once renumbered.
    """
    if not a.deterministic:
        raise ValueError("minimize requires a deterministic automaton")
    a = _renumber_bfs(a)  # drops unreachable states
    symbols = sorted(a.alphabet)
    n = len(a.states)
    sink = n  # implicit completion target
    delta = _delta(a)

    def step(s: int, label: str) -> int:
        if s == sink:
            return sink
        return delta.get((s, label), sink)

    # Moore partition refinement over the completed automaton
    cls = {s: (1 if s in a.accepting else 0) for s in range(n)}
    cls[sink] = 0
    while True:
        signatures: dict[tuple, int] = {}
        new_cls: dict[int, int] = {}
        for s in sorted(cls):
            sig = (cls[s], tuple(cls[step(s, label)] for label in symbols))
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_cls[s] = signatures[sig]
        if len(set(new_cls.values())) == len(set(cls.values())):
            cls = new_cls
            break
        cls = new_cls

    # quotient automaton over classes
    q_trans: dict[tuple[int, str], int] = {}
    for s in range(n):
        for label in symbols:
            t = step(s, label)
            q_trans[(cls[s], label)] = cls[t]
    q_accepting = {cls[s] for s in a.accepting}
    q_start = cls[a.start]

    # drop dead classes (cannot reach an accepting class) and every transition
    # touching one; the start state survives even when dead so the automaton
    # stays well-formed (empty language = one bare state)
    reverse: dict[int, set[int]] = {}
    for (s, _), t in q_trans.items():
        reverse.setdefault(t, set()).add(s)
    alive = set(q_accepting)
    stack = list(alive)
    while stack:
        s = stack.pop()
        for p in reverse.get(s, ()):
            if p not in alive:
                alive.add(p)
                stack.append(p)
    transitions = frozenset((s, label, t) for (s, label), t in q_trans.items()
                            if s in alive and t in alive)
    trimmed = FiniteAutomaton(frozenset(alive | {q_start}), a.alphabet, transitions,
                              q_start, frozenset(q_accepting), deterministic=True)
    return _renumber_bfs(trimmed)


# --- decision procedures ----------------------------------------------------

def _product_search(left: FiniteAutomaton, right: FiniteAutomaton, bad,
                    state_limit: int) -> tuple[str, ...] | None:
    """Shortest, lex-smallest word reaching a product state satisfying `bad`.

    Both automata must be deterministic; missing transitions go to an implicit
    dead state (encoded as None).  `bad` takes (left-accepting, right-accepting)
    booleans.  Returns None when no reachable product state is bad.
    """
    dl, dr = _delta(left), _delta(right)
    symbols = sorted(left.alphabet | right.alphabet)

    def accepts(side: FiniteAutomaton, s: int | None) -> bool:
        return s is not None and s in side.accepting

    start = (left.start, right.start)
    seen = {start}
    queue: deque[tuple[tuple[int | None, int | None], tuple[str, ...]]] = deque([(start, ())])
    while queue:
        (l, r), word = queue.popleft()
        if bad(accepts(left, l), accepts(right, r)):
            return word
        for label in symbols:
            nl = dl.get((l, label)) if l is not None else None
            nr = dr.get((r, label)) if r is not None else None
            if nl is None and nr is None:
                continue
            nxt = (nl, nr)
            if nxt not in seen:
                if len(seen) >= state_limit:
                    raise ProtocolTooLarge(
                        f"protocol too large: product exceeds {state_limit} states")
                seen.add(nxt)
                queue.append((nxt, word + (label,)))
    return None


def includes(required: FiniteAutomaton, provided: FiniteAutomaton,
             state_limit: int = DEFAULT_STATE_LIMIT) -> InclusionResult:
    """Does the provider allow every trace the requirement may produce?

    HOLDS iff L(required) is a subset of L(provided), over the union of the
    two alphabets: a required event the provider does not even know fails the
    inclusion.  On failure the counterexample is the shortest trace accepted
    by `required` and rejected by `provided`, ties broken lexicographically.
    """
    dr = determinize(required, state_limit)
    dp = determinize(provided, state_limit)
    word = _product_search(dr, dp, lambda racc, pacc: racc and not pacc, state_limit)
    if word is None:
        return InclusionResult(True)
    return InclusionResult(False, word)


def equivalent(a: FiniteAutomaton, b: FiniteAutomaton,
               state_limit: int = DEFAULT_STATE_LIMIT) -> EquivalenceResult:
    """Language equality with a shortest separating trace on failure."""
    da = determinize(a, state_limit)
    db = determinize(b, state_limit)
    word = _product_search(da, db, lambda x, y: x != y, state_limit)
    if word is None:
        return EquivalenceResult(True)
    side = "left" if accepts(da, word) else "right"
    return EquivalenceResult(False, word, side)


def project(a: FiniteAutomaton, keep: frozenset[str] | set[str],
            state_limit: int = DEFAULT_STATE_LIMIT) -> FiniteAutomaton:
    """Erase all symbols outside `keep` from the language of `a`.

    Symbols outside `keep` become epsilon transitions; the result is
    determinized over the `keep` alphabet.
    """
    keep = frozenset(keep)
    if not keep <= a.alphabet:
        missing = sorted(keep - a.alphabet)
        raise ValueError(f"projection symbols not in alphabet: {', '.join(missing)}")
    transitions = frozenset((s, sym if sym in keep else None, t) for s, sym, t in a.transitions)
    nfa = FiniteAutomaton(a.states, keep, transitions, a.start, a.accepting)
    return determinize(nfa, state_limit)


def accepts(a: FiniteAutomaton, word) -> bool:
    """Direct simulation of `a` on `word` (epsilon transitions allowed)."""
    eps, sym = _adjacency(a)
    current = _eps_closure({a.start}, eps)
    for label in word:
        move: set[int] = set()
        for s in current:
            move |= sym.get((s, label), set())
        if not move:
            return False
        current = _eps_closure(move, eps)
    return bool(current & a.accepting)


def sample_traces(a: FiniteAutomaton, max_len: int,
                  state_limit: int = DEFAULT_STATE_LIMIT) -> list[tuple[str, ...]]:
    """All accepted words of length <= max_len, in length-then-lex order."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    d = determinize(a, state_limit)
    delta = _delta(d)
    symbols = sorted(d.alphabet)
    out: list[tuple[str, ...]] = []
    frontier: list[tuple[tuple[str, ...], int]] = [((), d.start)]
    for _ in range(max_len + 1):
        nxt: list[tuple[tuple[str, ...], int]] = []
        for word, s in frontier:
            if s in d.accepting:
                out.append(word)
            for label in symbols:
                t = delta.get((s, label))
                if t is not None:
                    nxt.append((word + (label,), t))
        frontier = nxt
    return out


def universal(alphabet: frozenset[str] | set[str]) -> FiniteAutomaton:
    """The one-state DFA accepting every word over `alphabet`."""
    alpha = frozenset(alphabet)
    transitions = frozenset((0, sym, 0) for sym in alpha)
    return FiniteAutomaton(frozenset({0}), alpha, transitions, 0, frozenset({0}),
                           deterministic=True)


# --- textual DFA format ------------------------------------------------------

def emit_dfa_text(a: FiniteAutomaton) -> str:
    """The stable transition-list format: header lines, then `state symbol state`.

    States are renumbered from 0 in BFS order from the start state so the
    output is bit-exact for identical languages coming out of minimize().
    """
    if not a.deterministic:
        raise ValueError("DFA format requires a deterministic automaton")
    d = _renumber_bfs(a)
    lines = [f"start: {d.start}"]
    accept = " ".join(str(s) for s in sorted(d.accepting))
    lines.append(f"accept: {accept}" if accept else "accept:")
    for s, sym, t in sorted(d.transitions):
        lines.append(f"{s} {sym} {t}")
    return "\n".join(lines) + "\n"
