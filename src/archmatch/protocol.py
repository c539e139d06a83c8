"""Protocol expressions and their finite-automaton semantics.

A protocol denotes a regular language of method-call events.  `compile`
interns an expression into a table of hash-consed, normalised terms, and
`determinize` builds its DFA directly from the terms' derivatives
(Brzozowski, JACM 1964; Owens, Reppy and Turon, JFP 2009): one state per
distinct derivative, numbered in BFS order and counted against the state
limit as it is found.  `minimize` gives the canonical trim DFA.  `includes`,
`equivalent` and `sample_traces` take DFAs; the first two answer on the
product automaton, with a shortest, lexicographically smallest witness trace
when they fail.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, TypeVar

DEFAULT_STATE_LIMIT = 10**6

_T = TypeVar("_T")


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


def _operands(e: ProtocolExpr) -> tuple[ProtocolExpr, ...]:
    if isinstance(e, (Seq, Alt, Shuffle)):
        return e.left, e.right
    if isinstance(e, Star):
        return (e.inner,)
    if isinstance(e, (Eps, Ev)):
        return ()
    raise TypeError(f"not a protocol expression: {e!r}")


def _preorder(expr: ProtocolExpr) -> list[tuple[ProtocolExpr, int]]:
    """Every node of `expr` with its number of operands: each node before its
    operands, its right operand's subtree before its left one's.

    The walk keeps its own stack, so an expression of any depth is walked
    without Python recursion.
    """
    out: list[tuple[ProtocolExpr, int]] = []
    stack = [expr]
    while stack:
        e = stack.pop()
        operands = _operands(e)
        out.append((e, len(operands)))
        stack.extend(operands)
    return out


def fold(expr: ProtocolExpr, visit: Callable[[ProtocolExpr, list[_T]], _T]) -> _T:
    """Postorder fold: `visit(node, values of its operands)` runs on every node
    after its operands, left before right; the root's value is returned."""
    values: list[_T] = []
    for e, arity in reversed(_preorder(expr)):
        split = len(values) - arity
        operand_values = values[split:]
        del values[split:]
        values.append(visit(e, operand_values))
    return values[0]


def events(expr: ProtocolExpr) -> frozenset[str]:
    """The set of event names occurring in `expr`."""
    return frozenset(e.name for e, _ in _preorder(expr) if isinstance(e, Ev))


def chain(cls: type[ProtocolExpr], parts: list[ProtocolExpr]) -> ProtocolExpr:
    """`parts` joined by the binary operator `cls`, associating to the right."""
    out = parts[-1]
    for e in reversed(parts[:-1]):
        out = cls(e, out)
    return out


def universal_expr(alphabet: frozenset[str] | set[str]) -> ProtocolExpr:
    """An expression for the universal language over `alphabet`.

    An unconstrained contract imposes no call ordering, so an absent protocol
    block denotes this language.  Over the empty alphabet it is just {eps}.
    """
    names = sorted(alphabet)
    if not names:
        return Eps()
    return Star(chain(Alt, [Ev(n) for n in names]))


@dataclass(frozen=True)
class FiniteAutomaton:
    """A DFA over method-name symbols; a missing transition rejects."""

    states: frozenset[int]
    alphabet: frozenset[str]
    transitions: frozenset[tuple[int, str, int]]
    start: int
    accepting: frozenset[int]

    def __post_init__(self) -> None:
        if self.start not in self.states or not self.accepting <= self.states:
            raise ValueError("start or accepting state not in states")
        seen: set[tuple[int, str]] = set()
        for s, sym, t in self.transitions:
            if s not in self.states or t not in self.states or sym not in self.alphabet:
                raise ValueError(f"transition ({s}, {sym!r}, {t}) leaves the states or alphabet")
            if (s, sym) in seen:
                raise ValueError(f"two transitions on ({s}, {sym!r})")
            seen.add((s, sym))


def relabel(a: FiniteAutomaton, mapping: dict[str, str]) -> FiniteAutomaton:
    """Rename symbols through `mapping`, which must be injective on the alphabet
    so that the result stays a DFA; symbols without an entry are kept."""
    alphabet = frozenset(mapping.get(sym, sym) for sym in a.alphabet)
    if len(alphabet) != len(a.alphabet):
        raise ValueError("relabel needs a map that is injective on the alphabet")
    transitions = frozenset((s, mapping.get(sym, sym), t) for s, sym, t in a.transitions)
    return FiniteAutomaton(a.states, alphabet, transitions, a.start, a.accepting)


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

# term operators; a term is the node (operator, x, y) of its table
_EPS, _EV, _SEQ, _ALT, _STAR, _SHUF = range(6)
_OPERATOR = {Star: _STAR, Shuffle: _SHUF}
_UNIT = 0  # the id of `()` in every table


class _Terms:
    """A table of hash-consed terms, with their nullability and, once asked
    for, their derivatives.

    `make` normalises: `+` is a flat set of at least two terms, `;`
    associates to the right with `()` as unit, `|` orders its operands by id
    with `()` as unit, and `(e*)*` is `e*`.  A term's operands are made before
    it, so they have smaller ids.  No term denotes the empty language (the
    syntax cannot say it), so every derivative that exists is a DFA state.
    """

    def __init__(self) -> None:
        self.nodes: list[tuple] = []
        self.ids: dict[tuple, int] = {}
        self.nullable: list[bool] = []
        self.derivs: list[dict[str, int] | None] = []
        self._intern(_EPS, None, None)

    def _intern(self, op: int, x, y) -> int:
        tid = self.ids.get((op, x, y))
        if tid is None:
            n = self.nullable
            n.append(op in (_EPS, _STAR) or (op == _ALT and any(n[t] for t in x))
                     or (op in (_SEQ, _SHUF) and n[x] and n[y]))
            tid = self.ids[op, x, y] = len(self.nodes)
            self.nodes.append((op, x, y))
            self.derivs.append(None)
        return tid

    def make(self, op: int, x=None, y=None) -> int:
        """The normalised term `op(x, y)`: `x` is an event's name, or any
        iterable of the operands of `+`."""
        nodes = self.nodes
        if op == _ALT:
            members: set[int] = set()
            for t in x:
                members.update(nodes[t][1] if nodes[t][0] == _ALT else (t,))
            if len(members) == 1:
                return members.pop()
            x = frozenset(members)
        elif op == _STAR and (x == _UNIT or nodes[x][0] == _STAR):
            return x
        elif op in (_SEQ, _SHUF) and _UNIT in (x, y):
            return y if x == _UNIT else x
        elif op == _SHUF and x > y:
            x, y = y, x
        elif op == _SEQ and nodes[x][0] == _SEQ:  # re-associate to the right
            heads = []
            while nodes[x][0] == _SEQ:
                _, head, x = nodes[x]
                heads.append(head)
            for head in [x, *reversed(heads)]:
                y = self._intern(_SEQ, head, y)
            return y
        return self._intern(op, x, y)

    def operands(self, t: int):
        op, x, y = self.nodes[t]
        return x if op == _ALT else (x, y) if op in (_SEQ, _SHUF) else (x,) if op == _STAR else ()

    def derivatives(self, t: int) -> dict[str, int]:
        """{symbol: derivative of `t` by it} over the symbols that begin a word
        of `t`, computed once per term, operands first, on an explicit stack."""
        derivs = self.derivs
        stack = [t]
        while stack:
            u = stack[-1]
            if derivs[u] is None:
                missing = [v for v in self.operands(u) if derivs[v] is None]
                if missing:
                    stack.extend(missing)
                    continue
                derivs[u] = self._derive(u)
            stack.pop()
        return derivs[t]

    def _derive(self, t: int) -> dict[str, int]:
        op, x, y = self.nodes[t]
        d = self.derivs
        if op == _EV:
            return {x: _UNIT}
        if op in (_SEQ, _STAR):  # d(e;f) = d(e);f + (d(f) if e is nullable), d(e*) = d(e);e*
            tail = t if op == _STAR else y
            parts = [{s: self.make(_SEQ, e, tail) for s, e in d[x].items()}]
            if op == _SEQ and self.nullable[x]:
                parts.append(d[y])
        elif op == _SHUF:  # d(e|f) = d(e)|f + e|d(f), Sulzmann and Thiemann, JCSS 2016
            parts = [{s: self.make(_SHUF, e, y) for s, e in d[x].items()},
                     {s: self.make(_SHUF, x, e) for s, e in d[y].items()}]
        else:
            parts = [d[u] for u in self.operands(t)]
        grouped: dict[str, list[int]] = {}
        for part in parts:
            for s, e in part.items():
                grouped.setdefault(s, []).append(e)
        return {s: es[0] if len(es) == 1 else self.make(_ALT, es) for s, es in grouped.items()}

    def intern(self, expr: ProtocolExpr, keep: frozenset[str] | None = None) -> int:
        """The term of `expr`, with every event outside `keep` (if given) made `()`."""
        def term(value) -> int:
            # a `;` stays the pair of its operands' values, and a `+` the list of
            # its members' terms, until its term is needed; a `;` chain is then
            # made from the right, each head in constant time
            heads, stack = [], [value]
            while stack:
                v = stack.pop()
                if isinstance(v, tuple):
                    stack += reversed(v)
                else:
                    heads.append(self.make(_ALT, v) if isinstance(v, list) else v)
            t = heads.pop()
            for head in reversed(heads):
                t = self.make(_SEQ, head, t)
            return t

        def visit(e: ProtocolExpr, operands: list) -> int | tuple | list:
            if isinstance(e, Seq):
                return tuple(operands)
            if isinstance(e, Alt):  # the smaller list joins the larger: O(n log n) moves
                small, large = sorted((v if isinstance(v, list) else [term(v)]
                                       for v in operands), key=len)
                large += small
                return large
            if isinstance(e, Ev) and (keep is None or e.name in keep):
                return self.make(_EV, e.name)
            if isinstance(e, (Ev, Eps)):
                return _UNIT
            return self.make(_OPERATOR[type(e)], *(term(v) for v in operands))

        return term(fold(expr, visit))


@dataclass(frozen=True, eq=False)
class Term:
    """`expr` interned in its own term table, to be determinized over `alphabet`."""

    expr: ProtocolExpr
    table: _Terms
    id: int
    alphabet: frozenset[str]


def compile(expr: ProtocolExpr, alphabet: frozenset[str] | set[str] | None = None) -> Term:
    """Intern `expr` into a new term table (no automaton yet); `alphabet` widens
    the events of `expr` (needed when projecting over a larger method set)."""
    table = _Terms()
    return Term(expr, table, table.intern(expr), events(expr) | frozenset(alphabet or ()))


# --- determinization and minimization --------------------------------------

def determinize(a: Term, state_limit: int = DEFAULT_STATE_LIMIT) -> FiniteAutomaton:
    """The DFA of a compiled term, one state per distinct derivative: BFS order,
    symbols sorted, each new state counted against `state_limit` as it is
    found."""
    table = a.table
    order = [a.id]
    ids = {a.id: 0}
    transitions: list[tuple[int, str, int]] = []
    for sid, term in enumerate(order):  # `order` grows as states are found
        derivs = table.derivatives(term)
        for label in sorted(derivs):
            target = ids.get(derivs[label])
            if target is None:
                if len(order) >= state_limit:
                    raise ProtocolTooLarge(
                        f"protocol too large: determinization exceeds {state_limit} states")
                target = ids[derivs[label]] = len(order)
                order.append(derivs[label])
            transitions.append((sid, label, target))
    accepting = frozenset(sid for sid, term in enumerate(order) if table.nullable[term])
    return FiniteAutomaton(frozenset(range(len(order))), a.alphabet, frozenset(transitions),
                           0, accepting)


def _edges(a: FiniteAutomaton) -> dict[int, dict[str, int]]:
    """Each state's transitions as {symbol: target}, symbols in sorted order."""
    edges: dict[int, dict[str, int]] = {}
    for s, sym, t in sorted(a.transitions):
        edges.setdefault(s, {})[sym] = t
    return edges


def _renumber_bfs(a: FiniteAutomaton) -> FiniteAutomaton:
    """Canonical state numbering: BFS from start, symbols in sorted order.

    Unreachable states are dropped.
    """
    edges = _edges(a)
    order: dict[int, int] = {a.start: 0}
    queue = deque([a.start])
    while queue:
        for t in edges.get(queue.popleft(), {}).values():
            if t not in order:
                order[t] = len(order)
                queue.append(t)
    transitions = frozenset((order[s], sym, order[t]) for s, sym, t in a.transitions
                            if s in order)
    accepting = frozenset(order[s] for s in a.accepting if s in order)
    return FiniteAutomaton(frozenset(range(len(order))), a.alphabet, transitions, 0, accepting)


def minimize(a: FiniteAutomaton) -> FiniteAutomaton:
    """Minimal trim DFA for L(a), canonically numbered.

    Minimality is among partial DFAs: dead states (those that cannot reach an
    accepting state) are removed rather than kept as an explicit sink, so the
    result is canonical up to nothing at all once renumbered.
    """
    a = _renumber_bfs(a)  # drops unreachable states
    reverse: dict[int, list[int]] = {}
    for s, _, t in a.transitions:
        reverse.setdefault(t, []).append(s)
    alive = set(a.accepting)
    stack = list(alive)
    while stack:
        for p in reverse.get(stack.pop(), ()):
            if p not in alive:
                alive.add(p)
                stack.append(p)
    # the start stays even when dead, so the empty language is one bare state
    out = _edges(a)
    edges = {s: [(label, t) for label, t in out.get(s, {}).items() if t in alive]
             for s in alive | {a.start}}

    # Moore partition refinement over the transitions present: a missing one
    # leads to the empty language, which no other state has once the dead are gone
    cls = {s: int(s in a.accepting) for s in edges}
    while True:
        signatures: dict[tuple, int] = {}
        refined = {s: signatures.setdefault(
                       (cls[s], tuple((label, cls[t]) for label, t in moves)), len(signatures))
                   for s, moves in edges.items()}
        if len(signatures) == len(set(cls.values())):
            break
        cls = refined
    transitions = frozenset((cls[s], label, cls[t]) for s, moves in edges.items()
                            for label, t in moves)
    quotient = FiniteAutomaton(frozenset(cls.values()), a.alphabet, transitions, cls[a.start],
                               frozenset(cls[s] for s in a.accepting))
    return _renumber_bfs(quotient)


# --- decision procedures ----------------------------------------------------

def _product_search(left: FiniteAutomaton, right: FiniteAutomaton, bad,
                    state_limit: int) -> tuple[str, ...] | None:
    """Shortest, lex-smallest word reaching a product state satisfying `bad`.

    Missing transitions go to an implicit dead state (encoded as None).  `bad`
    takes (left-accepting, right-accepting) booleans.  Returns None when no
    reachable product state is bad.
    """
    el, er = _edges(left), _edges(right)
    start = (left.start, right.start)
    seen = {start}
    queue: deque[tuple[tuple[int | None, int | None], tuple[str, ...]]] = deque([(start, ())])
    while queue:
        (l, r), word = queue.popleft()
        if bad(l in left.accepting, r in right.accepting):
            return word
        ml, mr = el.get(l, {}), er.get(r, {})
        for label in sorted(ml.keys() | mr.keys()):
            nxt = (ml.get(label), mr.get(label))
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
    word = _product_search(required, provided, lambda racc, pacc: racc and not pacc, state_limit)
    return InclusionResult(word is None, word)


def equivalent(a: FiniteAutomaton, b: FiniteAutomaton,
               state_limit: int = DEFAULT_STATE_LIMIT) -> EquivalenceResult:
    """Language equality with a shortest separating trace on failure."""
    word = _product_search(a, b, lambda x, y: x != y, state_limit)
    if word is None:
        return EquivalenceResult(True)
    side = "left" if accepts(a, word) else "right"
    return EquivalenceResult(False, word, side)


def project(a: Term, keep: frozenset[str] | set[str],
            state_limit: int = DEFAULT_STATE_LIMIT) -> FiniteAutomaton:
    """Erase all symbols outside `keep` from the language of `a`.

    The events outside `keep` become `()` in the expression, whose term is
    then determinized over the `keep` alphabet.
    """
    keep = frozenset(keep)
    if not keep <= a.alphabet:
        missing = sorted(keep - a.alphabet)
        raise ValueError(f"projection symbols not in alphabet: {', '.join(missing)}")
    return determinize(Term(a.expr, a.table, a.table.intern(a.expr, keep), keep), state_limit)


def accepts(a: FiniteAutomaton, word) -> bool:
    """Does the DFA `a` accept `word`?"""
    edges = _edges(a)
    s: int | None = a.start
    for label in word:
        s = edges.get(s, {}).get(label)
        if s is None:
            return False
    return s in a.accepting


def sample_traces(a: FiniteAutomaton, max_len: int) -> list[tuple[str, ...]]:
    """All accepted words of length <= max_len, in length-then-lex order."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    edges = _edges(a)
    out: list[tuple[str, ...]] = []
    frontier: list[tuple[tuple[str, ...], int]] = [((), a.start)]
    for _ in range(max_len + 1):
        nxt: list[tuple[tuple[str, ...], int]] = []
        for word, s in frontier:
            if s in a.accepting:
                out.append(word)
            nxt.extend((word + (label,), t) for label, t in edges.get(s, {}).items())
        frontier = nxt
    return out


# --- textual DFA format ------------------------------------------------------

def emit_dfa_text(a: FiniteAutomaton) -> str:
    """The stable transition-list format: header lines, then `state symbol state`.

    States are renumbered from 0 in BFS order from the start state so the
    output is bit-exact for identical languages coming out of minimize().
    """
    d = _renumber_bfs(a)
    accept = "".join(f" {s}" for s in sorted(d.accepting))
    lines = [f"start: {d.start}", f"accept:{accept}"]
    lines += (f"{s} {sym} {t}" for s, sym, t in sorted(d.transitions))
    return "\n".join(lines) + "\n"
