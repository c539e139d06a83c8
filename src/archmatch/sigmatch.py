"""Signature-level matching: exact, permuted, generalized, and specialized
method matches, and injective interface-to-interface assignments.

Method names never block a match; the resulting rename map feeds the protocol
level, and verbatim name agreement is only a deterministic tie-break (and a
ranking ingredient upstream).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import Interface, MethodSig, TypeDecl

EXACT = "exact"
PERMUTED = "permuted"
GENERALIZED = "generalized"
SPECIALIZED = "specialized"

#: match kinds, strongest first
KINDS = (EXACT, PERMUTED, GENERALIZED, SPECIALIZED)
_STRENGTH = {kind: len(KINDS) - i for i, kind in enumerate(KINDS)}


def strength(kind: str) -> int:
    return _STRENGTH[kind]


def weakest(kinds) -> str:
    return min(kinds, key=strength, default=EXACT)


@dataclass(frozen=True)
class TypeLattice:
    """Reflexive-transitive subtype order from declared `<:` supertypes.

    `matches` memoises what match_method finds for a pair of signature types
    under this order, so a lattice serves one query's types and no others.
    """

    parents: dict[str, str | None]
    matches: dict = field(default_factory=dict, compare=False, repr=False)

    def __hash__(self):
        return id(self)

    @classmethod
    def from_types(cls, types: dict[str, TypeDecl]) -> "TypeLattice":
        return cls({name: decl.supertype for name, decl in types.items()})

    def le(self, sub: str, sup: str) -> bool:
        """Is `sub` a subtype of (or equal to) `sup`?"""
        cursor: str | None = sub
        while cursor is not None:
            if cursor == sup:
                return True
            cursor = self.parents.get(cursor)
        return False

    def root(self, name: str) -> str:
        """The topmost supertype of `name` (`name` itself when it has none)."""
        while (parent := self.parents.get(name)) is not None:
            name = parent
        return name


@dataclass(frozen=True)
class MethodMatch:
    query_method: str
    provided_method: str
    kind: str
    param_permutation: tuple[int, ...]

    def names_equal(self) -> bool:
        return self.query_method == self.provided_method


@dataclass(frozen=True)
class ModuleMatch:
    """An injective map of query methods onto provided methods; `unmatched`
    names the query methods it leaves out, in query order (none for a full match)."""

    method_map: dict[str, MethodMatch]
    unmatched: tuple[str, ...] = ()

    def __hash__(self):
        return id(self)

    @property
    def overall_kind(self) -> str:
        return weakest(m.kind for m in self.method_map.values())

    def coverage(self) -> float:
        total = len(self.method_map) + len(self.unmatched)
        return len(self.method_map) / total if total else 1.0

    def name_overlap(self) -> float:
        total = len(self.method_map) + len(self.unmatched)
        if not total:
            return 1.0
        return sum(1 for m in self.method_map.values() if m.names_equal()) / total


def _return_le(lattice: TypeLattice, sub: str | None, sup: str | None) -> bool:
    if sub is None or sup is None:
        return sub is None and sup is None
    return lattice.le(sub, sup)


def shape(m: MethodSig, lattice: TypeLattice) -> tuple:
    """Sorted parameter-type roots plus the return-type root (or None).

    Every match kind preserves arity and the root of each type, so two methods
    with different shapes never match.
    """
    ret = lattice.root(m.return_type) if m.return_type is not None else None
    return tuple(sorted(lattice.root(t) for t in m.param_types())), ret


def _match_types(q_types, p_types, lattice: TypeLattice) -> tuple[str, tuple[int, ...]] | None:
    """The strongest kind and parameter permutation matching two signatures'
    (parameter types, return type), if any."""
    (qt, qr), (pt, pr) = q_types, p_types
    if len(qt) != len(pt):
        return None
    identity = tuple(range(len(qt)))

    if qr == pr:  # an absent return type is a unit type equal only to itself
        if qt == pt:
            return EXACT, identity
        if sorted(qt) == sorted(pt):
            # each query position, in order, takes the smallest unused provider
            # position of its type: the lexicographically smallest permutation
            pairs = zip(sorted(identity, key=qt.__getitem__),
                        sorted(identity, key=pt.__getitem__))
            return PERMUTED, tuple(j for _, j in sorted(pairs))

    # not EXACT: the types differ, so a subtype match here is strict
    if all(lattice.le(qi, pi) for qi, pi in zip(qt, pt)) and _return_le(lattice, pr, qr):
        return GENERALIZED, identity
    if all(lattice.le(pi, qi) for qi, pi in zip(qt, pt)) and _return_le(lattice, qr, pr):
        return SPECIALIZED, identity
    return None


def match_method(q: MethodSig, p: MethodSig, lattice: TypeLattice) -> MethodMatch | None:
    """Strongest applicable signature match between two methods, if any."""
    key = q.types, p.types
    if key not in lattice.matches:
        lattice.matches[key] = _match_types(*key, lattice)
    found = lattice.matches[key]
    return None if found is None else MethodMatch(q.name, p.name, *found)


def _match_matrix(q_methods, p_methods, lattice):
    return [[match_method(qm, pm, lattice) for pm in p_methods] for qm in q_methods]


def _hungarian(cost: list[list[int]]) -> list[int]:
    """Minimum-cost assignment of every row of an integer matrix with no more
    rows than columns, by shortest augmenting paths with potentials (Crouse,
    IEEE TAES 2016); columns are scanned last first and, among equal
    distances, a free column wins. Returns the column of each row."""
    nr, nc = len(cost), len(cost[0]) if cost else 0
    u, v = [0] * nr, [0] * nc
    col_of, row_of = [-1] * nr, [-1] * nc
    for cur in range(nr):
        dist, path = [float("inf")] * nc, [-1] * nc
        remaining, rows, cols = list(range(nc - 1, -1, -1)), [], []
        i, low, sink = cur, 0, -1
        while sink < 0:
            rows.append(i)
            index, lowest, row, base = -1, float("inf"), cost[i], low - u[i]
            for k, j in enumerate(remaining):
                reduced = base + row[j] - v[j]
                if reduced < dist[j]:
                    dist[j], path[j] = reduced, i
                if dist[j] < lowest or (dist[j] == lowest and row_of[j] < 0):
                    index, lowest = k, dist[j]
            low, j = lowest, remaining[index]
            if row_of[j] < 0:
                sink = j
            else:
                i = row_of[j]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        for i in rows:
            u[i] += low - (dist[col_of[i]] if i != cur else 0)
        for j in cols:
            v[j] -= low - dist[j]
        j = sink
        while True:  # flip the augmenting path back to row `cur`
            i = path[j]
            row_of[j], col_of[i], j = i, j, col_of[i]
            if i == cur:
                break
    return col_of


def _assign(matrix, level: str) -> dict[str, MethodMatch]:
    """Injective partial assignment over the cells of a query x provided match
    matrix whose kind is `level` or stronger, maximizing the number of matched
    query methods, then the number of verbatim name matches."""
    floor = strength(level)
    cells = [[m if m is not None and strength(m.kind) >= floor else None for m in row]
             for row in matrix]
    # one more matched method (nq + 1) outweighs every name match (at most nq)
    bonus = len(cells) + 1
    cost = [[0 if m is None else -bonus - m.names_equal() for m in row] for row in cells]
    if len(cells) <= len(cells[0] if cells else ()):
        pairs = enumerate(_hungarian(cost))
    else:  # more query than provided methods: assign each provided method
        pairs = ((i, j) for j, i in enumerate(_hungarian([list(c) for c in zip(*cost)])))
    chosen = (cells[i][j] for i, j in pairs)
    return {m.query_method: m for m in chosen if m is not None}


def _widest(q_methods, matrix) -> ModuleMatch:
    """The assignment over every compatible cell, with the query methods it leaves out."""
    chosen = _assign(matrix, SPECIALIZED)
    return ModuleMatch(chosen, tuple(m.name for m in q_methods if m.name not in chosen))


def match_module(q: Interface, p: Interface, lattice: TypeLattice) -> ModuleMatch:
    """Map as many query methods as possible injectively onto provided methods.

    The first assignment uses every compatible cell, maximizing the number of
    matched query methods, then verbatim name matches; if it leaves a query
    method unmatched, that partial map is the answer.  Otherwise the strongest
    achievable weakest-link kind wins: the assignment over the matches of that
    kind or stronger.  The provided interface may have extra methods.
    """
    q_methods = q.all_methods()
    matrix = _match_matrix(q_methods, p.all_methods(), lattice)
    found = _widest(q_methods, matrix)
    if found.unmatched:
        return found
    # coverage can only drop as the level rises, so the first level that leaves
    # a query method unmatched ends the search; the weakest kind present repeats
    # the cells of the first assignment, and a kind no cell has those of the
    # next stronger level
    kinds = {m.kind for row in matrix for m in row if m is not None}
    for level in sorted(kinds, key=strength)[1:]:
        chosen = _assign(matrix, level)
        if len(chosen) < len(q_methods):
            break
        found = ModuleMatch(chosen)
    return found


def partial_match(q: Interface, p: Interface, lattice: TypeLattice) -> ModuleMatch:
    """match_module's first assignment: every compatible cell, maximizing the
    number of matched query methods, then verbatim name matches."""
    q_methods = q.all_methods()
    return _widest(q_methods, _match_matrix(q_methods, p.all_methods(), lattice))
