"""Signature-level matching: exact, permuted, generalized, and specialized
method matches, and injective interface-to-interface assignments.

Method names never block a match; the resulting rename map feeds the protocol
level.  One rule ranks maps: more matched methods first, then the stronger
weakest-link kind, then more verbatim names.  `match_module` picks a full map
by it (a partial one by matched methods, then names), and `matcher` ranks its
reports by it.
"""

from __future__ import annotations

from .model import Interface, MethodSig, TypeDecl
from .records import field, record

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


@record(frozen=True)
class TypeLattice:
    """Reflexive-transitive subtype order from declared `<:` supertypes.

    Its memos let a query compare each pair of signature types once and solve
    each assignment once: `matches` holds the (kind, permutation) of a pair of
    signature types, `columns` a provided method's column of the match matrix
    keyed by (the query's method types, its types), and `assignments` the index
    pairs `_assign` picks for a cost matrix.  Each value is a pure function of
    its key and this order, so the results are those computed afresh.  Build
    one lattice per query: a reused one stays correct, but its memos grow.
    """

    parents: dict[str, str | None]
    matches: dict = field(default_factory=dict, compare=False, repr=False)
    columns: dict = field(default_factory=dict, compare=False, repr=False)
    assignments: dict = field(default_factory=dict, compare=False, repr=False)

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


@record(frozen=True)
class MethodMatch:
    query_method: str
    provided_method: str
    kind: str
    param_permutation: tuple[int, ...]

    def names_equal(self) -> bool:
        return self.query_method == self.provided_method


@record(frozen=True)
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

    def name_matches(self) -> int:
        return sum(1 for m in self.method_map.values() if m.names_equal())


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


def _match_cell(q_types, p_types, lattice: TypeLattice):
    key = q_types, p_types
    if key not in lattice.matches:
        lattice.matches[key] = _match_types(q_types, p_types, lattice)
    return lattice.matches[key]


def _match_matrix(q_methods, p_methods, lattice):
    """Each provided method's column: its cells, one per query method (None, or
    the (kind, permutation) of a match), with their costs when every cell is
    kept; and where each provided method's name agrees, as the index of the
    query method of that name or -1 (a column has at most one agreeing name)."""
    q_types = tuple(m.types for m in q_methods)
    bonus = len(q_types) + 1  # one more matched method outweighs every name match
    columns = []
    for pm in p_methods:
        key = q_types, pm.types
        if key not in lattice.columns:
            cells = tuple(_match_cell(t, pm.types, lattice) for t in q_types)
            lattice.columns[key] = cells, tuple(0 if c is None else -bonus for c in cells)
        columns.append(lattice.columns[key])
    same = {m.name: i for i, m in enumerate(q_methods)}
    return columns, [same.get(pm.name, -1) for pm in p_methods]


def _hungarian(cost) -> list[int]:
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


def _assign(columns, names, level: str, lattice: TypeLattice) -> tuple:
    """Injective partial assignment over the cells of a match matrix, given by
    its columns, whose kind is `level` or stronger, maximizing the number of
    matched query methods, then the number of verbatim name matches: the
    (query, provided) index pairs it matches, in query order when there are no
    more query than provided methods, else in provided order."""
    floor, cost = strength(level), []
    for (cells, column), same in zip(columns, names):
        if level != SPECIALIZED:  # drop the cells weaker than `level`
            column = tuple(0 if c is None or _STRENGTH[c[0]] < floor else k
                           for c, k in zip(cells, column))
        if same >= 0 and column[same]:  # a verbatim name match is worth one more
            column = column[:same] + (column[same] - 1,) + column[same + 1:]
        cost.append(column)
    cost = tuple(cost)
    pairs = lattice.assignments.get(cost)
    if pairs is None:  # cost is column-major, so transposing gives the rows
        rows = list(zip(*cost))
        if len(rows) <= len(cost):
            pairs = enumerate(_hungarian(rows))
        else:  # more query than provided methods: assign each provided method
            pairs = ((i, j) for j, i in enumerate(_hungarian(cost)))
        pairs = lattice.assignments[cost] = tuple((i, j) for i, j in pairs if cost[j][i])
    return pairs


def _module_match(q_methods, p_methods, columns, pairs) -> ModuleMatch:
    """The ModuleMatch of the chosen pairs, with the query methods they leave out."""
    chosen = {q_methods[i].name: MethodMatch(q_methods[i].name, p_methods[j].name,
                                             *columns[j][0][i]) for i, j in pairs}
    return ModuleMatch(chosen, tuple(m.name for m in q_methods if m.name not in chosen))


def match_module(q: Interface, p: Interface, lattice: TypeLattice) -> ModuleMatch:
    """Map as many query methods as possible injectively onto provided methods.

    The first assignment uses every compatible cell, maximizing the number of
    matched query methods, then verbatim name matches; if it leaves a query
    method unmatched, that partial map is the answer.  Otherwise the strongest
    achievable weakest-link kind wins: the assignment over the matches of that
    kind or stronger.  The provided interface may have extra methods.

    Cells and assignments come from the lattice's exact memos (see
    TypeLattice); MethodMatch objects are built only for the answer.
    """
    q_methods, p_methods = q.all_methods(), p.all_methods()
    columns, names = _match_matrix(q_methods, p_methods, lattice)
    found = _assign(columns, names, SPECIALIZED, lattice)
    if len(found) < len(q_methods):
        return _module_match(q_methods, p_methods, columns, found)
    # coverage can only drop as the level rises, so the first level that leaves
    # a query method unmatched ends the search; the weakest kind present repeats
    # the cells of the first assignment, and a kind no cell has those of the
    # next stronger level
    kinds = {c[0] for cells, _ in columns for c in cells if c is not None}
    for level in sorted(kinds, key=strength)[1:]:
        chosen = _assign(columns, names, level, lattice)
        if len(chosen) < len(q_methods):
            break
        found = chosen
    return _module_match(q_methods, p_methods, columns, found)


def partial_match(q: Interface, p: Interface, lattice: TypeLattice) -> ModuleMatch:
    """match_module's first assignment: every compatible cell, maximizing the
    number of matched query methods, then verbatim name matches."""
    q_methods, p_methods = q.all_methods(), p.all_methods()
    columns, names = _match_matrix(q_methods, p_methods, lattice)
    return _module_match(q_methods, p_methods, columns,
                         _assign(columns, names, SPECIALIZED, lattice))
