"""Signature-level matching: exact, permuted, generalized, and specialized
method matches, and injective interface-to-interface assignments.

Method names never block a match; the resulting rename map feeds the protocol
level.  One rule ranks maps: more matched methods first, then the stronger
weakest-link kind, then more verbatim names.  `match_module` picks a full map
by it (a partial one by matched methods, then names), solving one assignment
from a table compiled once per query; `matcher` ranks its reports by it.
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

    Its memos hold pure functions of their keys and this order: `shapes` the
    `shape` of signature types, `matches` the (kind, permutation) of a pair of
    them, each keyed by its types; `queries` a query's `_Query` table, keyed by
    the identity of its method tuple, which the table holds; `assignments` the
    index pairs `_assign` picks, keyed by the cost matrix.  Build one lattice
    per query: a reused one answers as a fresh one does, but its memos grow.
    """

    parents: dict[str, str | None]
    shapes: dict = field(default_factory=dict, compare=False, repr=False)
    matches: dict = field(default_factory=dict, compare=False, repr=False)
    queries: dict = field(default_factory=dict, compare=False, repr=False)
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


def shape(m: MethodSig, lattice: TypeLattice) -> str:
    """The method's sorted parameter-type roots, then `:R` when it returns a
    type of root R, printed as `(Account,String):String`; memoised in the
    lattice by the method's types.

    Every match kind preserves arity and the root of each type, so two methods
    with different shapes (type names hold no `(),:`) never match.
    """
    if m.types not in lattice.shapes:
        (params, ret), root = m.types, lattice.root
        lattice.shapes[m.types] = f"({','.join(sorted(map(root, params)))})" + \
            ("" if ret is None else f":{root(ret)}")
    return lattice.shapes[m.types]


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


class _Query:
    """A query's methods, compiled once per lattice.  `columns` holds each distinct
    provided column, keyed by its signature types and the index of the query
    method of its name (-1: none): its cells (None or a (kind, permutation) per
    query method), then at each level k, keeping the cells of kind KINDS[k] or
    stronger, its cost column, name bonus applied, and the bitmask of the query
    methods it can take.  `levels` holds the level chosen for a tuple of columns'
    masks; `matches` interns MethodMatch records by (query index, provided name, cell)."""

    def __init__(self, q_methods):
        self.methods, self.types = q_methods, tuple(m.types for m in q_methods)
        self.index = {m.name: i for i, m in enumerate(q_methods)}
        self.columns, self.levels, self.matches = {}, {}, {}
        self.empty = ((0,) * len(q_methods),) * len(KINDS), (0,) * len(KINDS)

    def column(self, pm: MethodSig, lattice: TypeLattice) -> tuple:
        key = pm.types, self.index.get(pm.name, -1)
        column = self.columns.get(key)
        if column is None:
            cells = tuple(_match_cell(t, pm.types, lattice) for t in self.types)
            costs, masks = self.empty
            if any(cells):
                bonus = len(cells) + 1  # one more matched method outweighs every name match
                costs = tuple(tuple(-bonus - (i == key[1]) if c and _STRENGTH[c[0]] >= floor
                                    else 0 for i, c in enumerate(cells))
                              for floor in range(len(KINDS), 0, -1))
                masks = tuple(sum(1 << i for i, k in enumerate(cost) if k) for cost in costs)
            column = self.columns[key] = cells, costs, masks
        return column

    def level(self, masks: tuple) -> int:
        """The level whose costs to assign: the strongest at which columns of these
        masks match every query method (coverage only drops as it rises), else the weakest."""
        level = self.levels.get(masks)
        if level is None:
            level = len(KINDS) - 1
            for k in reversed(range(len(KINDS))):
                if not _perfect([m[k] for m in masks], len(self.methods)):
                    break
                level = k
            self.levels[masks] = level
        return level

    def module_match(self, p_methods, columns, pairs) -> ModuleMatch:
        """The ModuleMatch of the chosen pairs, with the query methods they leave out."""
        chosen = {}
        for i, j in pairs:
            key = i, p_methods[j].name, columns[j][0][i]
            match = self.matches.get(key)
            if match is None:
                match = self.matches[key] = MethodMatch(self.methods[i].name, key[1], *key[2])
            chosen[match.query_method] = match
        return ModuleMatch(chosen, tuple(m.name for m in self.methods if m.name not in chosen))


def _perfect(masks, n: int) -> bool:
    """Can each of n query methods take a column of its own, column j taking those in
    the bits of masks[j]?  Hopcroft and Karp's question (SIAM J. Comput. 1973), by BFS."""
    row_of = [-1] * len(masks)  # the query method each column takes

    def augment(start: int) -> bool:
        via, queue = {}, [(start, -1)]  # column -> (query method reaching it, column before)
        for i, came in queue:
            for j, mask in enumerate(masks):
                if mask >> i & 1 and j not in via:
                    via[j] = i, came
                    if row_of[j] < 0:  # a free column: flip the path back to `start`
                        while j >= 0:
                            row_of[j], j = via[j]
                        return True
                    queue.append((row_of[j], j))
        return False
    return all(map(augment, range(n)))


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


def _assign(cost: tuple, lattice: TypeLattice) -> tuple:
    """The (query, provided) index pairs of an injective partial assignment over
    a cost matrix given by its columns (0: a dropped cell), maximizing matched
    query methods, then verbatim name matches; in query order when there are no
    more query than provided methods, else in provided order."""
    pairs = lattice.assignments.get(cost)
    if pairs is None:  # cost is column-major, so transposing gives the rows
        rows = list(zip(*cost))
        if len(rows) <= len(cost):
            pairs = enumerate(_hungarian(rows))
        else:  # more query than provided methods: assign each provided method
            pairs = ((i, j) for j, i in enumerate(_hungarian(cost)))
        pairs = lattice.assignments[cost] = tuple((i, j) for i, j in pairs if cost[j][i])
    return pairs


def _match(q: Interface, p, lattice: TypeLattice, level: int | None) -> ModuleMatch:
    """The ModuleMatch of the assignment at `level` (None: as `_Query.level` picks)."""
    q_methods, p_methods = q.all_methods(), p.all_methods()
    query = lattice.queries.get(id(q_methods))
    if query is None:  # the table keeps q_methods alive, so its id stays unique
        query = lattice.queries[id(q_methods)] = _Query(q_methods)
    columns = [query.column(pm, lattice) for pm in p_methods]
    if level is None:
        level = query.level(tuple(c[2] for c in columns))
    return query.module_match(p_methods, columns,
                              _assign(tuple(c[1][level] for c in columns), lattice))


def match_module(q: Interface, p: Interface, lattice: TypeLattice) -> ModuleMatch:
    """Map as many query methods as possible injectively onto the methods `p`
    lists by `all_methods()` (an Interface, or a repo.IndexEntry), which may
    be more.  If no assignment over every compatible cell matches every query
    method, the answer maximizes matched query methods, then verbatim name
    matches.  Otherwise the strongest achievable weakest-link kind wins: the
    assignment over the matches of that kind or stronger.  A perfect-matching
    test on the columns' bitmasks picks that level, so each call solves one
    assignment, through the lattice's memos (see TypeLattice)."""
    return _match(q, p, lattice, None)


def partial_match(q: Interface, p: Interface, lattice: TypeLattice) -> ModuleMatch:
    """match_module's assignment over every compatible cell: matched methods, then names."""
    return _match(q, p, lattice, len(KINDS) - 1)
