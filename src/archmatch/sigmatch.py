"""Signature-level matching: exact, permuted, generalized, and specialized
method matches, and injective interface-to-interface assignments.

Method names never block a match; the resulting rename map feeds the protocol
level, and verbatim name agreement is only a deterministic tie-break (and a
ranking ingredient upstream).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import Interface, MethodSig, TypeDecl

EXACT = "exact"
PERMUTED = "permuted"
GENERALIZED = "generalized"
SPECIALIZED = "specialized"

#: match kinds, strongest first
KINDS = (EXACT, PERMUTED, GENERALIZED, SPECIALIZED)
_STRENGTH = {kind: len(KINDS) - i for i, kind in enumerate(KINDS)}

_FORBIDDEN = 10**6  # assignment cost for an impossible pairing


def strength(kind: str) -> int:
    return _STRENGTH[kind]


def weakest(kinds) -> str:
    return min(kinds, key=strength, default=EXACT)


@dataclass(frozen=True)
class TypeLattice:
    """Reflexive-transitive subtype order from declared `<:` supertypes."""

    parents: dict[str, str | None]

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
    """An injective map of every query method onto a provided method."""

    method_map: dict[str, MethodMatch]
    overall_kind: str

    def __hash__(self):
        return id(self)

    def name_overlap(self) -> float:
        if not self.method_map:
            return 1.0
        equal = sum(1 for m in self.method_map.values() if m.names_equal())
        return equal / len(self.method_map)


def _returns_equal(q: MethodSig, p: MethodSig) -> bool:
    # an absent return type is a unit type equal only to itself
    return q.return_type == p.return_type


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


def match_method(q: MethodSig, p: MethodSig, lattice: TypeLattice) -> MethodMatch | None:
    """Strongest applicable signature match between two methods, if any."""
    qt, pt = q.param_types(), p.param_types()
    if len(qt) != len(pt):
        return None
    identity = tuple(range(len(qt)))

    if qt == pt and _returns_equal(q, p):
        return MethodMatch(q.name, p.name, EXACT, identity)

    if sorted(qt) == sorted(pt) and _returns_equal(q, p):
        # lexicographically smallest permutation of p's parameters matching q
        for perm in itertools.permutations(range(len(pt))):
            if tuple(pt[i] for i in perm) == qt:
                return MethodMatch(q.name, p.name, PERMUTED, perm)

    if (all(lattice.le(qi, pi) for qi, pi in zip(qt, pt))
            and _return_le(lattice, p.return_type, q.return_type)):
        strict = qt != pt or q.return_type != p.return_type
        if strict:
            return MethodMatch(q.name, p.name, GENERALIZED, identity)

    if (all(lattice.le(pi, qi) for qi, pi in zip(qt, pt))
            and _return_le(lattice, q.return_type, p.return_type)):
        strict = qt != pt or q.return_type != p.return_type
        if strict:
            return MethodMatch(q.name, p.name, SPECIALIZED, identity)

    return None


def _match_matrix(q_methods, p_methods, lattice):
    return [[match_method(qm, pm, lattice) for pm in p_methods] for qm in q_methods]


def _assign(matrix, q_methods, p_methods, allowed) -> dict[str, MethodMatch] | None:
    """Complete injective assignment over `allowed` cells, maximizing the
    number of verbatim name matches; None when no complete assignment exists."""
    nq, np_ = len(q_methods), len(p_methods)
    if nq == 0:
        return {}
    if nq > np_:
        return None
    cost = np.full((nq, np_), float(_FORBIDDEN))
    for i in range(nq):
        for j in range(np_):
            m = matrix[i][j]
            if m is not None and allowed(m):
                cost[i, j] = 0.0 if m.names_equal() else 1.0
    rows, cols = linear_sum_assignment(cost)
    if cost[rows, cols].sum() >= _FORBIDDEN:
        return None
    return {q_methods[i].name: matrix[i][j] for i, j in zip(rows, cols)}


def match_module(q: Interface, p: Interface, lattice: TypeLattice) -> ModuleMatch | None:
    """Map every query method injectively onto a provided method.

    The strongest achievable weakest-link kind wins: an all-exact assignment
    is sought first, then assignments allowing progressively weaker kinds.
    The provided interface may have extra methods.
    """
    q_methods = q.all_methods()
    p_methods = p.all_methods()
    matrix = _match_matrix(q_methods, p_methods, lattice)
    for level in KINDS:
        chosen = _assign(matrix, q_methods, p_methods,
                         lambda m: strength(m.kind) >= strength(level))
        if chosen is not None:
            return ModuleMatch(chosen, weakest(m.kind for m in chosen.values()))
    return None


@dataclass(frozen=True)
class PartialMatch:
    """Best-effort coverage when a full module match does not exist."""

    method_map: dict[str, MethodMatch]
    unmatched: tuple[str, ...]

    def __hash__(self):
        return id(self)

    def coverage(self) -> float:
        total = len(self.method_map) + len(self.unmatched)
        return len(self.method_map) / total if total else 1.0


def partial_match(q: Interface, p: Interface, lattice: TypeLattice) -> PartialMatch:
    """Injective assignment maximizing the number of matched query methods,
    then verbatim name matches."""
    q_methods = q.all_methods()
    p_methods = p.all_methods()
    if not q_methods or not p_methods:
        return PartialMatch({}, tuple(m.name for m in q_methods))
    matrix = _match_matrix(q_methods, p_methods, lattice)
    # minimizing -(2 + name bonus) maximizes coverage first, then name matches
    cost = np.zeros((len(q_methods), len(p_methods)))
    for i in range(len(q_methods)):
        for j in range(len(p_methods)):
            m = matrix[i][j]
            if m is not None:
                cost[i, j] = -(2.0 + (1.0 if m.names_equal() else 0.0))
    if len(q_methods) <= len(p_methods):
        rows, cols = linear_sum_assignment(cost)
    else:
        cols, rows = linear_sum_assignment(cost.T)
    chosen = {q_methods[i].name: matrix[i][j] for i, j in zip(rows, cols)
              if matrix[i][j] is not None}
    unmatched = tuple(m.name for m in q_methods if m.name not in chosen)
    return PartialMatch(chosen, unmatched)
