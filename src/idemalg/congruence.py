"""Congruences, tolerances, abelianness and the related decision procedures.

Congruences are canonical partitions of 0..n-1.  Principal congruences are
generated by union-find saturation under the translations of the algebra,
the maps x |-> f(c-bar with x at position i) of every basic operation f
(closure under those implies closure under all unary polynomials).  They
are kept once per algebra, deduplicated by the exact row key of the table
kernel (`algebra.distinct_rows`), as the rows of one integer matrix, so
each pair is pushed through all of them by one gather (R. Freese,
Computing congruences efficiently, Algebra Universalis 59, 2008).  The full
lattice is the join closure of the principal congruences; joins of
congruences are transitive closures of unions.

Tolerances are saturated semi-naively on an n x n bool matrix: each round
applies the operations, by numpy gathers, only to tuples of related pairs
that use a pair new in the round before.

Abelianness is decided by the diagonal test on A^2: the algebra is abelian
iff the diagonal is a block of the congruence of A^2 generated by all pairs
of diagonal elements.  Tests cross-validate this against the brute-force
term condition at arity <= 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .algebra import (
    FiniteAlgebra,
    batch_len,
    distinct_rows,
    is_set,
    product_algebra,
)
from .errors import CapExceededError, NotATolerance, ProjectionNotFull, ValidationError
from .generate import term_operations

SET = "set"
MODULE = "module"
OTHER = "other"

#: the cap of the brute-force term searches (smaller than the default)
TERM_SEARCH_CAP = 20000


@dataclass(frozen=True)
class Congruence:
    """A compatible partition, stored canonically: blocks sorted internally
    and by leader, covering 0..size-1."""

    size: int
    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_blocks(size: int, blocks: Iterable[Iterable[int]]) -> "Congruence":
        canon = tuple(sorted(tuple(sorted(b)) for b in blocks))
        return Congruence(size, canon)

    @staticmethod
    def from_parent(parent: Sequence[int]) -> "Congruence":
        groups: dict[int, list[int]] = {}
        for x, p in enumerate(parent):
            groups.setdefault(p, []).append(x)
        return Congruence.from_blocks(len(parent), groups.values())

    @staticmethod
    def equality(size: int) -> "Congruence":
        return Congruence(size, tuple((x,) for x in range(size)))

    @cached_property
    def block_index(self) -> tuple[int, ...]:
        idx = [0] * self.size
        for bi, blk in enumerate(self.blocks):
            for x in blk:
                idx[x] = bi
        return tuple(idx)

    def together(self, x: int, y: int) -> bool:
        return self.block_index[x] == self.block_index[y]

    def block_of(self, x: int) -> tuple[int, ...]:
        return self.blocks[self.block_index[x]]

    @property
    def is_equality(self) -> bool:
        return len(self.blocks) == self.size

    @property
    def is_total(self) -> bool:
        return len(self.blocks) == 1

    def refines(self, other: "Congruence") -> bool:
        """Every block of self is inside a block of other."""
        return all(len({other.block_index[x] for x in blk}) == 1
                   for blk in self.blocks)

    def __str__(self) -> str:
        return "{" + "|".join(",".join(str(x) for x in blk)
                              for blk in self.blocks) + "}"


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True


def cg(algebra: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence containing the pairs: union-find saturated with the
    translations of the algebra."""
    n = algebra.size
    pairs = list(pairs)
    algebra.check_elements(v for pair in pairs for v in pair)
    moves = _translations(algebra)
    uf = _UnionFind(n)
    queue = [(x, y) for x, y in pairs if uf.union(x, y)]
    while queue:
        x, y = queue.pop()
        for vx, vy in zip(moves[:, x].tolist(), moves[:, y].tolist()):
            if uf.union(vx, vy):
                queue.append((vx, vy))
    return Congruence.from_parent([uf.find(x) for x in range(n)])


def _translations(algebra: FiniteAlgebra) -> np.ndarray:
    """The distinct translations x |-> f(c-bar with x at position i), one
    per row in order of their exact keys, memoized on the algebra.  Constant
    maps and the identity are left out: they never merge a pair."""
    def compute() -> np.ndarray:
        n = algebra.size
        moved = [np.moveaxis(stack.array, pos, -1) for arity, stack in algebra.stacks.items()
                 for pos in range(1, arity + 1)]
        # filled in place, so that no copy of a moved stack is held besides it
        rows, lo = np.empty((sum(m.size for m in moved) // n, n), dtype=np.intp), 0
        for m in moved:
            rows[lo:lo + m.size // n].reshape(m.shape)[...] = m
            lo += m.size // n
        rows = rows[distinct_rows(rows, n)[0]]
        return rows[(rows != rows[:, :1]).any(axis=1) & (rows != np.arange(n)).any(axis=1)]
    return algebra.memoized(("translations",), compute)


def components(n: int, links: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """Components of 0..n-1 when the members of each link are joined."""
    uf = _UnionFind(n)
    for link in links:
        for x in link[1:]:
            uf.union(link[0], x)
    comps: dict[int, list[int]] = {}
    for x in range(n):
        comps.setdefault(uf.find(x), []).append(x)
    return sorted(tuple(c) for c in comps.values())


def join(a: Congruence, b: Congruence) -> Congruence:
    """Join in the congruence lattice: the transitive closure of the union."""
    return Congruence.from_blocks(a.size, components(a.size, a.blocks + b.blocks))


def congruence_lattice(algebra: FiniteAlgebra) -> tuple[Congruence, ...]:
    """All congruences: the join closure of the principal ones plus
    equality, sorted canonically."""
    return algebra.analysis(("congruence_lattice",), lambda: _lattice(algebra))


def _lattice(algebra: FiniteAlgebra) -> tuple[Congruence, ...]:
    n = algebra.size
    found = {Congruence.equality(n)}
    principal = set()
    for x in range(n):
        for y in range(x + 1, n):
            principal.add(cg(algebra, [(x, y)]))
    found |= principal
    frontier = list(principal)
    while frontier:
        theta = frontier.pop()
        for eta in principal:
            j = join(theta, eta)
            if j not in found:
                found.add(j)
                frontier.append(j)
    return tuple(sorted(found, key=lambda c: c.blocks))


def maximal_congruences(algebra: FiniteAlgebra) -> tuple[Congruence, ...]:
    """Proper congruences with nothing strictly between them and the total
    one; equivalently those with a simple quotient."""
    proper = [c for c in congruence_lattice(algebra) if not c.is_total]
    return algebra.analysis(("maximal_congruences",), lambda: tuple(
        theta for theta in proper
        if not any(theta is not eta and theta.refines(eta) for eta in proper)))


# --------------------------------------------------------------------------
# tolerances
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Tolerance:
    """A reflexive symmetric compatible relation, stored as a frozenset of
    ordered pairs (both orders present)."""

    size: int
    pairs: frozenset[tuple[int, int]]

    def related(self, x: int, y: int) -> bool:
        return (x, y) in self.pairs

    @property
    def is_equality(self) -> bool:
        return all(x == y for x, y in self.pairs)

    @property
    def is_total(self) -> bool:
        return len(self.pairs) == self.size * self.size

    def transitive_closure(self) -> Congruence:
        return Congruence.from_blocks(self.size, components(self.size, self.pairs))

    def classes(self) -> list[tuple[int, ...]]:
        """Maximal cliques of the relation graph, sorted, each sorted, by
        Bron-Kerbosch with pivoting: a state is a clique, the elements that
        extend it not yet branched on, and those already branched on."""
        nbrs = [frozenset(y for y in range(self.size) if y != x and self.related(x, y))
                for x in range(self.size)]
        found = []
        stack = [(frozenset(), frozenset(range(self.size)), frozenset())]
        while stack:
            clique, todo, done = stack.pop()
            if not todo and not done:
                found.append(tuple(sorted(clique)))
                continue
            pivot = max(todo | done, key=lambda u: len(todo & nbrs[u]))
            for v in sorted(todo - nbrs[pivot]):
                stack.append((clique | {v}, todo & nbrs[v], done & nbrs[v]))
                todo, done = todo - {v}, done | {v}
        return sorted(found)


def tolerance_generated(algebra: FiniteAlgebra,
                        pairs: Iterable[tuple[int, int]]) -> Tolerance:
    """Least compatible reflexive symmetric relation containing the pairs,
    saturated semi-naively: each round applies the operations only to
    tuples that use a pair added in the round before."""
    n = algebra.size
    pairs = list(pairs)
    algebra.check_elements(v for pair in pairs for v in pair)
    rel = np.eye(n, dtype=bool)
    for x, y in pairs:
        rel[x, y] = rel[y, x] = True
    # invariant: every tuple of pairs of rel & ~delta has been applied (the
    # diagonal maps into itself).  A tuple and its swap have transposed
    # images, so tuples whose first delta pair is below the diagonal are skipped
    delta = rel & ~np.eye(n, dtype=bool)
    while delta.any() and not rel.all():
        image = _image(algebra, rel & ~delta, np.triu(delta), rel)
        delta = (image | image.T) & ~rel
        rel |= delta
    return _tolerance(rel)


def _tolerance(rel: np.ndarray) -> Tolerance:
    xs, ys = np.nonzero(rel)
    return Tolerance(len(rel), frozenset(zip(xs.tolist(), ys.tolist())))


def _image(algebra: FiniteAlgebra, old: np.ndarray, new: np.ndarray,
           every: np.ndarray) -> np.ndarray:
    """The n x n bool matrix of pairs (f(x-bar), f(y-bar)) over the basic
    operations f and the tuples of pairs whose first pair outside old is in
    new, with every pair after it in every.  The first argument runs in
    blocks (`batch_len`), so memory stays flat."""
    out = np.zeros_like(every)
    old, new, every = (np.array(np.nonzero(m)) for m in (old, new, every))
    for op in algebra.operations:
        r = op.arity
        for j in range(r if old.size else 1):
            first, *rest = [old] * j + [new] + [every] * (r - 1 - j)
            # every combination of the later pairs, each a (2, m) x/y array
            count = math.prod(p.shape[1] for p in rest)
            picks = np.indices([p.shape[1] for p in rest]).reshape(len(rest), count)
            later = tuple(p[:, None, k] for p, k in zip(rest, picks))
            per = batch_len(2 * count)   # u and v
            for lo in range(0, first.shape[1], per):
                u, v = op.array[(first[:, lo:lo + per, None],) + later]
                out[u, v] = True
    return out


def _compatible(algebra: FiniteAlgebra, rel: np.ndarray) -> bool:
    """Is the bool matrix closed: its image, all pairs new, inside it?"""
    return not (_image(algebra, np.zeros_like(rel), rel, rel) & ~rel).any()


def link_tolerance(algebra: FiniteAlgebra, relation: Iterable[Sequence[int]],
                   coordinate: int) -> Tolerance:
    """The i-th link tolerance of a relation with full projections: two
    elements are related when some fixing of the other coordinates puts both
    tuples into the relation.  NotATolerance: the input was not compatible."""
    tuples = [tuple(t) for t in relation]
    if not tuples:
        raise ValueError("empty relation")
    k = len(tuples[0])
    if not 0 <= coordinate < k:
        raise ValidationError(f"coordinate {coordinate} is not in 0..{k - 1}")
    for j in range(k):
        if {t[j] for t in tuples} != set(range(algebra.size)):
            raise ProjectionNotFull(j)
    groups: dict[tuple[int, ...], list[int]] = {}
    for t in tuples:
        key = t[:coordinate] + t[coordinate + 1:]
        groups.setdefault(key, []).append(t[coordinate])
    rel = np.eye(algebra.size, dtype=bool)
    for vals in groups.values():
        rel[np.ix_(vals, vals)] = True
    if not _compatible(algebra, rel):
        raise NotATolerance(coordinate)
    return _tolerance(rel)


# --------------------------------------------------------------------------
# abelianness and simple-quotient classification
# --------------------------------------------------------------------------


def is_abelian(algebra: FiniteAlgebra) -> bool:
    """Diagonal test on A^2: abelian iff the diagonal is a block of the
    congruence of A^2 generated by all pairs of diagonal elements."""
    return algebra.analysis(("is_abelian",), lambda: _diagonal_test(algebra))


def _diagonal_test(algebra: FiniteAlgebra) -> bool:
    n = algebra.size
    square = product_algebra(algebra, algebra)
    diag = [x * n + x for x in range(n)]
    theta = cg(square, [(diag[0], d) for d in diag[1:]] or [(diag[0], diag[0])])
    return set(theta.block_of(diag[0])) == set(diag)


def classify_simple_quotient(algebra: FiniteAlgebra) -> str:
    """For a simple idempotent algebra: SET if all basic operations are
    projections, MODULE if abelian but not a set, OTHER otherwise.  The
    caller guarantees simplicity; on simple idempotent algebras abelian and
    not-a-set means the full idempotent reduct of a module."""
    if is_set(algebra):
        return SET
    if is_abelian(algebra):
        return MODULE
    return OTHER


def absorbing_elements(algebra: FiniteAlgebra, cap: int = TERM_SEARCH_CAP
                       ) -> tuple[list[int], int]:
    """Elements a such that every term operation (up to the reported arity,
    at most 3) depending on a variable maps a there to a, whatever the
    companions.

    Returns (elements, arity_reached): the search walks arities upward and
    stops early when the term enumeration exceeds the cap, so the result is
    'absorbing up to arity_reached'."""
    n = algebra.size
    candidates = set(range(n))
    reached = 0
    for arity in (1, 2, 3):
        try:
            tops = term_operations(algebra, arity, cap)
        except CapExceededError:
            break
        reached = arity
        stack = np.array([t for t, _ in tops], np.uint8).reshape((len(tops),) + (n,) * arity)
        for pos in range(arity):
            # [operation, a, fill]: the values with a at pos, over every fill of the rest
            rows = np.moveaxis(stack, pos + 1, 1).reshape(len(tops), n, -1)
            depends = (rows != rows[:, :1]).any(axis=(1, 2))
            candidates &= set(np.flatnonzero(
                (rows[depends] == np.arange(n)[:, None]).all(axis=(0, 2))).tolist())
        if not candidates:
            return [], reached
    return sorted(candidates), reached
