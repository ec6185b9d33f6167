"""Bounded-arity reducts: the term operations preserving the union of the
two witnessing blocks of a semilattice or majority edge.

The true reduct quantifies over term operations of every arity; here the
arity is capped (default 3) and every report is labelled with the bound.
Term operations are enumerated as the closure of the projections inside
A^(A^k); a cap hit is an error, never a silent approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import DEFAULT_LIMITS, FiniteAlgebra, Limits, OperationTable, preserves
from .edges import (
    MAJORITY,
    SEMILATTICE,
    EdgeWitness,
    StructureGraph,
    structure_graph,
)
from .errors import PreconditionViolated
from .generate import term_operations
from .terms import Term

DEFAULT_MAX_ARITY = 3


@dataclass(frozen=True)
class BoundedReduct:
    """All term operations of arity <= max_arity preserving the block union
    R_ab, together with their witness terms, packaged as a derived algebra
    on the same universe."""

    base: FiniteAlgebra
    pair: tuple[int, int]
    r_ab: tuple[int, ...]
    max_arity: int
    operations: tuple[tuple[OperationTable, Term], ...]

    @cached_property
    def algebra(self) -> FiniteAlgebra:
        return FiniteAlgebra(f"{self.base.name}|reduct{self.pair}",
                             self.base.size,
                             tuple(op for op, _ in self.operations),
                             self.base.labels)

    def describe(self) -> str:
        return (f"reduct of {self.base.name} at {self.pair}, arity <= "
                f"{self.max_arity}: {len(self.operations)} operations "
                f"preserving {{{','.join(map(str, self.r_ab))}}}")


def bounded_reduct(algebra: FiniteAlgebra, witness: EdgeWitness,
                   max_arity: int = DEFAULT_MAX_ARITY,
                   limits: Limits = DEFAULT_LIMITS) -> BoundedReduct:
    """Enumerate the arity-bounded term operations preserving the union of
    the witnessing blocks.  The witness must be of the semilattice or
    majority type."""
    if witness.label not in (SEMILATTICE, MAJORITY):
        raise PreconditionViolated(
            f"reducts are taken at semilattice or majority edges, got "
            f"{witness.label}")
    r_ab = frozenset(witness.parent_block(witness.a_block)
                     + witness.parent_block(witness.b_block))
    ops: list[tuple[OperationTable, Term]] = []
    n = algebra.size
    for arity in range(1, max_arity + 1):
        for table, term in term_operations(algebra, arity, limits.cap):
            op = OperationTable(f"t{len(ops)}", arity, table)
            if preserves(op, r_ab, n):
                ops.append((op, term))
    return BoundedReduct(algebra, witness.pair, tuple(sorted(r_ab)),
                         max_arity, tuple(ops))


@dataclass(frozen=True)
class ReductEdgeDiff:
    """Pair classification on the reduct against the base algebra.  At a
    bounded arity this is evidence, not proof."""

    reduct: BoundedReduct
    base_graph: StructureGraph
    reduct_graph: StructureGraph

    def changed_pairs(self) -> list[tuple[tuple[int, int], frozenset, frozenset]]:
        out = []
        for rep in self.base_graph.reports:
            new = self.reduct_graph.report(*rep.pair)
            if rep.labels != new.labels:
                out.append((rep.pair, rep.labels, new.labels))
        return out

    def new_unary_pairs(self) -> list[tuple[int, int]]:
        return [pair for pair, old, new in self.changed_pairs()
                if "unary" in new and "unary" not in old]

    def new_affine_pairs(self) -> list[tuple[int, int]]:
        return [pair for pair, old, new in self.changed_pairs()
                if "affine" in new and "affine" not in old]


def reduct_edge_report(reduct: BoundedReduct,
                       limits: Limits = DEFAULT_LIMITS) -> ReductEdgeDiff:
    """Classify every pair of the reduct (its stored operations acting as
    basic) and diff against the base algebra's classification."""
    return ReductEdgeDiff(reduct, structure_graph(reduct.base, limits),
                          structure_graph(reduct.algebra, limits))
