"""Finite idempotent algebras: operation tables and the basic constructions.

Elements are always the dense integers 0..n-1; optional labels are
presentation-only.  An operation's canonical value is its flat, hashable
`table` tuple, row-major and radix-n: f(a_1,...,a_r) sits at index
((a_1*n + a_2)*n + ...)*n + a_r.  Its one decoded view is `array`, a
read-only numpy array of shape (n,)*r, so that f(a_1,...,a_r) is
array[a_1, ..., a_r]; every bulk computation indexes it, and `apply` is the
scalar lookup.  Every algebra is validated on construction, idempotency
included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence, TypeVar

import numpy as np

from .errors import (
    BadTableLength,
    DuplicateOpName,
    EntryOutOfRange,
    NonIdempotent,
    NotACongruence,
    NotClosed,
    SignatureMismatch,
    TooLarge,
    ValidationError,
)

#: default bound on the universe size for the exhaustive analyses
MAX_ANALYSIS_SIZE = 10

#: default node cap for closures
DEFAULT_CAP = 1_000_000

T = TypeVar("T")

#: operation names that would collide with the term syntax
RESERVED_NAMES = {"pow", "comp"}


@dataclass(frozen=True)
class OperationTable:
    """A finitary operation on 0..size-1 given by its flat table."""

    name: str
    arity: int
    table: tuple[int, ...]

    @staticmethod
    def from_array(name: str, array: np.ndarray) -> "OperationTable":
        """The operation whose `array` is the given (n,)*r integer array."""
        arr = np.array(array, dtype=np.intp)
        op = OperationTable(name, arr.ndim, tuple(arr.ravel().tolist()))
        arr.setflags(write=False)
        op.__dict__["array"] = arr      # the cached view, derived already
        return op

    @cached_property
    def array(self) -> np.ndarray:
        """The table as a read-only (n,)*arity array: f(a-bar) = array[a-bar]."""
        flat = np.array(self.table, dtype=np.intp)
        arr = flat.reshape((round(len(flat) ** (1 / self.arity)),) * self.arity)
        arr.setflags(write=False)
        return arr

    def apply(self, args: Sequence[int], size: int) -> int:
        idx = 0
        for a in args:
            idx = idx * size + a
        return self.table[idx]

    def validate(self, size: int) -> None:
        if not self.name or self.name in RESERVED_NAMES or self.name[0].isdigit() \
                or self.name.startswith("p") and self.name[1:].isdigit() \
                or not all(c.isalnum() or c == "_" for c in self.name):
            raise ValidationError(f"bad operation name {self.name!r}")
        if self.arity < 1:
            raise ValidationError(f"operation {self.name!r}: arity must be >= 1")
        expected = size ** self.arity
        if len(self.table) != expected:
            raise BadTableLength(self.name, expected, len(self.table))
        out = (self.array < 0) | (self.array >= size)
        if out.any():
            raise EntryOutOfRange(self.name, int(self.array[_first(out)]), size)
        diagonal = self.array[(np.arange(size),) * self.arity]
        wrong = diagonal != np.arange(size)
        if wrong.any():
            x = int(np.argmax(wrong))
            raise NonIdempotent(self.name, x, int(diagonal[x]))

    def is_projection(self, size: int) -> Optional[int]:
        """Return the coordinate this operation projects onto, or None."""
        for pos in range(self.arity):
            if (self.array == coordinate(size, self.arity, pos)).all():
                return pos
        return None


def coordinate(size: int, arity: int, pos: int) -> np.ndarray:
    """The read-only (size,)*arity array of the pos-th projection."""
    shape = [1] * arity
    shape[pos] = size
    return np.broadcast_to(np.arange(size).reshape(shape), (size,) * arity)


def _grid(array: np.ndarray, coords: Sequence[int]) -> np.ndarray:
    """array at every tuple over coords: array[np.ix_(coords, ..., coords)]."""
    for axis in range(array.ndim):
        array = array.take(coords, axis=axis)
    return array


def _first(mask: np.ndarray) -> tuple[int, ...]:
    """The lexicographically first index where the bool array is True."""
    return tuple(np.argwhere(mask)[0].tolist())


@dataclass(frozen=True)
class FiniteAlgebra:
    """A finite idempotent algebra on the universe 0..size-1."""

    name: str
    size: int
    operations: tuple[OperationTable, ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValidationError("universe must be nonempty")
        if not self.operations:
            raise ValidationError("algebra must have at least one operation")
        seen = set()
        for op in self.operations:
            if op.name in seen:
                raise DuplicateOpName(op.name)
            seen.add(op.name)
            op.validate(self.size)
        if self.labels is not None:
            if len(self.labels) != self.size or len(set(self.labels)) != self.size:
                raise ValidationError("labels must be distinct, one per element")

    @cached_property
    def by_name(self) -> Mapping[str, OperationTable]:
        return {op.name: op for op in self.operations}

    @cached_property
    def signature(self) -> tuple[tuple[str, int], ...]:
        return tuple((op.name, op.arity) for op in self.operations)

    @cached_property
    def _memo(self) -> dict:
        return {}

    def memoized(self, key: Hashable, compute: Callable[[], T]) -> T:
        """compute(), run once per key for this object.  The analyses keep
        their results here, so a result lives and dies with the object, and
        two equal algebras never share one."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def op(self, name: str) -> OperationTable:
        return self.by_name[name]

    def apply(self, name: str, args: Sequence[int]) -> int:
        return self.by_name[name].apply(args, self.size)

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)

    def elements(self) -> range:
        return range(self.size)

    def __repr__(self) -> str:
        ops = ", ".join(f"{o.name}/{o.arity}" for o in self.operations)
        return f"FiniteAlgebra({self.name!r}, size={self.size}, ops=[{ops}])"


@dataclass(frozen=True)
class Limits:
    """The limits of one analysis: `cap` bounds every closure, `max_size`
    the universe of every exhaustive analysis (None: unbounded).  The same
    value flows into every subalgebra and quotient the analysis derives."""

    cap: int = DEFAULT_CAP
    max_size: Optional[int] = MAX_ANALYSIS_SIZE

    def check(self, algebra: FiniteAlgebra) -> None:
        if self.max_size is not None and algebra.size > self.max_size:
            raise TooLarge(algebra.size, self.max_size)


DEFAULT_LIMITS = Limits()


def validate_algebra(name: str,
                     size: int,
                     operations: Iterable[tuple[str, int, Sequence[int]]],
                     labels: Optional[Sequence[str]] = None) -> FiniteAlgebra:
    """Build a FiniteAlgebra from raw data, raising a typed diagnostic on
    any defect (table length, range, idempotency, duplicate names)."""
    ops = tuple(OperationTable(n, a, tuple(t)) for n, a, t in operations)
    return FiniteAlgebra(name, size, ops,
                         tuple(labels) if labels is not None else None)


def signature_map(a: FiniteAlgebra, b: FiniteAlgebra) -> dict[str, str]:
    """The name-correspondence between two similar algebras.

    Raises SignatureMismatch unless the operation names coincide with equal
    arities.  The returned map is the identity on names; it exists to make
    the similarity check explicit at call sites."""
    if set(a.by_name) != set(b.by_name):
        raise SignatureMismatch(
            f"{sorted(a.by_name)} vs {sorted(b.by_name)}")
    for nm, op in a.by_name.items():
        if b.by_name[nm].arity != op.arity:
            raise SignatureMismatch(f"operation {nm!r} has arity {op.arity} vs "
                                    f"{b.by_name[nm].arity}")
    return {nm: nm for nm in a.by_name}


def product_algebra(a: FiniteAlgebra, b: FiniteAlgebra,
                    sig: Optional[dict[str, str]] = None) -> FiniteAlgebra:
    """Direct product; pair (x, y) is encoded as x*|B| + y."""
    if sig is None:
        sig = signature_map(a, b)
    size = a.size * b.size
    ops = []
    for op_a in a.operations:
        r = op_a.arity
        # axes x_1, y_1, ..., x_r, y_r; merging each (x_i, y_i) encodes the pair
        xs = op_a.array.reshape((a.size, 1) * r)
        ys = b.by_name[sig[op_a.name]].array.reshape((1, b.size) * r)
        ops.append(OperationTable.from_array(
            op_a.name, (xs * b.size + ys).reshape((size,) * r)))
    labels = None
    if a.labels is not None or b.labels is not None:
        labels = tuple(f"({a.label(x)},{b.label(y)})"
                       for x in range(a.size) for y in range(b.size))
    return FiniteAlgebra(f"{a.name}x{b.name}", size, tuple(ops), labels)


def quotient(a: FiniteAlgebra, blocks: Sequence[Sequence[int]],
             name: Optional[str] = None) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Factor algebra modulo the partition given as blocks.

    Verifies compatibility (raising NotACongruence with a witnessing pair of
    tuples otherwise) and returns the quotient together with the
    element -> block index map.  The child is memoized on `a`, so repeated
    calls return the same object with its own analyses."""
    blocks = tuple(tuple(blk) for blk in blocks)
    return a.memoized(("quotient", blocks, name),
                      lambda: _quotient(a, blocks, name))


def _quotient(a: FiniteAlgebra, blocks: tuple[tuple[int, ...], ...],
              name: Optional[str]) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    block_of = [-1] * a.size
    for bi, blk in enumerate(blocks):
        for x in blk:
            block_of[x] = bi
    if any(v < 0 for v in block_of):
        raise ValidationError("blocks do not cover the universe")
    block = np.array(block_of)
    reps = [blk[0] for blk in blocks]
    ops = []
    for op in a.operations:
        table = block[_grid(op.array, reps)]
        # compatibility: every choice of representatives lands in the same block
        clash = block[op.array] != _grid(table, block)
        if clash.any():
            args = _first(clash)
            witness = tuple(reps[block_of[x]] for x in args)
            raise NotACongruence(op.name, args, witness, op.apply(args, a.size),
                                 op.apply(witness, a.size))
        ops.append(OperationTable.from_array(op.name, table))
    labels = None
    if a.labels is not None:
        labels = tuple("|".join(a.label(x) for x in sorted(blk)) for blk in blocks)
    qname = name or f"{a.name}/theta"
    return FiniteAlgebra(qname, len(blocks), tuple(ops), labels), tuple(block_of)


def restrict(a: FiniteAlgebra, subset: Iterable[int],
             name: Optional[str] = None) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Subalgebra on a closed subset, with re-indexed tables.

    Returns (algebra, embedding) where embedding[i] is the element of `a`
    that the new element i stands for.  Raises NotClosed with the escaping
    application otherwise.  Memoized on `a` like `quotient`."""
    emb = tuple(sorted(set(subset)))
    return a.memoized(("restrict", emb, name), lambda: _restrict(a, emb, name))


def _restrict(a: FiniteAlgebra, emb: tuple[int, ...],
              name: Optional[str]) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    ops = []
    for op in a.operations:
        table = _reindexed(op, emb, a.size)
        if (table < 0).any():
            args = tuple(emb[i] for i in _first(table < 0))
            raise NotClosed(op.name, args, op.apply(args, a.size))
        ops.append(OperationTable.from_array(op.name, table))
    labels = tuple(a.label(x) for x in emb) if a.labels is not None else None
    rname = name or f"{a.name}|{{{','.join(str(x) for x in emb)}}}"
    return FiniteAlgebra(rname, len(emb), tuple(ops), labels), emb


def _reindexed(op: OperationTable, emb: Sequence[int], size: int) -> np.ndarray:
    """op on emb^arity, each value replaced by its position in emb, or by -1
    where it escapes emb."""
    back = np.full(size, -1)
    back[list(emb)] = np.arange(len(emb))
    return back[_grid(op.array, emb)]


def preserves(op: OperationTable, subset: Iterable[int], size: int) -> bool:
    """Does op map every tuple over the subset into it?"""
    return bool((_reindexed(op, sorted(set(subset)), size) >= 0).all())


def is_set(a: FiniteAlgebra) -> bool:
    """True iff every basic operation is a projection.  Compositions of
    projections are projections, so this decides whether every term
    operation is one."""
    return all(op.is_projection(a.size) is not None for op in a.operations)


def is_closed_subset(a: FiniteAlgebra, subset: Iterable[int]) -> bool:
    sub = set(subset)
    return all(preserves(op, sub, a.size) for op in a.operations)


def align_signatures(algebras: Sequence[FiniteAlgebra]) -> list[FiniteAlgebra]:
    """Make a class of algebras similar by padding each with the operation
    symbols it lacks, interpreted as first projections.

    Adding projections changes no term operations, so edges, congruences and
    every other derived notion are unaffected.  A member that lacks nothing
    is returned as it is, memoized analyses included.  Name clashes with
    differing arities are rejected."""
    arities: dict[str, int] = {}
    order: list[str] = []
    for alg in algebras:
        for nm, ar in alg.signature:
            if nm in arities:
                if arities[nm] != ar:
                    raise SignatureMismatch(
                        f"operation {nm!r} used with arities {arities[nm]} and {ar}")
            else:
                arities[nm] = ar
                order.append(nm)
    out = []
    for alg in algebras:
        ops = []
        for nm in order:
            if nm in alg.by_name:
                ops.append(alg.by_name[nm])
            else:
                ops.append(OperationTable.from_array(
                    nm, coordinate(alg.size, arities[nm], 0)))
        out.append(alg if tuple(ops) == alg.operations else
                   FiniteAlgebra(alg.name, alg.size, tuple(ops), alg.labels))
    return out
