"""Finite idempotent algebras: operation tables and the basic constructions.

Elements are always the dense integers 0..n-1; optional labels are
presentation-only.  Operation tables are flat, row-major, radix-n: the value
of f(a_1,...,a_r) sits at index ((a_1*n + a_2)*n + ...)*n + a_r.  Every
algebra is validated on construction, idempotency included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence, TypeVar

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


def table_index(args: Sequence[int], size: int) -> int:
    idx = 0
    for a in args:
        idx = idx * size + a
    return idx


def index_args(idx: int, size: int, arity: int) -> tuple[int, ...]:
    args = [0] * arity
    for pos in range(arity - 1, -1, -1):
        args[pos] = idx % size
        idx //= size
    return tuple(args)


@dataclass(frozen=True)
class OperationTable:
    """A finitary operation on 0..size-1 given by its flat table."""

    name: str
    arity: int
    table: tuple[int, ...]

    def apply(self, args: Sequence[int], size: int) -> int:
        return self.table[table_index(args, size)]

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
        for v in self.table:
            if not 0 <= v < size:
                raise EntryOutOfRange(self.name, v, size)
        for x in range(size):
            v = self.apply((x,) * self.arity, size)
            if v != x:
                raise NonIdempotent(self.name, x, v)

    def is_projection(self, size: int) -> Optional[int]:
        """Return the coordinate this operation projects onto, or None."""
        for pos in range(self.arity):
            if all(self.table[i] == index_args(i, size, self.arity)[pos]
                   for i in range(len(self.table))):
                return pos
        return None


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
        op_b = b.by_name[sig[op_a.name]]
        r = op_a.arity
        table = []
        for args in product(range(size), repeat=r):
            xs = tuple(v // b.size for v in args)
            ys = tuple(v % b.size for v in args)
            table.append(op_a.apply(xs, a.size) * b.size + op_b.apply(ys, b.size))
        ops.append(OperationTable(op_a.name, r, tuple(table)))
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
    nblocks = len(blocks)
    reps = [blk[0] for blk in blocks]
    ops = []
    for op in a.operations:
        r = op.arity
        table = []
        for bargs in product(range(nblocks), repeat=r):
            rep_val = op.apply([reps[bi] for bi in bargs], a.size)
            table.append(block_of[rep_val])
        # compatibility: every choice of representatives lands in the same block
        for args in product(range(a.size), repeat=r):
            v = op.apply(args, a.size)
            bargs = tuple(block_of[x] for x in args)
            expected = table[table_index(bargs, nblocks)]
            if block_of[v] != expected:
                witness = tuple(reps[bi] for bi in bargs)
                raise NotACongruence(op.name, args, witness, v,
                                     op.apply(witness, a.size))
        ops.append(OperationTable(op.name, r, tuple(table)))
    labels = None
    if a.labels is not None:
        labels = tuple("|".join(a.label(x) for x in sorted(blk)) for blk in blocks)
    qname = name or f"{a.name}/theta"
    return FiniteAlgebra(qname, nblocks, tuple(ops), labels), tuple(block_of)


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
    back = {x: i for i, x in enumerate(emb)}
    ops = []
    for op in a.operations:
        table = []
        for args in product(emb, repeat=op.arity):
            v = op.apply(args, a.size)
            if v not in back:
                raise NotClosed(op.name, args, v)
            table.append(back[v])
        ops.append(OperationTable(op.name, op.arity, tuple(table)))
    labels = tuple(a.label(x) for x in emb) if a.labels is not None else None
    rname = name or f"{a.name}|{{{','.join(str(x) for x in emb)}}}"
    return FiniteAlgebra(rname, len(emb), tuple(ops), labels), emb


def is_set(a: FiniteAlgebra) -> bool:
    """True iff every basic operation is a projection.  Compositions of
    projections are projections, so this decides whether every term
    operation is one."""
    return all(op.is_projection(a.size) is not None for op in a.operations)


def is_closed_subset(a: FiniteAlgebra, subset: Iterable[int]) -> bool:
    sub = set(subset)
    for op in a.operations:
        for args in product(sorted(sub), repeat=op.arity):
            if op.apply(args, a.size) not in sub:
                return False
    return True


def find_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra,
                     max_size: int = 8) -> Optional[tuple[int, ...]]:
    """Brute-force isomorphism search (backtracking over bijections).

    Intended for tests at desk scale; returns the image tuple or None."""
    if a.size != b.size or a.size > max_size:
        return None
    try:
        sig = signature_map(a, b)
    except SignatureMismatch:
        return None
    n = a.size
    image: list[Optional[int]] = [None] * n
    used = [False] * n

    def ok_so_far() -> bool:
        for op in a.operations:
            opb = b.by_name[sig[op.name]]
            for args in product(range(n), repeat=op.arity):
                if any(image[x] is None for x in args):
                    continue
                v = op.apply(args, n)
                if image[v] is None:
                    continue
                if opb.apply([image[x] for x in args], n) != image[v]:
                    return False
        return True

    def assign(x: int) -> bool:
        if x == n:
            return True
        for y in range(n):
            if used[y]:
                continue
            image[x] = y
            used[y] = True
            if ok_so_far() and assign(x + 1):
                return True
            image[x] = None
            used[y] = False
        return False

    if assign(0):
        return tuple(image)  # type: ignore[arg-type]
    return None


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
                r = arities[nm]
                table = tuple(index_args(i, alg.size, r)[0]
                              for i in range(alg.size ** r))
                ops.append(OperationTable(nm, r, table))
        out.append(alg if tuple(ops) == alg.operations else
                   FiniteAlgebra(alg.name, alg.size, tuple(ops), alg.labels))
    return out
