"""Finite idempotent algebras: operation tables and the basic constructions.

Elements are always the dense integers 0..n-1; optional labels are
presentation-only.  An algebra holds the tables of its operations of each
arity as one read-only numpy array (`FiniteAlgebra.stacks`), which
restrict, quotient, product, generation, the translations and the
idempotency check index once per arity.  Each operation's `array`, of
shape (n,)*r with f(a_1,...,a_r) at array[a_1, ..., a_r], is the view of
its slice; its flat `table` is derived only when read.  An algebra built
from outside data is checked on construction, idempotency included; the
children of `restrict`, `quotient` and `product_algebra` (and a bounded
reduct) are not: `from_stacks` assembles them from their stacks.

Rows over range(base) (closure rows, signatures, map slices, translations)
are deduplicated by one exact integer key kept here, `row_keys`: numbered
as they come by `KeyIndex`, or all at once by `distinct_rows`.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Integral
from typing import (Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Optional,
                    Sequence, TypeVar)

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

#: most arguments of an operation: numpy 1 arrays have at most 32 axes
MAX_ARITY = 32

#: widest key space a `KeyIndex` holds in dense slot arrays: a tuple closure's
#: rows (base**k keys) and signatures (len(maps)**k keys, summed from weighted
#: map ids), see generate.TupleClosure
DENSE = 1 << 18

#: entries of the largest numpy temporary of one batch (`batch_len`) in tuple
#: closures, `generate.check_absent` and congruence images.  Small, so that the
#: temporaries stay in cache and mostly in the heap: glibc maps a block of 128 KB
#: or more (its initial mmap threshold) afresh, and each page of it faults on
#: first touch.  2**14 was the fastest on the benchmark's closures: a pass of
#: subpower-random took about 20% longer at 2**19 and 5% longer at 2**13
BATCH = 1 << 14

T = TypeVar("T")

#: operation names that would collide with the term syntax
RESERVED_NAMES = {"pow", "comp"}

#: an operation name's characters: \w is str.isalnum or "_"
_NAME = re.compile(r"\w+")


class OperationTable:
    """A finitary operation on 0..n-1 with its read-only (n,)*arity `array`,
    in an algebra the view of its slice of a stack.  A flat table given from
    outside is checked by the algebra it joins.  Equal by name, arity and
    entries."""

    def __init__(self, name: str, arity: int, table: Iterable[int]):
        self.name, self.arity = name, arity
        self.__dict__["table"] = tuple(table)

    @classmethod
    def from_array(cls, name: str, array: np.ndarray) -> "OperationTable":
        """The operation of a valid (n,)*r intp array, made read-only, not copied."""
        op = cls.__new__(cls)
        op.name, op.arity, op.array = name, array.ndim, array
        array.setflags(write=False)
        return op

    @cached_property
    def table(self) -> tuple[int, ...]:
        """The flat table, row-major: f(a_1,...,a_r) at ((a_1*n + a_2)*n + ...)*n + a_r."""
        return tuple(self.array.ravel().tolist())

    @cached_property
    def array(self) -> np.ndarray:
        """The table as a read-only (n,)*arity array: f(a-bar) = array[a-bar]."""
        flat = np.array(self.table, dtype=np.intp)
        arr = flat.reshape((round(len(flat) ** (1 / self.arity)),) * self.arity)
        arr.setflags(write=False)
        return arr

    def __eq__(self, other) -> bool:
        return isinstance(other, OperationTable) and \
            (self.name, self.arity, self.table) == (other.name, other.arity, other.table)

    def __hash__(self) -> int:
        return hash((self.name, self.arity, self.table))


def _check_operation(op: OperationTable, size: int) -> None:
    """The checks of one operation on its own; its algebra checks idempotency."""
    if not op.name or op.name in RESERVED_NAMES or op.name[0].isdigit() \
            or op.name.startswith("p") and op.name[1:].isdigit() \
            or not _NAME.fullmatch(op.name):
        raise ValidationError(f"bad operation name {op.name!r}")
    table = op.table
    expected = table_length(op.name, size, op.arity)
    if len(table) != expected:
        raise BadTableLength(op.name, expected, len(table))
    if not all(issubclass(t, Integral) for t in set(map(type, table))):
        bad = next(x for x in table if not isinstance(x, Integral))
        raise ValidationError(f"operation {op.name!r}: entry {bad!r} is not an integer")
    # before the stack: numpy cannot hold an entry beyond 64 bits
    if not 0 <= min(table) <= max(table) < size:
        raise EntryOutOfRange(op.name, next(x for x in table if not 0 <= x < size), size)


def table_length(name: str, size: int, arity: int) -> int:
    """size ** arity, the table length of operation `name`, once its arity
    is known to be an integer (a numpy one too) in 1..MAX_ARITY: the power
    of a fractional or negative arity is a float, and that of a huge one
    runs without bound."""
    if type(arity) is not int and not isinstance(arity, Integral):
        raise ValidationError(f"operation {name!r}: arity {arity!r} is not an integer")
    if not 1 <= arity <= MAX_ARITY:
        raise ValidationError(f"operation {name!r}: arity {arity} not in range 1..{MAX_ARITY}")
    return size ** arity


def check_count(what: str, value) -> None:
    """ValidationError unless value is an integer (a numpy one too) of at
    least 1, as a cap or a size bound must be."""
    if not isinstance(value, Integral) or value < 1:
        raise ValidationError(f"{what} {value!r} is not an integer of at least 1")


def batch_len(item_entries: int) -> int:
    """How many items of the given number of entries one batch holds: at least one."""
    return max(1, BATCH // max(1, item_entries))


@lru_cache(maxsize=None)
def coordinate(size: int, arity: int, pos: int) -> np.ndarray:
    """The read-only (size,)*arity array of the pos-th projection: one
    broadcast view per (size, arity, pos), shared by every caller."""
    shape = [1] * arity
    shape[pos] = size
    return np.broadcast_to(np.arange(size).reshape(shape), (size,) * arity)


class Stack(NamedTuple):
    """The operations of one arity: their declaration positions, ascending,
    and their arrays stacked in that order, read-only, of shape
    (len(positions),) + (n,)*arity."""

    positions: tuple[int, ...]
    array: np.ndarray


def _stack_tables(operations: Sequence[OperationTable], size: int) -> dict[int, Stack]:
    """One Stack per arity, by arity in order of first declaration, from
    the checked tables.  An operation gets the view of its slice unless it
    has an `array`, and its `table` is derived from that again when read."""
    groups: dict[int, list[int]] = {}
    for pos, op in enumerate(operations):
        groups.setdefault(op.arity, []).append(pos)
    stacks = {}
    for arity, positions in groups.items():
        array = np.array([operations[pos].table for pos in positions], dtype=np.intp)
        array = array.reshape((len(positions),) + (size,) * arity)
        array.setflags(write=False)
        for pos, view in zip(positions, array):
            operations[pos].__dict__.setdefault("array", view)
            operations[pos].__dict__.pop("table", None)
        stacks[arity] = Stack(tuple(positions), array)
    return stacks


def _first_failure(stacks: Mapping[int, Stack], masks: Mapping[int, np.ndarray]
                   ) -> Optional[tuple[int, tuple[int, ...]]]:
    """The declaration position of the first operation whose slice of the
    bool mask of its arity (stacked like `stacks`) holds a True, and the
    lexicographically first index of that slice where it does; None if
    no mask holds a True."""
    found = []
    for arity, mask in masks.items():
        rows = mask.any(axis=tuple(range(1, mask.ndim)))
        if rows.any():
            row = int(rows.argmax())
            found.append((stacks[arity].positions[row], arity, row))
    if not found:
        return None
    pos, arity, row = min(found)
    return pos, first_index(masks[arity][row])


def _check_idempotent(operations: Sequence[OperationTable], stacks: Mapping[int, Stack],
                      size: int) -> None:
    """NonIdempotent for the first operation in declaration order with
    f(x, ..., x) != x, at the least such x."""
    diagonal = np.arange(size)
    failure = _first_failure(stacks, {
        arity: stack.array[(slice(None),) + (diagonal,) * arity] != diagonal
        for arity, stack in stacks.items()})
    if failure is not None:
        pos, (x,) = failure
        op = operations[pos]
        raise NonIdempotent(op.name, x, int(op.array[(x,) * op.arity]))


def grid(stack: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """A stacked array at every tuple over coords: stack[:, coords, ..., coords]."""
    for axis in range(1, stack.ndim):
        stack = stack.take(coords, axis=axis)
    return stack


def first_index(mask: np.ndarray) -> tuple[int, ...]:
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
        check_count("universe size", self.size)
        if not self.operations:
            raise ValidationError("algebra must have at least one operation")
        seen = set()
        for count, op in enumerate(self.operations):
            try:
                if op.name in seen:
                    raise DuplicateOpName(op.name)
                seen.add(op.name)
                _check_operation(op, self.size)
            except Exception:
                # an operation declared before this one fails first
                _check_idempotent(self.operations,
                                  _stack_tables(self.operations[:count], self.size), self.size)
                raise
        _check_idempotent(self.operations, self.stacks, self.size)
        if self.labels is not None and not len(self.labels) == len(set(self.labels)) == self.size:
            raise ValidationError("labels must be distinct, one per element")

    @cached_property
    def by_name(self) -> Mapping[str, OperationTable]:
        return {op.name: op for op in self.operations}

    @cached_property
    def signature(self) -> tuple[tuple[str, int], ...]:
        return tuple((op.name, op.arity) for op in self.operations)

    @cached_property
    def stacks(self) -> Mapping[int, Stack]:
        """The operations of each arity as one read-only `Stack`, by arity
        in order of first declaration; every bulk computation over all
        operations indexes these, one array per arity."""
        return _stack_tables(self.operations, self.size)

    @cached_property
    def tables_key(self) -> tuple:
        """The tables as one hashable value, kept on the object: each
        stack's positions, shape and bytes.  Two algebras of one size and
        signature have equal keys exactly when their tables are equal."""
        return tuple((s.positions, s.array.shape, s.array.tobytes())
                     for s in self.stacks.values())

    @cached_property
    def _memo(self) -> dict:
        return {}

    def memoized(self, key: Hashable, compute: Callable[[], T]) -> T:
        """compute(), run once per key for this object, so a result lives
        and dies with the object, and two equal algebras never share one.
        Exhaustive analyses go through `analysis`.  The memos kept here
        directly need no size check: the `restrict` and `quotient`
        children, "closure maps", "closure layout", "translations" and
        "subuniverse", and the realized table of each term node, which
        `terms.realize_table` keeps under the node itself, each cost time
        polynomial in the tables, where an analysis enumerates
        congruences, subuniverses or pairs.  The children, "translations"
        and "subuniverse" are computed on `stacks`, one gather per arity; a
        child's stacks are the arrays computed for it, its only storage.
        Pair searches are shared by content within one request instead
        (`request_scope`), and re-checked at each reuse."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def analysis(self, key: tuple, compute: Callable[[], T]) -> T:
        """`memoized` under the key and the request's cap, after checking
        the request's size limit on every call, hit or miss: a result cached
        under looser limits is never returned under tighter ones."""
        current_limits().check(self)
        return self.memoized((*key, current_limits().cap), compute)

    def op(self, name: str) -> OperationTable:
        return self.by_name[name]

    def apply(self, name: str, args: Sequence[int]) -> int:
        """f(args) for the operation named f: the one scalar lookup."""
        return int(self.by_name[name].array[tuple(args)])

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)

    def elements(self) -> range:
        return range(self.size)

    def check_elements(self, elements: Iterable[int]) -> None:
        """ValidationError unless every element is in 0..size-1: a negative
        index would wrap around the tables, a large one escape them."""
        for x in elements:
            if not 0 <= x < self.size:
                raise ValidationError(f"element {x} is not in 0..{self.size - 1}")

    def __repr__(self) -> str:
        ops = ", ".join(f"{o.name}/{o.arity}" for o in self.operations)
        return f"FiniteAlgebra({self.name!r}, size={self.size}, ops=[{ops}])"


@dataclass(frozen=True)
class Limits:
    """The limits of one request: `cap` bounds every closure, `max_size`
    the universe of every exhaustive analysis (None: unbounded).  The
    request holds them (`request_scope`), so every analysis reads the same
    value (`current_limits`) on every subalgebra and quotient it derives."""

    cap: int = DEFAULT_CAP
    max_size: Optional[int] = MAX_ANALYSIS_SIZE

    def __post_init__(self) -> None:
        check_count("cap", self.cap)
        if self.max_size is not None:
            check_count("max_size", self.max_size)

    def check(self, algebra: FiniteAlgebra) -> None:
        if self.max_size is not None and algebra.size > self.max_size:
            raise TooLarge(algebra.size, self.max_size)


DEFAULT_LIMITS = Limits()

#: the active request's limits and pair-search cache; outside any request,
#: the default limits and no cache
_REQUEST: ContextVar[tuple[Limits, Optional[dict]]] = ContextVar(
    "request", default=(DEFAULT_LIMITS, None))


@contextmanager
def request_scope(limits: Optional[Limits] = None) -> Iterator[dict]:
    """One request: the analyses run inside read its limits
    (`current_limits`) and share `generate.find_pair_witness` answers by
    content until the outermost scope exits, so that no cache outlives its
    request.  Outside any scope it opens a request with `limits` (default
    DEFAULT_LIMITS); an inner scope uses the outer one's cache and, given
    limits, applies them until it exits.  Yields the cache: `search_key` ->
    (answer, whether an Absent answer has passed `check_absent`)."""
    outer_limits, cache = _REQUEST.get()
    cache = {} if cache is None else cache
    token = _REQUEST.set((limits or outer_limits, cache))
    try:
        yield cache
    finally:
        _REQUEST.reset(token)


def current_limits() -> Limits:
    """The limits of the active request; DEFAULT_LIMITS outside any."""
    return _REQUEST.get()[0]


def request_cache() -> Optional[dict]:
    """The pair-search cache of the active request; None outside any."""
    return _REQUEST.get()[1]


def validate_algebra(name: str,
                     size: int,
                     operations: Iterable[tuple[str, int, Sequence[int]]],
                     labels: Optional[Sequence[str]] = None) -> FiniteAlgebra:
    """Build a FiniteAlgebra from raw data, raising a typed diagnostic on
    any defect (table length, range, idempotency, duplicate names)."""
    ops = tuple(OperationTable(n, a, t) for n, a, t in operations)
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


def from_stacks(name: str, size: int, names: Sequence[str], stacks: Mapping[int, Stack],
                labels: Optional[tuple[str, ...]]) -> FiniteAlgebra:
    """The algebra whose operation at declaration position pos is named
    names[pos] and has the table at its row of the stack of its arity;
    each stack's array is made read-only and becomes the only storage of
    its tables, each `op.array` the view of one slice.  Only the labels are
    checked, since derived ones may collide: the caller vouches for the
    rest, as `_derived` and `reduct.bounded_reduct` do (names from a checked
    algebra, tables in range and idempotent by construction)."""
    ops: list = [None] * len(names)
    for positions, array in stacks.values():
        array.setflags(write=False)
        for pos, view in zip(positions, array):
            ops[pos] = OperationTable.from_array(names[pos], view)
    if labels is not None and len(set(labels)) != size:
        raise ValidationError("labels must be distinct, one per element")
    algebra = object.__new__(FiniteAlgebra)
    algebra.__dict__.update(name=name, size=size, operations=tuple(ops), labels=labels,
                            stacks=dict(stacks))
    return algebra


def _derived(a: FiniteAlgebra, name: str, size: int, arrays: Mapping[int, np.ndarray],
             labels: Optional[tuple[str, ...]]) -> FiniteAlgebra:
    """The algebra with the operations of `a`, whose tables of each arity
    are the fresh array of that arity, stacked like `a.stacks`
    (`from_stacks`)."""
    return from_stacks(name, size, [op.name for op in a.operations],
                       {arity: Stack(a.stacks[arity].positions, array)
                        for arity, array in arrays.items()}, labels)


def product_algebra(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Direct product; pair (x, y) is encoded as x*|B| + y."""
    signature_map(a, b)
    size = a.size * b.size
    arrays = {}
    for arity, (positions, xs) in a.stacks.items():
        other = b.stacks[arity]
        row = {b.operations[pos].name: i for i, pos in enumerate(other.positions)}
        ys = other.array[[row[a.operations[pos].name] for pos in positions]]
        # axes x_1, y_1, ..., x_r, y_r after the operation's; merging each
        # (x_i, y_i) encodes the pair
        m = len(positions)
        arrays[arity] = (xs.reshape((m,) + (a.size, 1) * arity) * b.size
                         + ys.reshape((m,) + (1, b.size) * arity)).reshape((m,) + (size,) * arity)
    labels = None
    if a.labels is not None or b.labels is not None:
        labels = tuple(f"({a.label(x)},{b.label(y)})"
                       for x in range(a.size) for y in range(b.size))
    return _derived(a, f"{a.name}x{b.name}", size, arrays, labels)


def quotient(a: FiniteAlgebra, blocks: Sequence[Sequence[int]]
             ) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Factor algebra modulo the partition given as blocks.

    Raises ValidationError, before any table is built, on an empty block, an
    element listed twice or one left out.  Verifies compatibility (raising
    NotACongruence with a witnessing pair of tuples otherwise) and returns
    the quotient together with the element -> block index map.  The child
    is memoized on `a` by the blocks only, so repeated calls return the
    same object with its own analyses."""
    blocks = tuple(tuple(blk) for blk in blocks)
    return a.memoized(("quotient", blocks), lambda: _quotient(a, blocks))


def _quotient(a: FiniteAlgebra, blocks: tuple[tuple[int, ...], ...]
              ) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    a.check_elements(x for blk in blocks for x in blk)
    block_of = [-1] * a.size
    for bi, blk in enumerate(blocks):
        if not blk:
            raise ValidationError(f"blocks are not a partition: block {bi} is empty")
        for x in blk:
            if block_of[x] >= 0:
                raise ValidationError(f"blocks are not a partition: element {x} appears twice")
            block_of[x] = bi
    if any(v < 0 for v in block_of):
        raise ValidationError("blocks do not cover the universe")
    block = np.array(block_of)
    reps = np.array([blk[0] for blk in blocks])
    arrays = {arity: block[grid(stack.array, reps)] for arity, stack in a.stacks.items()}
    # compatibility: every choice of representatives lands in the same block
    clash = _first_failure(a.stacks, {arity: block[stack.array] != grid(arrays[arity], block)
                                      for arity, stack in a.stacks.items()})
    if clash is not None:
        pos, args = clash
        op = a.operations[pos]
        witness = tuple(blocks[block_of[x]][0] for x in args)
        raise NotACongruence(op.name, args, witness, int(op.array[args]), int(op.array[witness]))
    labels = None
    if a.labels is not None:
        labels = tuple("|".join(a.label(x) for x in sorted(blk)) for blk in blocks)
    return _derived(a, f"{a.name}/theta", len(blocks), arrays, labels), tuple(block_of)


def restrict(a: FiniteAlgebra, subset: Iterable[int]) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Subalgebra on a closed subset, with re-indexed tables.

    Returns (algebra, embedding) where embedding[i] is the element of `a`
    that the new element i stands for.  Raises NotClosed with the escaping
    application otherwise.  Memoized on `a` like `quotient`, by the subset
    only."""
    emb = tuple(sorted(set(subset)))
    return a.memoized(("restrict", emb), lambda: _restrict(a, emb))


def _restrict(a: FiniteAlgebra, emb: tuple[int, ...]) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    a.check_elements(emb)
    arrays = {arity: reindexed(stack.array, emb, a.size) for arity, stack in a.stacks.items()}
    escape = _first_failure(a.stacks, {arity: array < 0 for arity, array in arrays.items()})
    if escape is not None:
        pos, index = escape
        args = tuple(emb[i] for i in index)
        op = a.operations[pos]
        raise NotClosed(op.name, args, int(op.array[args]))
    labels = tuple(a.label(x) for x in emb) if a.labels is not None else None
    rname = f"{a.name}|{{{','.join(str(x) for x in emb)}}}"
    return _derived(a, rname, len(emb), arrays, labels), emb


def reindexed(stack: np.ndarray, emb: Sequence[int], size: int) -> np.ndarray:
    """A stacked array on emb^arity, each value replaced by its position in
    emb, or by -1 where it escapes emb."""
    emb = np.array(emb, dtype=np.intp)
    back = np.full(size, -1)
    back[emb] = np.arange(len(emb))
    return back[grid(stack, emb)]


def projection_index(stack: np.ndarray) -> np.ndarray:
    """For each operation of a stacked array, the least coordinate it
    projects onto, -1 where it is no projection."""
    m, arity = len(stack), stack.ndim - 1
    index = np.full(m, -1)
    for pos in reversed(range(arity)):
        index[(stack == coordinate(stack.shape[-1], arity, pos)).reshape(m, -1).all(axis=1)] = pos
    return index


def is_set(a: FiniteAlgebra) -> bool:
    """True iff every basic operation is a projection.  Compositions of
    projections are projections, so this decides whether every term
    operation is one."""
    return all((projection_index(stack.array) >= 0).all() for stack in a.stacks.values())


def is_closed_subset(a: FiniteAlgebra, subset: Iterable[int]) -> bool:
    sub = sorted(set(subset))
    a.check_elements(sub)
    return all((reindexed(stack.array, sub, a.size) >= 0).all() for stack in a.stacks.values())


def align_signatures(algebras: Sequence[FiniteAlgebra]) -> list[FiniteAlgebra]:
    """Make a class of algebras similar by padding each with the operation
    symbols it lacks, interpreted as first projections.

    Adding projections changes no term operations, so edges, congruences and
    every other derived notion are unaffected.  A member that lacks nothing
    is returned as it is, memoized analyses included.  Name clashes with
    differing arities are rejected."""
    arities: dict[str, int] = {}    # in order of first declaration
    for alg in algebras:
        for nm, ar in alg.signature:
            if arities.setdefault(nm, ar) != ar:
                raise SignatureMismatch(
                    f"operation {nm!r} used with arities {arities[nm]} and {ar}")
    out = []
    for alg in algebras:
        ops = tuple(alg.by_name.get(nm)
                    or OperationTable.from_array(nm, coordinate(alg.size, ar, 0))
                    for nm, ar in arities.items())
        out.append(alg if ops == alg.operations else
                   FiniteAlgebra(alg.name, alg.size, ops, alg.labels))
    return out


@lru_cache(maxsize=None)
def key_layout(base: int, k: int) -> tuple[np.ndarray, int]:
    """The exact key of k digits in range(base): one limb per g columns, g
    the largest with base**g < 2**62 (k when all fit), column c weighted by
    base**(c mod g) in the narrowest of int16, int32, int64 that holds base**g."""
    g = next((g for g in range(1, k) if base ** (g + 1) >= 1 << 62), k)
    dtype = next(t for t in (np.int16, np.int32, np.int64) if base ** g <= np.iinfo(t).max)
    weights = base ** (np.arange(k) % g).astype(dtype)
    weights.flags.writeable = False   # one array per (base, k), shared by every caller
    return weights, g


def limb_keys(limbs: list[np.ndarray]) -> np.ndarray:
    """Exact keys from their limbs (`key_layout`): one limb is the key
    itself, as int64; several are viewed as one fixed-width void scalar,
    whose `.tolist()` gives its bytes."""
    if len(limbs) == 1:
        return limbs[0].astype(np.int64, copy=False)
    return np.stack(limbs, axis=1, dtype=np.int64).view(np.dtype((np.void, 8 * len(limbs))))[:, 0]


def row_keys(rows: np.ndarray, base: int) -> np.ndarray:
    """One exact, hashable key per row of a 2-d array whose entries lie in
    range(base); a single limb is the row as a base-`base` integer."""
    weights, g = key_layout(base, rows.shape[1])
    return limb_keys([rows[:, c:c + g] @ weights[c:c + g] for c in range(0, len(weights), g)])


class KeyIndex:
    """Ids 0, 1, ... of distinct exact keys (`row_keys`), in the order they
    are added: a dense int32 slot per key (id + 1, 0 for absent) when the
    key space has at most `DENSE` keys, so no batch is sorted, else a dict."""

    def __init__(self, space: int):
        self.n, self._dense = 0, space <= DENSE
        self._ids = np.zeros(space, np.int32) if self._dense else {}

    def get(self, keys: np.ndarray) -> np.ndarray:
        """The id of each key, -1 where it is absent."""
        if self._dense:
            return self._ids[keys] - 1
        return np.array([self._ids.get(key, -1) for key in keys.tolist()], dtype=np.intp)

    def absent(self, keys: np.ndarray) -> np.ndarray:
        """Batch positions of the keys that have no id, ascending."""
        if self._dense:
            return (self._ids[keys] == 0).nonzero()[0]
        return np.flatnonzero([key not in self._ids for key in keys.tolist()])

    def firsts(self, keys: np.ndarray) -> np.ndarray:
        """Batch positions of the first occurrence of each distinct key, in
        batch order."""
        if not self._dense:
            return np.sort(np.unique(keys, return_index=True)[1])
        saved = self._ids[keys]
        first = self._claim(keys)
        self._ids[keys[first]] = saved[first]
        return first

    def number(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`firsts`, the id of the key at each, and which of those keys were
        absent: they get the next ids, in batch order."""
        if not self._dense:
            first = self.firsts(keys)
            ids = self.get(keys[first])
            new = ids < 0
            ids[new] = np.arange(self.n, self.n + np.count_nonzero(new))
            self.add(keys[first[new]])
            return first, ids, new
        saved = self._ids[keys]
        first = self._claim(keys)
        saved = saved[first]
        new = saved == 0
        count = int(np.count_nonzero(new))
        saved[new] = np.arange(self.n + 1, self.n + 1 + count, dtype=np.int32)
        self._ids[keys[first]] = saved
        self.n += count
        return first, saved - 1, new

    def add_firsts(self, keys: np.ndarray, limit: int) -> np.ndarray:
        """Give the first occurrences of absent keys, in batch order, the next
        ids, the first `limit` of them only; return their batch positions."""
        if not self._dense:
            first = self.firsts(keys)
        elif len(first := self._claim(keys)) > limit:
            self._ids[keys[first[limit:]]] = 0   # as they were: absent
        first = first[:limit]
        self.add(keys[first])
        return first

    def _claim(self, keys: np.ndarray) -> np.ndarray:
        """Dense: `firsts`.  While this runs the slots of the batch's keys
        hold the least position of their key, by `minimum.at` (numpy leaves
        open which of repeated fancy writes wins); the caller writes them
        again at the firsts."""
        slot, at = self._ids, np.arange(len(keys), dtype=np.int32)
        slot[keys] = len(keys)
        np.minimum.at(slot, keys, at)
        return (slot[keys] == at).nonzero()[0]

    def add(self, keys: np.ndarray) -> None:
        """Give distinct absent keys the next ids, in order."""
        if self._dense:
            self._ids[keys] = np.arange(self.n + 1, self.n + 1 + len(keys))
        else:
            self._ids.update(zip(keys.tolist(), range(self.n, self.n + len(keys))))
        self.n += len(keys)


def distinct_rows(rows: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """The position of the first occurrence of each distinct row of a 2-d
    array with entries in range(base), in order of their keys, and the
    index into those of every row."""
    _, first, inv = np.unique(row_keys(rows, base), return_index=True, return_inverse=True)
    return first, inv
