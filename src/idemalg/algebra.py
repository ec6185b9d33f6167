"""Finite idempotent algebras: operation tables and the basic constructions.

Elements are always the dense integers 0..n-1; optional labels are
presentation-only.  An operation's canonical value is its flat, hashable
`table` tuple, row-major and radix-n: f(a_1,...,a_r) sits at index
((a_1*n + a_2)*n + ...)*n + a_r.  Its one decoded view is `array`, a
read-only numpy array of shape (n,)*r, so that f(a_1,...,a_r) is
array[a_1, ..., a_r]; every bulk computation indexes it, and `apply` is the
scalar lookup.  Every algebra is validated on construction, idempotency
included.

Rows over range(base) (closure rows, signatures, map slices, translations)
are deduplicated by one exact integer key kept here, `row_keys`: numbered
as they come by `KeyIndex`, or all at once by `distinct_rows`.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Integral
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

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
        expected = table_length(self.name, size, self.arity)
        if len(self.table) != expected:
            raise BadTableLength(self.name, expected, len(self.table))
        # before `array`: numpy cannot hold an entry beyond 64 bits
        if self.table and not 0 <= min(self.table) <= max(self.table) < size:
            raise EntryOutOfRange(self.name, next(x for x in self.table if not 0 <= x < size),
                                  size)
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


def table_length(name: str, size: int, arity: int) -> int:
    """size ** arity, the table length of operation `name`, once its arity
    is known to be an integer (a numpy one too) in 1..MAX_ARITY: the power
    of a fractional or negative arity is a float, and that of a huge one
    runs without bound."""
    if not isinstance(arity, Integral):
        raise ValidationError(f"operation {name!r}: arity {arity!r} is not an integer")
    if not 1 <= arity <= MAX_ARITY:
        raise ValidationError(f"operation {name!r}: arity {arity} not in range 1..{MAX_ARITY}")
    return size ** arity


def batch_len(item_entries: int) -> int:
    """How many items of the given number of entries one batch holds: at least one."""
    return max(1, BATCH // max(1, item_entries))


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
        """compute(), run once per key for this object, so a result lives
        and dies with the object, and two equal algebras never share one.
        Exhaustive analyses go through `analysis`.  The memos kept here
        directly need no size check: the `restrict` and `quotient`
        children, "closure maps", "realize", "translations" and
        "subuniverse" each cost time polynomial in the tables, where an
        analysis enumerates congruences, subuniverses or pairs.  Pair
        searches are shared by content within one request instead
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
        return self.by_name[name].apply(args, self.size)

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


def quotient(a: FiniteAlgebra, blocks: Sequence[Sequence[int]]
             ) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Factor algebra modulo the partition given as blocks.

    Verifies compatibility (raising NotACongruence with a witnessing pair of
    tuples otherwise) and returns the quotient together with the
    element -> block index map.  The child is memoized on `a` by the blocks
    only, so repeated calls return the same object with its own analyses."""
    blocks = tuple(tuple(blk) for blk in blocks)
    return a.memoized(("quotient", blocks), lambda: _quotient(a, blocks))


def _quotient(a: FiniteAlgebra, blocks: tuple[tuple[int, ...], ...]
              ) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    a.check_elements(x for blk in blocks for x in blk)
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
            args = first_index(clash)
            witness = tuple(reps[block_of[x]] for x in args)
            raise NotACongruence(op.name, args, witness, op.apply(args, a.size),
                                 op.apply(witness, a.size))
        ops.append(OperationTable.from_array(op.name, table))
    labels = None
    if a.labels is not None:
        labels = tuple("|".join(a.label(x) for x in sorted(blk)) for blk in blocks)
    return FiniteAlgebra(f"{a.name}/theta", len(blocks), tuple(ops), labels), tuple(block_of)


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
    ops = []
    for op in a.operations:
        table = _reindexed(op, emb, a.size)
        if (table < 0).any():
            args = tuple(emb[i] for i in first_index(table < 0))
            raise NotClosed(op.name, args, op.apply(args, a.size))
        ops.append(OperationTable.from_array(op.name, table))
    labels = tuple(a.label(x) for x in emb) if a.labels is not None else None
    rname = f"{a.name}|{{{','.join(str(x) for x in emb)}}}"
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
    a.check_elements(sub)
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
        first, saved = self._claim(keys)
        self._ids[keys[first]] = saved
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
        first, saved = self._claim(keys)
        ids, new = saved - 1, saved == 0
        fresh = new.nonzero()[0]
        ids[fresh] = np.arange(self.n, self.n + len(fresh))
        self._ids[keys[first]] = ids + 1
        self.n += len(fresh)
        return first, ids, new

    def _claim(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dense: `firsts`, and the slots of their keys as they were.  While
        this runs the slots of the batch's keys hold the least position of
        their key, by `minimum.at` (numpy leaves open which of repeated fancy
        writes wins); the caller writes them again at the firsts."""
        slot, at = self._ids, np.arange(len(keys), dtype=np.int32)
        saved = slot[keys]
        slot[keys] = len(keys)
        np.minimum.at(slot, keys, at)
        first = (slot[keys] == at).nonzero()[0]
        return first, saved[first]

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
