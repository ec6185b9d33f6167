"""Generation with provenance and the subpower membership oracle.

Two closure engines live here, both on the algebras' stacks.  Element
generation inside one algebra is a breadth-first closure with provenance
(deterministic: rounds, then operations in declaration order, then argument
tuples in lexicographic order), one gather per arity and round.  Subpower
queries close a set of tuples under the coordinatewise operations
(`TupleClosure`); that engine deduplicates the partial applications of the
operations by the signature of the unary maps they induce per coordinate,
which is what makes desk-scale instances with ternary operations
tractable.  Rows, signatures and maps are deduplicated by the exact key of
the table kernel in `algebra.py` (`row_keys`, `KeyIndex`, `distinct_rows`).
Coordinates may live in different algebras of one signature, so queries
over products of quotients need no product algebras.

A closure given a target stops right after the target's row, whether a
generator or a row the sweep appends: the rows, provenance and witness up
to that point are those of the complete closure, so a Found answer is
settled there, and its `closure_size` is the target's row index + 1.  No
row, provenance or answer depends on the size of the numpy batches
(`algebra.batch_len`).  A stopped closure is not complete; Absent comes only
from a complete one.
Every Found answer is re-evaluated against its target before being
returned.  An Absent answer keeps the rows of its complete closure, which
`check_absent` re-checks without the closure engine.  `pair_search`
defines each pair-witness search once: the search, its reuse checks and
its key in the request's cache, which is the search's content, all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from math import prod
from typing import Optional, Sequence, Union

import numpy as np

from .algebra import (
    DEFAULT_CAP,
    FiniteAlgebra,
    KeyIndex,
    batch_len,
    check_count,
    coordinate,
    distinct_rows,
    grid,
    key_layout,
    limb_keys,
    request_cache,
    row_keys,
)
from .errors import (
    CapExceededError,
    ElementNotGenerated,
    PostconditionFailed,
    SignatureMismatch,
    TooLarge,
    ValidationError,
)
from . import terms
from .terms import Term

# --------------------------------------------------------------------------
# element generation inside one algebra
# --------------------------------------------------------------------------

Provenance = Union[tuple[str, int], tuple[str, str, tuple[int, ...]]]
# ("gen", i)  or  ("step", op name, arguments)


@dataclass(frozen=True)
class GenerationTrace:
    """The subuniverse generated by a set, with one provenance entry per
    element: a generator index, or the first operation application that
    produced it (arguments are elements, which precede it in discovery
    order)."""

    algebra: FiniteAlgebra
    generators: tuple[int, ...]
    elements: tuple[int, ...]          # discovery order, generators first
    provenance: dict[int, Provenance]

    @property
    def subuniverse(self) -> frozenset[int]:
        return frozenset(self.elements)

    def replay(self) -> bool:
        """Re-derive every element from its provenance."""
        return all((self.generators[p[1]] if p[0] == "gen" else self.algebra.apply(p[1], p[2]))
                   == e for e, p in ((e, self.provenance[e]) for e in self.elements))


def generate_subalgebra(algebra: FiniteAlgebra, seeds: Sequence[int]) -> GenerationTrace:
    """Least subuniverse containing seeds, breadth first: a round gathers
    every operation at every tuple over the elements known when it starts,
    one arity at a time, and appends each new element at its first
    occurrence by (declaration position, arguments in lexicographic order)."""
    if not seeds:
        raise ValueError("generation needs at least one seed element")
    algebra.check_elements(seeds)
    gens = tuple(dict.fromkeys(seeds))
    elements = list(gens)
    prov: dict[int, Provenance] = {e: ("gen", i) for i, e in enumerate(gens)}
    known = np.zeros(algebra.size, bool)
    known[list(gens)] = True
    while True:
        snapshot = known.nonzero()[0]
        found = []   # per arity, (position, arguments' index, arity, value) of each first
        for arity, (positions, stack) in algebra.stacks.items():
            values = grid(stack, snapshot).ravel()
            first = np.full(algebra.size, len(values))   # of each value in `values`
            np.minimum.at(first, values, np.arange(len(values)))
            new = (~known & (first < len(values))).nonzero()[0]
            rows, index = np.divmod(first[new], len(snapshot) ** arity)
            found += [(positions[row], i, arity, v)
                      for row, i, v in zip(rows.tolist(), index.tolist(), new.tolist())]
        if not found:
            return GenerationTrace(algebra, gens, tuple(elements), prov)
        for pos, i, arity, v in sorted(found):
            if not known[v]:
                known[v] = True
                args = snapshot[list(np.unravel_index(i, (len(snapshot),) * arity))]
                elements.append(v)
                prov[v] = ("step", algebra.operations[pos].name, tuple(args.tolist()))


def witness_term(trace: GenerationTrace, element: int) -> Term:
    """A term over the generators that evaluates to the element."""
    if element not in trace.provenance:
        raise ElementNotGenerated(element)
    return provenance_term(trace.provenance, element, len(trace.generators))


def provenance_term(provenance: Union[dict[int, Provenance], Sequence[Provenance]],
                    root: int, n_generators: int) -> Term:
    """The term that provenance records for root: ("gen", i) is the i-th of
    n_generators projections, ("step", op, args) applies op to the terms of
    args.  An explicit stack, not a self-referencing closure: no recursion
    limit, and no reference cycle keeping the caller alive."""
    built: dict[int, Term] = {}
    stack = [root]
    while stack:
        key = stack[-1]
        p = provenance[key]
        if p[0] == "gen":
            built[key] = terms.proj(p[1], n_generators)
        elif missing := [a for a in p[2] if a not in built]:
            stack.extend(missing)
            continue
        else:
            built[key] = terms.app(p[1], [built[a] for a in p[2]])
        stack.pop()
    return built[root]


def subuniverse(algebra: FiniteAlgebra, seeds: Sequence[int]) -> frozenset[int]:
    """Sg(seeds), memoized on the algebra by the seed set."""
    key = frozenset(seeds)
    return algebra.memoized(("subuniverse", key),
                            lambda: generate_subalgebra(algebra, sorted(key)).subuniverse)


def all_subalgebras(algebra: FiniteAlgebra) -> frozenset[frozenset[int]]:
    """Every subuniverse, as the closure system saturated from singletons."""
    return algebra.analysis(("all_subalgebras",), lambda: _all_subalgebras(algebra))


def _all_subalgebras(algebra: FiniteAlgebra) -> frozenset[frozenset[int]]:
    queue = [subuniverse(algebra, [x]) for x in algebra.elements()]
    found = set(queue)
    while queue:
        s = queue.pop()
        for x in algebra.elements():
            if x not in s and (bigger := subuniverse(algebra, sorted(s | {x}))) not in found:
                found.add(bigger)
                queue.append(bigger)
    found.add(frozenset(algebra.elements()))
    return frozenset(found)


# --------------------------------------------------------------------------
# subpower closure
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SubpowerQuery:
    """Does some term send the generator tuples to the target,
    coordinatewise?

    `columns` assigns an algebra to every coordinate; all must share one
    signature.  The homogeneous case (a power of a single algebra) passes
    the same algebra at every coordinate."""

    columns: tuple[FiniteAlgebra, ...]
    generators: tuple[tuple[int, ...], ...]
    target: tuple[int, ...]
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        tuples = self.generators + (self.target,)
        if any(len(g) != len(self.columns) for g in tuples):
            raise ValidationError("tuple length does not match coordinate count")
        for c, alg in enumerate(self.columns):
            alg.check_elements(g[c] for g in tuples)


@dataclass(frozen=True)
class Found:
    """The target is in the closure.  `closure_size` is the target's row
    index + 1, where the closure stopped, not the size of the whole
    closure."""

    witness: Term
    closure_size: int


@dataclass(frozen=True)
class Absent:
    """The target is not in the complete closure.  `rows` is that closure,
    the certificate `check_absent` re-checks; it takes no part in equality
    or repr."""

    closure_size: int
    rows: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.rows is not None:   # one array, shared by every reuse
            self.rows.flags.writeable = False


@dataclass(frozen=True)
class CapExceeded:
    cap: int


SubpowerAnswer = Union[Found, Absent, CapExceeded]


def _new_spans(length: int, old: int, cur: int) -> list[list[tuple[int, int]]]:
    """Products of row ranges (start, stop), one range per position, that
    cover once each, in C order, the combinations of the given length over
    rows[:cur] that use a row of rows[old:cur].  On the first round
    (old = 0) that is every combination, the one empty one included.  In C
    order such a combination is an old row ahead of a shorter one that
    uses a new row, or a new row ahead of any rows."""
    if old == 0:
        return [[(0, cur)] * length]
    if length == 0:
        return []
    inner = _new_spans(length - 1, old, cur)
    # when the shorter ones form at most one product, the old heads share one range
    heads = [[(0, old)]] if len(inner) <= 1 else [[(a, a + 1)] for a in range(old)]
    return [h + s for h in heads for s in inner] + [[(old, cur)] + [(0, cur)] * (length - 1)]


def _prefix_blocks(length: int, old: int, cur: int, chunk: int):
    """The combinations of `_new_spans` in order, as (index arrays, count) chunks.
    A combination's flat C-order index has the later positions as its digits;
    what is left after dividing them out is the first position.  One position
    (every binary operation) is the one range rows[old:cur]."""
    if length == 1:
        for lo in range(old, cur, chunk):
            yield [np.arange(lo, min(cur, lo + chunk))], min(cur, lo + chunk) - lo
        return
    for spans in _new_spans(length, old, cur):
        total = prod(hi - lo for lo, hi in spans)
        for lo in range(0, total, chunk):
            flat = np.arange(lo, min(total, lo + chunk))
            m, idx = len(flat), []
            for start, stop in reversed(spans[1:]):
                flat, digit = np.divmod(flat, stop - start)
                idx.append(digit + start)
            yield [flat + spans[0][0]] + idx[::-1] if spans else [], m


def _map_tables(algs: Sequence[FiniteAlgebra], base: int):
    """The map table of closures over the given column algebras: `maps`, each
    operation's last-argument slices in each algebra, padded to `base` with their
    last entry, once per content; and per arity, (arity, its operations, luts),
    where luts[a][i, prefix] is the map id of the i-th of them at the prefix (a
    radix-size integer of leading arguments) in algs[a].  The arrays are read-only:
    over one algebra they are memoized on it and shared by its closures."""
    arities = sorted(algs[0].stacks)
    # per arity and algebra, the slices of its stack, operation by operation
    slices = [alg.stacks[arity].array.reshape(-1, alg.size).take(range(base), axis=1, mode="clip")
              for arity in arities for alg in algs]
    table = np.concatenate(slices)
    first, inv = distinct_rows(table, base)
    maps = table[first].astype(np.uint8)
    ids = np.split(inv.astype(np.int32), np.cumsum([len(s) for s in slices]))
    groups = []
    for i, arity in enumerate(arities):
        ops = np.array(algs[0].stacks[arity].positions)
        luts = [ids[i * len(algs) + a].reshape(len(ops), -1) for a in range(len(algs))]
        groups.append((arity, ops, luts))
    for arr in [maps] + [arr for _, ops, luts in groups for arr in (ops, *luts)]:
        arr.flags.writeable = False
    return maps, groups


def _layout(columns: tuple[FiniteAlgebra, ...], base: int):
    """What a closure over these columns reads of them: `maps`, per arity its
    operations and per column algebra its columns, lookup table and limb weights
    (w[i, limb] weighs the map id at the i-th of those columns in the signature
    key's limb, `key_layout`, 0 in the others), and the number of limbs.  Over
    one algebra, memoized on it per k and shared by its closures, read-only."""
    algs = list({id(alg): alg for alg in columns}.values())
    if len(algs) == 1:
        maps, groups = algs[0].memoized(("closure maps",), lambda: _map_tables(algs, base))
    else:
        maps, groups = _map_tables(algs, base)
    k = len(columns)
    weights, g = key_layout(len(maps), k)
    n_limbs = -(-k // g)
    limb_weights = np.zeros((k, n_limbs), np.int64)   # sums come out as keys
    limb_weights[np.arange(k), np.arange(k) // g] = weights
    limb_weights.flags.writeable = False
    which = np.array([next(a for a, alg in enumerate(algs) if alg is col) for col in columns])
    cols = [(which == a).nonzero()[0] for a in range(len(algs))]
    parts = [(c, limb_weights[c]) for c in cols]
    for arr in (arr for part in parts for arr in part):
        arr.flags.writeable = False
    return maps, [(arity, ops, [(c, lut, w) for (c, w), lut in zip(parts, luts)])
                  for arity, ops, luts in groups], n_limbs


class TupleClosure:
    """Closure of generator tuples under the shared signature, acting
    coordinatewise.

    Rows live in a growing uint8 matrix.  Rows, by their exact keys, and
    signatures, by the exact keys of their map ids, are numbered in one
    `KeyIndex` each: dense while `base**k` (rows) or `len(_maps)**k`
    (signatures) is at most `DENSE`, as in every closure of the subpower
    benchmark, with peak RSS within 2% of a dict's on every workload.
    A row's key sums its weighted digits, one limb per g columns
    (`key_layout`), so a candidate row's key, a signature's maps applied to
    a row, is a sum of k lookups in the round's table of weighted map
    values; only the rows appended are built.  Likewise a signature's key
    sums its weighted map ids, gathered per column algebra from the map
    table's lookup tables; only the map ids of the signatures recorded are
    stored.  What depends only on the column algebra and k is memoized on
    it when every column is the same algebra (`_layout`); a closure builds
    only its row and signature stores and their `KeyIndex`es.
    The last argument of every operation is swept vectorized; combinations
    of the leading ones (the empty one for a unary operation) are
    registered by the signature of the per-coordinate unary maps they
    induce, one key whatever operation induces it.  The discovery order:
    generators, then rounds.  In a round, operations in declaration order;
    per operation, the combinations that use a row new since the last round
    are registered in C order (a new signature keeps its first), then the
    signatures new in the round sweep every row and the older ones the new
    rows, last argument ascending.  Within a batch a row counts where it
    first occurs.

    One store, four arrays indexed by signature id, holds each signature
    once: its map id per column, owner, owner's first combination and
    sequence number.  It belongs to the lowest-indexed operation that has
    registered it, with that operation's first combination as the
    provenance of its rows, and only its owner sweeps it; rows, provenance
    and cap cut stay those of one store per operation:
    - a lower operation that registers a signature a higher one owns takes
      it over, new in the round (a fresh sequence number): with a store of
      its own, it would sweep it over every row before the higher one;
    - a higher operation that registers a signature a lower one owns adds
      nothing: the lower one has swept it over the rows of the round, in
      this round or before, so every row it yields is there.
    Registration reads only the rows present when the round starts, so it
    runs first, batched over the operations of one arity.

    Registration and the sweep run in batches of combinations and of
    signatures (`batch_len`), so that no numpy temporary has more than
    `BATCH` entries unless one item does; no row, provenance or answer
    depends on the batches.  Given a target, the closure stops right after
    the target's row, a generator or a swept row; what it has built is a
    prefix of the complete closure's rows and provenance, and `complete`
    stays False.  The closure also stops, incomplete, at its row cap + 1.
    """

    def __init__(self, columns: Sequence[FiniteAlgebra],
                 generators: Sequence[Sequence[int]], cap: int = DEFAULT_CAP,
                 target: Optional[Sequence[int]] = None):
        self.columns = tuple(columns)
        if not self.columns:
            raise ValidationError("a tuple closure needs at least one coordinate")
        check_count("cap", cap)
        self.k = len(self.columns)
        self.cap = cap
        sig = self.columns[0].signature
        for alg in self.columns:
            if alg.signature != sig:
                raise SignatureMismatch(f"coordinate algebras {self.columns[0].name} "
                                        f"and {alg.name} differ")
            if alg.size > 256:
                raise TooLarge(alg.size, 256, "tuple closures store elements as bytes")
        self.signature = sig
        self._sizes = np.array([alg.size for alg in self.columns])
        self._base = max(alg.size for alg in self.columns)
        self.n = 0
        self._buf = np.zeros((256, self.k), dtype=np.uint8)
        self._rows = KeyIndex(self._base ** self.k)
        self.provenance: list[Provenance] = []
        self.complete = False
        self._build_maps()
        # the signature store: per signature id, map id per column, owner,
        # owner's first combination and sequence number
        width = max(arity for _, arity in sig) - 1
        self._map_ids = np.zeros((256, self.k), np.int32)
        self._owner = np.zeros(256, np.intp)
        self._combo = np.zeros((256, width), np.int64)
        self._seq_of = np.zeros(256, np.int64)
        self._sigs = KeyIndex(len(self._maps) ** self.k)   # signature key -> id
        self._seq = 0
        self._registered = 0       # rows whose prefix combinations are registered
        self.n_generators = len(generators)
        if any(len(g) != self.k for g in generators):
            raise ValidationError("generator length does not match coordinate count")
        gens = np.asarray(generators, dtype=np.int64).reshape(len(generators), self.k)
        if ((gens < 0) | (gens >= self._sizes)).any():
            raise ValidationError("generator entry out of range of its column")
        # each distinct generator at its first index, through the target's
        target = tuple(target) if target is not None and self._fits(target) else None
        first: dict[tuple, int] = {}
        for i, row in enumerate(map(tuple, gens.tolist())):
            first.setdefault(row, i)
            if row == target:
                break
        tuples = np.array(list(first) + [target] * (target is not None),
                          np.int64).reshape(-1, self.k)
        keys = row_keys(tuples, self._base)
        self._target = None if target is None else keys[len(first):]
        self._rows.add(keys[:len(first)])
        self._append(tuples[:len(first)], [("gen", i) for i in first.values()])
        if target not in first:
            self.complete = not self.n   # the closure of no tuples is empty
            self._run()

    def _build_maps(self) -> None:
        """`_maps`, `_groups` and `_n_limbs` (`_layout`), memoized on the
        algebra per k when every column is the same one."""
        one = self.columns[0]
        if all(alg is one for alg in self.columns):
            layout = one.memoized(("closure layout", self.k),
                                  lambda: _layout(self.columns, self._base))
        else:
            layout = _layout(self.columns, self._base)
        self._maps, self._groups, self._n_limbs = layout

    # -- row storage --

    @property
    def rows(self) -> np.ndarray:
        return self._buf[:self.n]

    def _number_new(self, keys: np.ndarray, limit: int) -> tuple[np.ndarray, bool]:
        """Number the rows of these keys, none of them a row yet, that occur first
        in batch order, through the target's and at most `limit` of them; their
        batch positions, and whether the target's is among them."""
        if self._target is not None and len(hit := (keys == self._target).nonzero()[0]):
            keys = keys[:hit[0] + 1]
            first = self._rows.add_firsts(keys, limit)
            return first, int(first[-1]) == len(keys) - 1
        return self._rows.add_firsts(keys, limit), False

    def _append(self, rows: np.ndarray, provenance: list[Provenance]) -> None:
        """Append the rows just numbered, with their provenance."""
        end = self.n + len(rows)
        if end > len(self._buf):   # entries past n are never read
            self._buf = np.resize(self._buf, (max(2 * len(self._buf), end), self.k))
        self._buf[self.n:end] = rows
        self.provenance.extend(provenance)
        self.n = end

    def __len__(self) -> int:
        return self.n

    def _fits(self, tup: Sequence[int]) -> bool:
        """Can a row be this tuple?  A key is exact only for a tuple of length
        k with every entry in range."""
        return len(tup) == self.k and all(0 <= v < alg.size for v, alg in zip(tup, self.columns))

    def lookup(self, tup: Sequence[int]) -> Optional[int]:
        """The row index of the tuple, None when it is not a row."""
        if not self._fits(tup):
            return None
        hit = int(self._rows.get(row_keys(np.asarray([tup]), self._base))[0])
        return hit if hit >= 0 else None

    # -- main loop --

    def _register(self, n_cur: int) -> None:
        """Register the signatures of the prefix combinations over rows[:n_cur]
        that use a row new since the last round, a block of one arity at a
        time: the first occurrence of each, unless an operation below it owns
        it."""
        for arity, ops, groups in self._groups:
            for idx, m in _prefix_blocks(arity - 1, self._registered, n_cur,
                                         batch_len(len(ops) * self.k)):
                self._register_block(ops, groups, idx, m)

    def _register_block(self, ops: np.ndarray, groups: list, idx: list, m: int) -> None:
        """One block of m combinations, the rows at idx, for each of ops (flat
        index = operation position * m + combination).  A method of its own, so
        that a block's arrays are freed before the next block's are built."""
        rows = self.rows
        # the leading arguments at each column as one radix-size integer
        packed = rows[idx[0]] if idx else np.zeros((1, self.k), np.intp)
        for arr in idx[1:]:
            packed = packed * self._sizes + rows[arr]
        # per column algebra, [operation, combination, column] map ids
        got = [lut.take(packed if len(groups) == 1 else packed[:, cols], axis=1)
               for cols, lut, _ in groups]
        limbs = reduce(np.add, (ids @ w for ids, (_, _, w) in zip(got, groups)))
        keys = limb_keys(list(limbs.reshape(-1, self._n_limbs).T))
        n_old = self._sigs.n
        first, recs, new = self._sigs.number(keys)
        if self._sigs.n > len(self._owner):   # written before read
            self._grow_store(2 * self._sigs.n)
        op, j = np.divmod(first, m)
        if new.all():   # they took the next ids, in order
            recs = slice(n_old, self._sigs.n)
        else:   # keep the new ones and those that a higher operation owns
            keep = new | (self._owner[recs] > ops[op])
            if not keep.any():
                return
            recs, op, j = recs[keep], op[keep], j[keep]
        if len(groups) == 1:
            self._map_ids[recs] = got[0][op, j]
        else:
            ids = np.empty((len(op), self.k), np.int32)
            for got_a, (cols, _, _) in zip(got, groups):
                ids[:, cols] = got_a[op, j]
            self._map_ids[recs] = ids
        self._owner[recs] = ops[op]
        for p, arr in enumerate(idx):
            self._combo[recs, p] = arr[j]
        self._seq_of[recs] = np.arange(self._seq, self._seq + len(op))
        self._seq += len(op)

    def _grow_store(self, size: int) -> None:
        """Room for `size` signatures; entries past `_sigs.n` are never read."""
        self._map_ids = np.resize(self._map_ids, (size, self.k))
        self._owner = np.resize(self._owner, size)
        self._combo = np.resize(self._combo, (size, self._combo.shape[1]))
        self._seq_of = np.resize(self._seq_of, size)

    def _run(self) -> None:
        weights, g = key_layout(self._base, self.k)
        offsets = np.arange(self.k) * len(self._maps)
        while not self.complete:
            n_cur, seq0, old = self.n, self._seq, self._registered
            self._register(n_cur)
            # [column * nmaps + map, z]: the weighted value of the map at rows[z, column],
            # over every row and over the rows new since the last round (all of them in
            # the first); C order, so that `take` gathers from them in place
            weighted = np.ascontiguousarray(
                (self._maps[:, self.rows[:n_cur]] * weights).transpose(2, 0, 1)).reshape(-1, n_cur)
            fresh = np.ascontiguousarray(weighted[:, old:]) if old else weighted
            n_sigs = self._sigs.n
            at = self._map_ids[:n_sigs] + offsets   # row in `weighted` of each map id
            owner, seq = self._owner[:n_sigs], self._seq_of[:n_sigs]
            order = np.lexsort((seq, owner))   # by owner, then sequence
            bounds = owner[order].searchsorted(np.arange(len(self.signature) + 1)).tolist()
            for opi, (name, arity) in enumerate(self.signature):
                mine = order[bounds[opi]:bounds[opi + 1]]
                split = seq[mine].searchsorted(seq0)
                # signatures new in the round sweep every row, older ones the new rows
                for recs, z0, table in ((mine[split:], 0, weighted), (mine[:split], old, fresh)):
                    if not len(recs):
                        continue
                    zs, m = self.rows[z0:n_cur], n_cur - z0   # appends never write here
                    per = batch_len(m * self.k)
                    for lo in range(0, len(recs), per):
                        part = recs[lo:lo + per]
                        cand = table.take(at[part].T, axis=0)   # [column, record, row]
                        keys = limb_keys([np.add.reduce(cand[c:c + g], axis=0, dtype=cand.dtype)
                                          .ravel() for c in range(0, self.k, g)])
                        if not len(new := self._rows.absent(keys)):
                            continue
                        # first occurrences in batch order, through the target and
                        # until the row count passes the cap
                        first, reached = self._number_new(keys[new], max(1, self.cap + 1 - self.n))
                        rec, z = np.divmod(new[first], m)
                        sigs = part[rec]
                        args = zip(self._combo[sigs, :arity - 1].tolist(), (z + z0).tolist())
                        self._append(self._maps[self._map_ids[sigs], zs[z]],
                                     [("step", name, (*c, last)) for c, last in args])
                        if self.n > self.cap or reached:
                            return
            self._registered = n_cur
            if self.n == n_cur:
                self.complete = True

    # -- witnesses --

    def witness(self, row_index: int) -> Term:
        return provenance_term(self.provenance, row_index, self.n_generators)


def subpower_membership(query: SubpowerQuery) -> SubpowerAnswer:
    """Close the generators under the coordinatewise operations until the
    target is a row.  Found answers carry a re-verified witness term."""
    return _search(query.columns, query.generators, (query.target,), query.cap)[1]


def _search(columns: Sequence[FiniteAlgebra], generators: Sequence[Sequence[int]],
            targets: Sequence[Sequence[int]], cap: int
            ) -> tuple[Optional[Sequence[int]], SubpowerAnswer]:
    """The closure of the generators, stopped at targets[0] only (stopped at
    a later one, it could miss an earlier one).  The first target that is a
    row is returned with its Found answer, the witness re-checked; else no
    target, with Absent (the complete closure's rows) or CapExceeded."""
    cl = TupleClosure(columns, generators, cap, targets[0])
    for target in targets:
        if (hit := cl.lookup(target)) is not None:
            w = cl.witness(hit)
            _check_member(columns, generators, target, w)
            return target, Found(w, len(cl))
    return None, Absent(len(cl), cl.rows.copy()) if cl.complete else CapExceeded(cap)


def _check_member(columns: Sequence[FiniteAlgebra], generators: Sequence[Sequence[int]],
                  target: Sequence[int], w: Term) -> None:
    """PostconditionFailed unless w sends the generators to the target at
    every coordinate."""
    for c, alg in enumerate(columns):
        value = terms.evaluate(w, alg, [g[c] for g in generators])
        if value != target[c]:
            raise PostconditionFailed(
                f"subpower witness {w.text()} gives {value} at coordinate "
                f"{c}, not {target[c]}")


def check_absent(columns: Sequence[FiniteAlgebra], generators: Sequence[Sequence[int]],
                 targets: Sequence[Sequence[int]], rows: Optional[np.ndarray]) -> None:
    """PostconditionFailed unless rows certify that no target is in the
    closure of the generators under the coordinatewise operations of
    columns: the rows hold every generator, miss every target and are closed
    under every operation.

    Nothing of `TupleClosure` but the key kernel is used.  The last-argument
    maps of all operations are numbered by content; per arity, the tuples of
    map ids, one per column, of its operations at every combination of
    leading rows are collected; each distinct one is applied to every row,
    and the result must be a row, looked up among the sorted row keys."""
    if rows is None:
        raise PostconditionFailed("an Absent answer without rows certifies nothing")
    k, sizes = len(columns), np.array([alg.size for alg in columns])
    base = int(sizes.max())
    rows = np.asarray(rows, dtype=np.intp)
    if rows.ndim != 2 or rows.shape[1] != k or (rows < 0).any() or (rows >= sizes).any():
        raise PostconditionFailed(f"absence rows of shape {rows.shape} do not fit the columns")
    keys = np.sort(row_keys(rows, base))

    def held(got: np.ndarray) -> np.ndarray:
        """Which of the keys got are row keys."""
        if not len(keys):
            return np.zeros(len(got), bool)
        return keys[keys.searchsorted(got).clip(max=len(keys) - 1)] == got

    def tuple_keys(tuples) -> np.ndarray:
        return row_keys(np.asarray(tuples, dtype=np.intp).reshape(-1, k), base)

    if not held(tuple_keys(generators)).all():
        raise PostconditionFailed("the absence rows miss a generator")
    if held(tuple_keys(targets)).any():
        raise PostconditionFailed("the absence rows hold a target")
    if not (n := len(rows)):
        return   # no operation has arguments among no rows
    sig = columns[0].signature
    algs = list({id(alg): alg for alg in columns}.values())
    which = np.array([next(a for a, other in enumerate(algs) if other is alg) for alg in columns])
    # every last-argument map of every operation in each column algebra, padded to base
    table = np.concatenate([np.concatenate([alg.op(name).array.reshape(-1, alg.size)
                                            for name, _ in sig])
                            .take(range(base), axis=1, mode="clip") for alg in algs])
    first, inv = distinct_rows(table, base)
    maps = table[first]
    # the map of operation o at prefix p in column c has id inv[at[o, c] + p]
    at = np.cumsum([0] + [alg.size ** (arity - 1) for alg in algs for _, arity in sig])[
        which * len(sig) + np.arange(len(sig))[:, None]]
    found = []
    for arity in sorted({arity for _, arity in sig}):
        ops = at[[o for o, (_, ar) in enumerate(sig) if ar == arity]]
        # the leading arguments at each column as one radix-size integer: a
        # head row, then every combination of the rest (the empty one at first)
        heads = rows * sizes ** (arity - 2) if arity > 1 else np.zeros((1, k), np.intp)
        rest = np.zeros((1, k), np.intp)
        for _ in range(arity - 2):
            rest = (rest[:, None, :] * sizes + rows).reshape(-1, k)
        step = batch_len(len(ops) * k * len(rest))
        for lo in range(0, len(heads), step):
            ids = inv[ops[:, None, None, :] + heads[lo:lo + step, None, :] + rest].reshape(-1, k)
            found.append(ids[distinct_rows(ids, len(maps))[0]])
    sigs = np.concatenate(found)
    if len(found) > 1:   # distinct within each block only
        sigs = sigs[distinct_rows(sigs, len(maps))[0]]
    # [column, map, z]: the map at rows[z, column], weighted as in the row key;
    # the table a closure's sweep builds over these rows, no larger
    weights, g = key_layout(base, k)
    weighted = (maps.astype(weights.dtype)[:, rows] * weights).transpose(2, 0, 1)
    per = batch_len(n * k)
    for lo in range(0, len(sigs), per):
        part = sigs[lo:lo + per]
        got = limb_keys([sum(weighted[c][part[:, c]] for c in range(c0, min(k, c0 + g))).ravel()
                         for c0 in range(0, k, g)])
        if not (ok := held(got)).all():
            s, z = divmod(int(ok.argmin()), n)
            raise PostconditionFailed("the absence rows are not closed under the operations: "
                                      f"they miss {tuple(maps[part[s], rows[z]].tolist())}")


# --------------------------------------------------------------------------
# derived queries
# --------------------------------------------------------------------------

SEMILATTICE = "semilattice"
MAJORITY = "majority"
MALTSEV = "maltsev"


@dataclass(frozen=True)
class PairWitness:
    """A term of the given kind on the pair (or, for Mal'tsev, the algebra).
    `closure_size` is the target's row index + 1, as in `Found`, except
    where semilattice settles on its second absorber: that closure did not
    stop at a target, so it counts every row built; 0 for the projection of
    a one-element algebra."""

    kind: str
    term: Term
    absorber: Optional[int] = None   # semilattice only: the absorbing element
    closure_size: int = 0


def search_key(algebra: FiniteAlgebra, kind: str, a: int, b: int, cap: int) -> tuple:
    """What `find_pair_witness(algebra, kind, a, b, cap)` reads: the kind, the
    algebra's tables (not its name), the generators and targets of its
    `pair_search` and the cap, so equal searches share a key whatever pair."""
    return _search_key(algebra, kind, pair_search(algebra, kind, a, b), cap)


def _search_key(algebra: FiniteAlgebra, kind: str, search: tuple, cap: int) -> tuple:
    _, generators, targets = search
    return (kind, algebra.size, algebra.signature, algebra.tables_key, generators, targets, cap)


def _check_pair(algebra: FiniteAlgebra, a: int, b: int) -> None:
    algebra.check_elements((a, b))
    if a == b:
        raise ValueError("need two distinct elements")


def majority_query(algebra: FiniteAlgebra, a: int, b: int,
                   cap: int = DEFAULT_CAP) -> SubpowerQuery:
    """Coordinates are the six non-constant triples over {a, b}; the target
    takes the repeated element at each."""
    _check_pair(algebra, a, b)
    cols = sorted(t for t in product((a, b), repeat=3) if len(set(t)) > 1)
    gens = tuple(tuple(c[i] for c in cols) for i in range(3))
    target = tuple(max(set(c), key=c.count) for c in cols)
    return SubpowerQuery((algebra,) * len(cols), gens, target, cap)


def maltsev_query(algebra: FiniteAlgebra, cap: int = DEFAULT_CAP) -> SubpowerQuery:
    """Coordinates are all (x,x,y) and (y,x,x) inputs for ordered pairs
    x != y; idempotency covers the diagonal, so a hit is a Mal'tsev term."""
    pairs = [(x, y) for x in algebra.elements() for y in algebra.elements() if x != y]
    cols = [(x, x, y) for x, y in pairs] + [(y, x, x) for x, y in pairs]
    gens = tuple(tuple(c[i] for c in cols) for i in range(3))
    target = tuple(y for x, y in pairs) * 2
    return SubpowerQuery((algebra,) * len(cols), gens, target, cap)


def pair_search(algebra: FiniteAlgebra, kind: str, a: int, b: int):
    """The one definition of the closure that `find_pair_witness(algebra,
    kind, a, b)` runs: its columns, generators and targets, in order of
    preference.  A semilattice target's entry is its absorber."""
    if kind == SEMILATTICE:
        _check_pair(algebra, a, b)
        return (algebra, algebra), ((a, b), (b, a)), ((b, b), (a, a))
    if kind == MAJORITY:
        q = majority_query(algebra, a, b)
    elif kind == MALTSEV:
        q = maltsev_query(algebra)
    else:
        raise ValueError(f"unknown witness kind {kind!r}")
    return q.columns, q.generators, (q.target,)


def find_pair_witness(algebra: FiniteAlgebra, kind: str, a: int = 0, b: int = 0,
                      cap: int = DEFAULT_CAP
                      ) -> Union[PairWitness, Absent, CapExceeded]:
    """Search for a term that is a semilattice (resp. majority) operation on
    the pair {a, b}, or a Mal'tsev term on the whole algebra, by `_search`
    on its `pair_search`: semilattice tries both absorbers, b first.  Absent
    answers always come from complete closures; a cap hit is CapExceeded,
    never absence.

    Inside a request (`algebra.request_cache`) the answer is shared by
    every search of the same key (`search_key`), whichever algebra object
    it runs on: at each reuse a witness re-evaluates on the algebra in
    hand; an Absent passes `check_absent` once, before its first reuse;
    CapExceeded claims nothing."""
    if kind == MALTSEV and algebra.size < 2:
        return PairWitness(MALTSEV, terms.proj(0, 3), None, 0)
    columns, generators, targets = search = pair_search(algebra, kind, a, b)
    cache = request_cache()
    if cache is None or (key := _search_key(algebra, kind, search, cap)) not in cache:
        target, ans = _search(*search, cap)
        if isinstance(ans, Found):
            ans = PairWitness(kind, ans.witness, target[0] if kind == SEMILATTICE else None,
                              ans.closure_size)
        if cache is not None:
            cache[key] = (ans, False)
        return ans
    ans, certified = cache[key]
    if isinstance(ans, PairWitness):
        target = targets[0] if ans.absorber is None else (ans.absorber,) * 2
        _check_member(columns, generators, target, ans.term)
    elif isinstance(ans, Absent) and not certified:
        check_absent(*search, ans.rows)
        cache[key] = (ans, True)
    return ans


def term_operations(algebra: FiniteAlgebra, arity: int, cap: int = DEFAULT_CAP
                    ) -> list[tuple[tuple[int, ...], Term]]:
    """All term operations of the given arity, as (table, witness) pairs in
    discovery order: the closure of the projections inside A^(A^arity).

    Raises CapExceededError when the clone is larger than the cap; a partial
    enumeration would be unusable."""
    n = algebra.size
    gens = [coordinate(n, arity, p).ravel().tolist() for p in range(arity)]
    cl = TupleClosure((algebra,) * n ** arity, gens, cap)
    if not cl.complete:
        raise CapExceededError(cap, f"arity-{arity} term enumeration on {algebra.name}")
    return [(tuple(cl.rows[i].tolist()), cl.witness(i)) for i in range(len(cl))]
