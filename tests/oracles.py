"""Reference implementations the tests compare the runtime package against.

Plain Python loops over `itertools.product`, sharing no code with the
numpy kernels they check: each reads operation tables only through
`OperationTable.apply` or its own radix-n `table_index`, never through
`OperationTable.array`.
"""

from itertools import combinations, product
from typing import Optional

from idemalg import terms
from idemalg.algebra import signature_map
from idemalg.congruence import TERM_SEARCH_LIMITS
from idemalg.errors import NotACongruence, NotClosed, SignatureMismatch
from idemalg.generate import Absent, CapExceeded, Found, term_operations


def table_index(args, size):
    idx = 0
    for a in args:
        idx = idx * size + a
    return idx


def naive_tolerance_generated(algebra, pairs):
    """Least compatible reflexive symmetric relation containing the pairs,
    as a frozenset of ordered pairs: every round applies every operation to
    every tuple of related pairs, until a round adds nothing."""
    n = algebra.size
    rel: set[tuple[int, int]] = {(x, x) for x in range(n)}
    for x, y in pairs:
        rel.add((x, y))
        rel.add((y, x))
    changed = True
    while changed:
        changed = False
        current = sorted(rel)
        for op in algebra.operations:
            for combo in product(current, repeat=op.arity):
                u = op.apply([p[0] for p in combo], n)
                v = op.apply([p[1] for p in combo], n)
                if (u, v) not in rel:
                    rel.add((u, v))
                    rel.add((v, u))
                    changed = True
    return frozenset(rel)


def naive_tolerance_classes(tolerance):
    """Maximal cliques of a tolerance's relation graph: every subset that is
    a clique, then those no other clique strictly contains."""
    n = tolerance.size
    cliques = []
    for mask in range(1, 1 << n):
        members = [x for x in range(n) if mask & (1 << x)]
        if all(tolerance.related(x, y) for x, y in combinations(members, 2)):
            cliques.append(frozenset(members))
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return sorted(tuple(sorted(c)) for c in set(maximal))


def naive_relation_compatible(algebra, pairs):
    """Is the binary relation (a set of ordered pairs) closed under every
    operation applied coordinatewise?"""
    pairs = frozenset(pairs)
    current = sorted(pairs)
    for op in algebra.operations:
        for combo in product(current, repeat=op.arity):
            u = op.apply([p[0] for p in combo], algebra.size)
            v = op.apply([p[1] for p in combo], algebra.size)
            if (u, v) not in pairs:
                return False
    return True


def is_compatible(algebra, part) -> bool:
    """Exhaustive compatibility check of a partition."""
    bi = part.block_index
    for op in algebra.operations:
        r = op.arity
        for args in product(range(algebra.size), repeat=r):
            v = op.apply(args, algebra.size)
            rep = tuple(part.blocks[bi[x]][0] for x in args)
            if bi[v] != bi[op.apply(rep, algebra.size)]:
                return False
    return True


def is_abelian_brute(algebra, max_arity: int = 3, limits=TERM_SEARCH_LIMITS) -> bool:
    """Brute-force term condition at arity <= max_arity: for every term t
    and all u, v, a-bar, b-bar:
    t(u, a-bar) = t(u, b-bar)  implies  t(v, a-bar) = t(v, b-bar).

    This is the reference implementation used to cross-check is_abelian on
    small fixtures; the true condition quantifies over all arities."""
    n = algebra.size
    for arity in range(2, max_arity + 1):
        for table, _ in term_operations(algebra, arity, limits.cap):
            m = arity - 1
            for abar in product(range(n), repeat=m):
                for bbar in product(range(n), repeat=m):
                    if abar == bbar:
                        continue
                    ok = [table[table_index((u,) + abar, n)]
                          == table[table_index((u,) + bbar, n)] for u in range(n)]
                    if any(ok) and not all(ok):
                        return False
    return True


def naive_subpower_membership(query):
    """Independent reference closure: plain dict of tuples, nested loops, no
    vectorization and no signature sharing.  Used as the test oracle."""
    cols = query.columns
    k = len(cols)
    ops = [(name, arity, [alg.op(name).table for alg in cols])
           for name, arity in cols[0].signature]
    sizes = [alg.size for alg in cols]
    known: dict[tuple[int, ...], int] = {}
    rows: list[tuple[int, ...]] = []
    for g in query.generators:
        t = tuple(g)
        if t not in known:
            known[t] = len(rows)
            rows.append(t)
    old = 0
    while True:
        cur = len(rows)
        if cur == old:
            break
        for name, arity, tables in ops:
            for combo in product(range(cur), repeat=arity):
                if all(c < old for c in combo):
                    continue
                args = [rows[c] for c in combo]
                res = tuple(tables[c][table_index([a[c] for a in args], sizes[c])]
                            for c in range(k))
                if res not in known:
                    known[res] = len(rows)
                    rows.append(res)
                    if len(rows) > query.cap:
                        return CapExceeded(query.cap)
        old = cur
    if tuple(query.target) in known:
        # no witness tracking on purpose; the fast engine provides terms
        return Found(terms.proj(0, max(1, len(query.generators))), len(rows))
    return Absent(len(rows))


def find_isomorphism(a, b, max_size: int = 8) -> Optional[tuple[int, ...]]:
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


def naive_restrict(algebra, subset):
    """The flat tables of the subalgebra on a closed subset (elements
    re-indexed in sorted order); NotClosed with the first escaping
    application otherwise."""
    emb = tuple(sorted(set(subset)))
    back = {x: i for i, x in enumerate(emb)}
    tables = []
    for op in algebra.operations:
        table = []
        for args in product(emb, repeat=op.arity):
            v = op.apply(args, algebra.size)
            if v not in back:
                raise NotClosed(op.name, args, v)
            table.append(back[v])
        tables.append(tuple(table))
    return tables


def naive_quotient(algebra, blocks):
    """The flat tables of the quotient by a partition (block i is element
    i); NotACongruence with the first clash otherwise."""
    block_of = [-1] * algebra.size
    for bi, blk in enumerate(blocks):
        for x in blk:
            block_of[x] = bi
    reps = [blk[0] for blk in blocks]
    tables = []
    for op in algebra.operations:
        table = []
        for bargs in product(range(len(blocks)), repeat=op.arity):
            table.append(block_of[op.apply([reps[bi] for bi in bargs], algebra.size)])
        for args in product(range(algebra.size), repeat=op.arity):
            v = op.apply(args, algebra.size)
            bargs = tuple(block_of[x] for x in args)
            if block_of[v] != table[table_index(bargs, len(blocks))]:
                witness = tuple(reps[bi] for bi in bargs)
                raise NotACongruence(op.name, args, witness, v,
                                     op.apply(witness, algebra.size))
        tables.append(tuple(table))
    return tables


def naive_product(a, b):
    """The flat tables of A x B, the pair (x, y) coded x*|B| + y."""
    size = a.size * b.size
    tables = []
    for op_a in a.operations:
        op_b = b.by_name[op_a.name]
        table = []
        for args in product(range(size), repeat=op_a.arity):
            xs = tuple(v // b.size for v in args)
            ys = tuple(v % b.size for v in args)
            table.append(op_a.apply(xs, a.size) * b.size + op_b.apply(ys, b.size))
        tables.append(tuple(table))
    return tables
