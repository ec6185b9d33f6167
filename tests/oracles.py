"""Reference implementations the tests compare the runtime package against.

Plain Python loops over `itertools.product`, sharing no code with the
numpy kernels they check: each reads operation tables only through
`OperationTable.apply` or its own radix-n `table_index`, never through
`OperationTable.array`.
"""

from itertools import combinations, product
from operator import getitem
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


def naive_translations(algebra):
    """Every translation x |-> f(c-bar with x at position i), as a set of
    tuples, read through `op.apply`."""
    n = algebra.size
    return {tuple(op.apply(c[:i] + (x,) + c[i:], n) for x in range(n))
            for op in algebra.operations for i in range(op.arity)
            for c in product(range(n), repeat=op.arity - 1)}


def naive_cg(algebra, pairs):
    """Least congruence containing the pairs, as a frozenset of ordered
    pairs: the reflexive symmetric relation on the pairs, closed under every
    translation x |-> f(c-bar with x at position i), read through
    `op.apply`, and under transitivity, until neither adds a pair."""
    n = algebra.size
    moves = naive_translations(algebra)
    rel: set[tuple[int, int]] = set()
    new = {(x, x) for x in range(n)} | set(pairs) | {(y, x) for x, y in pairs}
    while new:
        rel |= new
        grown = rel | {(t[x], t[y]) for x, y in new for t in moves}
        while True:
            succ: dict[int, set[int]] = {}
            for x, y in grown:
                succ.setdefault(x, set()).add(y)
            longer = {(x, z) for x, y in grown for z in succ[y]} - grown
            if not longer:
                break
            grown |= longer
        new = grown - rel
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
    vectorization and no signature sharing.  Used as the test oracle.

    Semi-naive: per round, every prefix of leading arguments over the rows
    in C order; the last argument runs over every row after a prefix that
    uses a row new in the round before, else over the new rows only.  That
    covers each argument tuple with a new row once, in C order.  Per prefix,
    each coordinate's table is sliced at the prefix, so the last argument
    is one lookup per coordinate."""
    cols = query.columns
    ops = [(arity, [(alg.op(name).table, alg.size) for alg in cols])
           for name, arity in cols[0].signature]
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
        for arity, tables in ops:
            for prefix in product(range(cur), repeat=arity - 1):
                fresh = old == 0 or max(prefix, default=-1) >= old   # uses a new row
                lasts = rows[0 if fresh else old:cur]
                slices = []
                for c, (table, size) in enumerate(tables):
                    lo = table_index([rows[p][c] for p in prefix], size) * size
                    slices.append(table[lo:lo + size])
                for last in lasts:
                    res = tuple(map(getitem, slices, last))
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


def naive_satisfies_sls(op, size):
    """The first pair (a, b), in row-major order, where c = f(a, b) differs
    from a but a.c = c.a = c fails, for the binary table `op`; else None."""
    for a, b in product(range(size), repeat=2):
        c = op.apply((a, b), size)
        if c != a and not op.apply((a, c), size) == op.apply((c, a), size) == c:
            return (a, b)
    return None


def naive_thin_semilattice_order(op, size):
    """All pairs a != b with f(a, b) = f(b, a) = b, in row-major order."""
    return [(a, b) for a, b in product(range(size), repeat=2)
            if a != b and op.apply((a, b), size) == op.apply((b, a), size) == b]


def naive_sls_ell(op, size):
    """The stabilization index of the shift chains of the binary table `op`:
    (ell, None), or (None, (a, b)) for the first pair in row-major order
    whose chain b_0 = f(a, b), b_{i+1} = f(a, f(b_i, a)) repeats a value
    without reaching a fixed point."""
    ell = 0
    for a, b in product(range(size), repeat=2):
        chain = [op.apply((a, b), size)]
        while True:
            nxt = op.apply((a, op.apply((chain[-1], a), size)), size)
            if nxt == chain[-1]:
                break
            if nxt in chain:
                return None, (a, b)
            chain.append(nxt)
        ell = max(ell, len(chain) - 1)
    return ell, None


def naive_edge_conditions(inventory, f, g, h):
    """(condition, edge, ok) for conditions (i)-(iii) of `verify_uniform` on
    every thick edge, in its order, by scalar `terms.evaluate`."""
    def ev(t, algebra, args):
        return terms.evaluate(t, algebra, args)

    out = []
    cube = list(product(range(2), repeat=3))
    for e in inventory.semilattice:
        a = e.edge_algebra
        out.append(("f semilattice", e.describe(), ev(f, a, (0, 1)) == ev(f, a, (1, 0))))
        for name, t in (("g", g), ("h", h)):
            out.append((f"{name} = f(x,f(y,z)) on semilattice edge", e.describe(),
                        all(ev(t, a, p) == ev(f, a, (p[0], ev(f, a, p[1:]))) for p in cube)))
    for e in inventory.majority:
        a = e.edge_algebra
        out.append(("f first projection", e.describe(),
                    all(ev(f, a, p) == p[0] for p in product(range(2), repeat=2))))
        out.append(("g majority", e.describe(), all(ev(g, a, p) == (sum(p) >= 2) for p in cube)))
        out.append(("h first projection", e.describe(), all(ev(h, a, p) == p[0] for p in cube)))
    for e in inventory.affine:
        q, n = e.quotient, e.quotient.size
        out.append(("f first projection", e.describe(),
                    all(ev(f, q, p) == p[0] for p in product(range(n), repeat=2))))
        out.append(("g first projection", e.describe(),
                    all(ev(g, q, p) == p[0] for p in product(range(n), repeat=3))))
        out.append(("h Mal'tsev on quotient", e.describe(),
                    all(ev(h, q, (x, x, y)) == y == ev(h, q, (y, x, x))
                        for x, y in product(range(n), repeat=2))))
    return out
