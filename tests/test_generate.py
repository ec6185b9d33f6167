"""Generation, subpower membership, and the pair-witness queries."""

import gc
import hashlib
import random
import sys
import weakref
from itertools import combinations, product

import numpy as np
import pytest
from oracles import naive_subpower_membership

from idemalg import generate, terms
from idemalg.algebra import DEFAULT_CAP, restrict, validate_algebra
from idemalg.edges import structure_graph
from idemalg.errors import TooLarge
from idemalg.generate import (
    Absent,
    CapExceeded,
    Found,
    MAJORITY,
    MALTSEV,
    PairWitness,
    SEMILATTICE,
    SubpowerQuery,
    all_subalgebras,
    find_pair_witness,
    generate_subalgebra,
    provenance_term,
    subpower_membership,
    subuniverse,
    term_operations,
    witness_term,
)
from idemalg.reduct import bounded_reduct


def test_generate_no_edge_pair(a_ne):
    trace = generate_subalgebra(a_ne, [0, 1])
    assert trace.subuniverse == frozenset({0, 1, 2})
    assert trace.provenance[2] == ("step", "f", (0, 1))
    assert trace.replay()
    w = witness_term(trace, 2)
    assert w.text() == "f(p0, p1)"
    assert terms.evaluate(w, a_ne, (0, 1)) == 2


def test_generate_singleton_idempotency(a_ne):
    for x in range(3):
        assert subuniverse(a_ne, [x]) == frozenset({x})


def test_generate_z3_pair_replays(z3a):
    trace = generate_subalgebra(z3a, [0, 1])
    assert trace.subuniverse == frozenset({0, 1, 2})
    w = witness_term(trace, 2)
    assert terms.evaluate(w, z3a, (0, 1)) == 2


def test_generation_monotone_seeded(a_ne, a_nms, c_nef):
    rng = random.Random(20240817)
    for alg in (a_ne, a_nms, c_nef):
        for _ in range(20):
            small = rng.sample(range(alg.size), rng.randint(1, alg.size))
            extra = rng.sample(range(alg.size), rng.randint(0, alg.size - 1))
            big = list(dict.fromkeys(small + extra))
            assert subuniverse(alg, small) <= subuniverse(alg, big)


def test_all_subalgebras_no_edge(a_ne):
    subs = {tuple(sorted(s)) for s in all_subalgebras(a_ne)}
    assert subs == {(0,), (1,), (2,), (0, 2), (1, 2), (0, 1, 2)}


def test_all_subalgebras_small(mj2, trivial):
    assert {tuple(sorted(s)) for s in all_subalgebras(mj2)} == \
        {(0,), (1,), (0, 1)}
    assert {tuple(sorted(s)) for s in all_subalgebras(trivial)} == {(0,)}


def test_subalgebras_closed_under_intersection(a_ne, a_nms, c_nef):
    for alg in (a_ne, a_nms, c_nef):
        subs = all_subalgebras(alg)
        for s, t in combinations(subs, 2):
            meet = s & t
            if meet:
                assert meet in subs


def test_subpower_semilattice_query(a_ne):
    q = SubpowerQuery((a_ne, a_ne), ((0, 2), (2, 0)), (2, 2))
    ans = subpower_membership(q)
    assert ans.witness.text() == "f(p0, p1)"


def test_subpower_generator_target_is_projection(a_ne):
    q = SubpowerQuery((a_ne, a_ne), ((0, 2), (2, 0)), (2, 0))
    ans = subpower_membership(q)
    assert ans.witness is terms.proj(1, 2)


def test_subpower_cap_exceeded_is_reported(a_nms):
    q = SubpowerQuery((a_nms,) * 6,
                      ((0, 0, 0, 1, 1, 1), (0, 1, 1, 0, 0, 1),
                       (1, 0, 1, 0, 1, 0)),
                      (0, 0, 1, 0, 1, 1), cap=5)
    ans = subpower_membership(q)
    assert isinstance(ans, CapExceeded)


def test_find_pair_witness_examples(a_ne, a_nms, z3a):
    sub, _ = restrict(a_ne, [0, 2])
    got = find_pair_witness(sub, SEMILATTICE, 0, 1)
    assert isinstance(got, PairWitness) and got.absorber == 1
    assert isinstance(find_pair_witness(a_nms, MAJORITY, 0, 1), Absent)
    mal = find_pair_witness(z3a, MALTSEV)
    assert mal.term.text() == "h(p0, p1, p2)"


def test_witnesses_reevaluate_on_random_targets(a_ne):
    # soundness: whatever the query, a Found witness reproduces its target
    rng = random.Random(7)
    for _ in range(30):
        k = rng.randint(1, 4)
        gens = tuple(tuple(rng.randrange(3) for _ in range(k))
                     for _ in range(rng.randint(1, 3)))
        target = tuple(rng.randrange(3) for _ in range(k))
        ans = subpower_membership(SubpowerQuery((a_ne,) * k, gens, target))
        if hasattr(ans, "witness"):
            for c in range(k):
                assert terms.evaluate(ans.witness, a_ne,
                                      [g[c] for g in gens]) == target[c]


def test_heterogeneous_columns(sl2, z3a):
    from idemalg.algebra import align_signatures
    s, z = align_signatures([sl2, z3a])
    # one coordinate in each algebra; look for a term that meets in the
    # first and averages in the second: h(x,y,z) works coordinatewise
    q = SubpowerQuery((s, z, z), ((0, 0, 1), (1, 1, 0), (1, 2, 2)),
                      (0, 1, 0))
    ans = subpower_membership(q)
    assert hasattr(ans, "witness")
    w = ans.witness
    assert terms.evaluate(w, s, (0, 1, 1)) == 0
    assert terms.evaluate(w, z, (0, 1, 2)) == 1
    assert terms.evaluate(w, z, (1, 0, 2)) == 0


def test_term_operations_counts_and_witnesses(a_ne, z3a):
    # the idempotent affine clone of the 3-element cyclic group has exactly
    # nine ternary members: x - y + z scaled combinations
    z3_terms = term_operations(z3a, 3)
    assert len(z3_terms) == 9
    for table, witness in z3_terms:
        tab = terms.realize_table(witness, z3a)
        assert tab.table == table
    ne2 = term_operations(a_ne, 2)
    naive = _naive_binary_clone(a_ne)
    assert {t for t, _ in ne2} == naive


def _naive_binary_clone(alg):
    """Independent binary-term enumeration: close the two projection tables
    under pointwise application of the basic operations."""
    n = alg.size
    args = list(product(range(n), repeat=2))
    tables = {tuple(a[0] for a in args), tuple(a[1] for a in args)}
    changed = True
    while changed:
        changed = False
        for op in alg.operations:
            for combo in product(sorted(tables), repeat=op.arity):
                new = tuple(op.apply([c[i] for c in combo], n)
                            for i in range(len(args)))
                if new not in tables:
                    tables.add(new)
                    changed = True
    return tables


def test_unary_term_operations_identity_only(a_ne, a_nms):
    for alg in (a_ne, a_nms):
        tops = term_operations(alg, 1)
        assert len(tops) == 1
        assert tops[0][0] == tuple(range(alg.size))


def test_naive_oracle_agrees_on_small_queries(a_ne, sl2, mj2, z3a):
    for alg in (sl2, mj2, z3a, a_ne):
        for a in range(alg.size):
            for b in range(alg.size):
                if a == b:
                    continue
                q_sl = SubpowerQuery((alg, alg), ((a, b), (b, a)), (b, b))
                fast = subpower_membership(q_sl)
                slow = naive_subpower_membership(q_sl)
                assert isinstance(fast, Absent) == isinstance(slow, Absent)
                if isinstance(fast, Absent):
                    assert fast.closure_size == slow.closure_size


def test_naive_oracle_agrees_on_heterogeneous_queries(sl2, z3a, mj2):
    from idemalg.algebra import align_signatures
    rng = random.Random(31)
    aligned = align_signatures([sl2, z3a, mj2])
    for _ in range(25):
        cols = tuple(rng.choice(aligned) for _ in range(rng.randint(2, 5)))
        gens = tuple(tuple(rng.randrange(c.size) for c in cols)
                     for _ in range(rng.randint(1, 3)))
        target = tuple(rng.randrange(c.size) for c in cols)
        q = SubpowerQuery(cols, gens, target)
        fast = subpower_membership(q)
        slow = naive_subpower_membership(q)
        assert isinstance(fast, Absent) == isinstance(slow, Absent)
        if isinstance(fast, Absent):
            assert fast.closure_size == slow.closure_size


def test_closures_are_freed_without_the_cyclic_gc(monkeypatch, sl2, mj2):
    # a closure must not outlive its last reference in a reference cycle:
    # it holds its column algebras, and they hold their memos
    refs = []

    class Recorded(generate.TupleClosure):
        def __init__(self, *args, **kwargs):
            refs.append(weakref.ref(self))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(generate, "TupleClosure", Recorded)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert isinstance(find_pair_witness(sl2, SEMILATTICE, 0, 1), PairWitness)
        assert isinstance(find_pair_witness(mj2, MAJORITY, 0, 1), PairWitness)
        assert len(refs) == 2
        assert all(r() is None for r in refs)
    finally:
        if was_enabled:
            gc.enable()


def test_provenance_term_deeper_than_the_recursion_limit():
    depth = 3 * sys.getrecursionlimit()
    provenance = [("gen", 0)] + [("step", "f", (i,)) for i in range(depth)]
    expected = terms.proj(0, 1)
    for _ in range(depth):
        expected = terms.app("f", [expected])
    assert provenance_term(provenance, depth, 1) is expected


def test_corrupted_witnesses_raise_under_O(run_optimized):
    # every closure witness is replaced by the first projection, which sends
    # the generators (0, 1), (1, 0) of sl2 x sl2 to (0, 1), not to (0, 0)
    code = (
        "from idemalg import fixtures, generate, terms\n"
        "from idemalg.errors import PostconditionFailed\n"
        "generate.TupleClosure.witness = lambda self, i: terms.proj(0, self.n_generators)\n"
        "print(__debug__)\n"
        "sl2 = fixtures.sl2()\n"
        "query = generate.SubpowerQuery((sl2, sl2), ((0, 1), (1, 0)), (0, 0))\n"
        "for call in (lambda: generate.subpower_membership(query),\n"
        "             lambda: generate.find_pair_witness(sl2, generate.SEMILATTICE, 0, 1)):\n"
        "    try:\n"
        "        call()\n"
        "    except PostconditionFailed as exc:\n"
        "        print(exc)\n")
    assert run_optimized(code) == (
        "False\n"
        "subpower witness p0 gives 1 at coordinate 1, not 0\n"
        "semilattice witness p0 does not send (1, 0) to 0\n")


def test_tuple_closure_rejects_columns_beyond_one_byte():
    big = validate_algebra("big", 257, [("e", 1, list(range(257)))])
    with pytest.raises(TooLarge, match="universe size 257 exceeds analysis bound 256"):
        generate.TupleClosure((big,), ((0,),))


def _random_algebra(rng, name, size, arities):
    ops = []
    for j, ar in enumerate(arities):
        table = [args[0] if len(set(args)) == 1 else rng.randrange(size)
                 for args in product(range(size), repeat=ar)]
        ops.append((f"o{j}", ar, table))
    return validate_algebra(name, size, ops)


def _random_closure_input(rng, arities, max_size, max_k):
    """Columns drawn from up to three random algebras of one signature,
    and 1-3 random generator tuples."""
    algebras = [_random_algebra(rng, f"r{i}", rng.randint(2, max_size), arities)
                for i in range(rng.randint(1, 3))]
    cols = tuple(rng.choice(algebras) for _ in range(rng.randint(1, max_k)))
    gens = tuple(tuple(rng.randrange(c.size) for c in cols)
                 for _ in range(rng.randint(1, 3)))
    return cols, gens


# signature, largest universe, most coordinates, caps: sized so that the
# naive oracle, which applies every operation to every tuple of rows each
# round, stays quick
CLOSURE_CLASSES = (
    ((2,), 4, 9, (20, 100, 400)),
    ((1, 2), 4, 9, (20, 100, 400)),
    ((3,), 4, 9, (10, 25, 50)),
    ((1, 2, 3), 3, 9, (10, 25, 50)),
    ((1, 4), 3, 3, (6, 12)),
    ((2, 4), 2, 3, (6, 12)),
)


def test_subpower_membership_matches_naive_oracle_seeded():
    rng = random.Random(5)
    seen = {Found: 0, Absent: 0, CapExceeded: 0}
    for i in range(240):
        arities, max_size, max_k, caps = CLOSURE_CLASSES[i % len(CLOSURE_CLASSES)]
        cols, gens = _random_closure_input(rng, arities, max_size, max_k)
        target = tuple(rng.randrange(c.size) for c in cols)
        if i % 2:
            # one operation applied to generators: a member of the closure
            name, arity = rng.choice(cols[0].signature)
            args = [rng.choice(gens) for _ in range(arity)]
            target = tuple(alg.apply(name, [g[c] for g in args])
                           for c, alg in enumerate(cols))
        q = SubpowerQuery(cols, gens, target, rng.choice(caps))
        fast = subpower_membership(q)
        slow = naive_subpower_membership(q)
        seen[type(slow)] += 1
        if isinstance(slow, CapExceeded):
            # the closure outgrows the cap in both; the fast engine may
            # meet the target among its first cap + 1 rows
            assert isinstance(fast, (CapExceeded, Found)), (i, fast)
            if isinstance(fast, Found):
                assert fast.closure_size == q.cap + 1, i
        else:
            assert type(fast) is type(slow), (i, fast, slow)
            assert fast.closure_size == slow.closure_size, i
    assert min(seen.values()) >= 30, seen


def _closure_digest(cl):
    h = hashlib.sha256(cl.rows.tobytes())
    h.update(repr(cl.provenance).encode())
    return h.hexdigest()[:16]


def _shared_slice_input(rng, arity, n_ops, max_size, max_k):
    """Columns drawn from 1-2 random algebras with n_ops operations of one
    arity.  After the first, each operation is random, equals an earlier
    one, takes about half of its last-argument slices from an earlier one
    at the same leading arguments, or takes them all at other leading
    arguments (then the diagonal is made idempotent again).  Then 1-3
    random generator tuples."""
    modes = ["random"] + [rng.choice(("random", "equal", "half", "moved"))
                          for _ in range(n_ops - 1)]
    algebras = []
    for i in range(rng.randint(1, 2)):
        size = rng.randint(2, max_size)
        tables = []
        for mode in modes:
            table = [args[0] if len(set(args)) == 1 else rng.randrange(size)
                     for args in product(range(size), repeat=arity)]
            if mode != "random":
                earlier = rng.choice(tables)
                starts = list(range(0, len(table), size))
                sources = rng.sample(starts, len(starts)) if mode == "moved" else starts
                for lo, src in zip(starts, sources):
                    if mode != "half" or rng.random() < 0.5:
                        table[lo:lo + size] = earlier[src:src + size]
                for x in range(size):
                    table[x * sum(size ** e for e in range(arity))] = x
            tables.append(table)
        algebras.append(validate_algebra(
            f"s{i}", size, [(f"o{j}", arity, t) for j, t in enumerate(tables)]))
    cols = tuple(rng.choice(algebras) for _ in range(rng.randint(2, max_k)))
    gens = tuple(tuple(rng.randrange(c.size) for c in cols)
                 for _ in range(rng.randint(1, 3)))
    return cols, gens


def test_closure_discovery_order_is_pinned():
    # rows and provenance of closures with unary and 4-ary operations, one
    # of them cut by its cap; seeds 7 and 5 tell the combinations of
    # leading arguments in C order from other orders of the same set
    got = []
    for seed, arities, cap in ((7, (1, 4), DEFAULT_CAP), (4, (1, 2, 4), 20),
                               (5, (4, 2, 3), DEFAULT_CAP)):
        rng = random.Random(seed)
        cols, gens = _random_closure_input(rng, arities, 3, 6)
        cl = generate.TupleClosure(cols, gens, cap)
        got.append((len(cl), cl.complete, _closure_digest(cl)))
    # three or four operations of one arity, some equal and some sharing
    # last-argument slices, so one signature is induced by several of them:
    # it must be swept by the lowest, with that one's first combination.
    # Seeds 30, 16, 11 and 13 tell this rule from owners that never hand a
    # signature down, from the highest owner, from a takeover that keeps
    # the old registration or the old combination
    for seed, arity, n_ops, cap in ((30, 2, 4, DEFAULT_CAP), (16, 3, 3, DEFAULT_CAP),
                                    (11, 3, 4, DEFAULT_CAP), (13, 3, 4, DEFAULT_CAP),
                                    (1, 3, 4, 100)):
        rng = random.Random(seed)
        cols, gens = _shared_slice_input(rng, arity, n_ops, 4, 6)
        cl = generate.TupleClosure(cols, gens, cap)
        got.append((len(cl), cl.complete, _closure_digest(cl)))
    # 32 columns of a 4-element algebra: row keys of two int64 limbs (g = 30)
    rng = random.Random(9)
    alg = _random_algebra(rng, "w", 4, (1, 2))
    gens = [tuple(rng.randrange(4) for _ in range(32)) for _ in range(2)]
    cl = generate.TupleClosure((alg,) * 32, gens, 150)
    got.append((len(cl), cl.complete, _closure_digest(cl)))
    assert got == [(27, True, "d7eb09f53e29eab0"), (21, False, "1b63870f9c8ee8cb"),
                   (81, True, "2e2957f469d9bd8f"), (243, True, "3d454305d3ff67ea"),
                   (81, True, "cef2dfcbe92acc21"), (16, True, "33fafa879adbcb89"),
                   (64, True, "0a634a2053305be4"), (101, False, "ee0e9b6a1b92371b"),
                   (151, False, "59e5635c450bff6d")]


def test_closures_across_the_dense_key_bound_agree():
    # copies of column 0 add no structure: every row and signature key
    # stays distinct exactly when it was, so rows, provenance and the cap cut
    # must not move when the row keys (base**k) or the signature keys
    # (len(_maps)**k) outgrow the dense slot and fall back to the dict
    for seed, arities, size, cap in ((3, (1, 2), 3, DEFAULT_CAP), (3, (2,), 4, DEFAULT_CAP),
                                     (0, (3,), 3, DEFAULT_CAP), (0, (1, 2, 3), 3, DEFAULT_CAP),
                                     (3, (2,), 4, 30)):
        rng = random.Random(seed)
        alg = _random_algebra(rng, "r", size, arities)
        gens = tuple(tuple(rng.randrange(size) for _ in range(3)) for _ in range(2))
        small = generate.TupleClosure((alg,) * 3, gens, cap)
        assert small._rows._dense and small._sigs._dense
        assert small.complete == (cap == DEFAULT_CAP) and len(small) > 8
        for index, space in (("_rows", size), ("_sigs", len(small._maps))):
            k = next(k for k in range(3, 40) if space ** k > generate._DENSE)
            for wide in (k - 1, k):
                cl = generate.TupleClosure((alg,) * wide, [g + g[:1] * (wide - 3) for g in gens], cap)
                assert getattr(cl, index)._dense == (wide < k), (seed, index, wide)
                assert (len(cl), cl.complete) == (len(small), small.complete)
                assert cl.provenance == small.provenance
                assert (cl.rows[:, :3] == small.rows).all()
                assert (cl.rows[:, 3:] == small.rows[:, :1]).all()


def test_closures_across_the_limb_bound_agree():
    # as above, but until the row keys (base**k) or the signature keys
    # (len(_maps)**k) reach 2**62 and take a second int64 limb
    for seed, arities, size, cap in ((3, (1, 2), 3, DEFAULT_CAP), (0, (3,), 3, DEFAULT_CAP),
                                     (3, (2,), 4, 30)):
        rng = random.Random(seed)
        alg = _random_algebra(rng, "r", size, arities)
        gens = tuple(tuple(rng.randrange(size) for _ in range(3)) for _ in range(2))
        small = generate.TupleClosure((alg,) * 3, gens, cap)
        assert small.complete == (cap == DEFAULT_CAP) and len(small) > 8
        for space in (size, len(small._maps)):
            k = next(k for k in range(3, 80) if space ** k >= 1 << 62)
            for wide in (k - 1, k):
                assert (generate._key_layout(space, wide)[1] == wide) == (wide < k)
                cl = generate.TupleClosure((alg,) * wide, [g + g[:1] * (wide - 3) for g in gens],
                                           cap)
                assert (len(cl), cl.complete) == (len(small), small.complete)
                assert cl.provenance == small.provenance
                assert (cl.rows[:, :3] == small.rows).all()
                assert (cl.rows[:, 3:] == small.rows[:, :1]).all()


def test_sweep_keys_are_row_keys(monkeypatch):
    # every row a closure appends, generators and swept rows alike, carries
    # the key `_row_keys` gives it; base 256 at k = 7, 8, 9 has one, two and
    # two limbs (g = 7), bases 2-6 one, in dense slots or in the dict
    appended = []

    def check(self, rows, keys, picks, mk_prov):
        appended.append(len(rows))
        assert generate._row_keys(rows, self._base).tolist() == keys.tolist()
        append(self, rows, keys, picks, mk_prov)

    append = generate.TupleClosure._append
    monkeypatch.setattr(generate.TupleClosure, "_append", check)
    rng = random.Random(8)
    for size in (2, 3, 4, 5, 6, 256):
        arities = ((1, 2), (2,)) if size == 256 else ((1, 2), (2,), (3,), (2, 3))
        for k in (7, 8, 9):
            for arity in arities:
                alg = _random_algebra(rng, "r", size, arity)
                small = _random_algebra(rng, "s", rng.randint(1, size), arity)
                cols = (alg,) + tuple(rng.choice((alg, small)) for _ in range(k - 1))
                gens = [tuple(rng.randrange(c.size) for c in cols)
                        for _ in range(rng.randint(2, 3))]
                cl = generate.TupleClosure(cols, gens, 40 if 3 in arity else 150)
                ids = cl._rows.get(generate._row_keys(cl.rows, size))
                assert (ids == np.arange(len(cl))).all()
    assert sum(appended) > 3000


def test_wide_closure_rows_are_distinct(c_nef):
    # 36 columns of size 6 take the void row key, generators included
    tables = [table for table, _ in term_operations(c_nef, 2)]
    assert len(set(tables)) == len(tables)
    assert tables[:2] == [tuple(a for a in range(6) for _ in range(6)),
                          tuple(b for _ in range(6) for b in range(6))]


def test_signature_store_holds_each_signature_once(c_nef):
    # the operations of the arity-2 reduct of no-edge-factor induce many
    # equal unary maps; the store keeps one record per signature content,
    # whichever operations induce it
    w = next(w for rep in structure_graph(c_nef).reports for w in rep.witnesses
             if w.label in (SEMILATTICE, MAJORITY))
    red = bounded_reduct(c_nef, w, 2).algebra
    # 24 maps: signature keys of 3 columns fit the dense slot, of 4 do not
    for gens, dense in ((((0, 1, 2), (3, 4, 5)), True),
                        (((0, 1, 2, 3), (3, 4, 5, 0), (5, 0, 1, 4)), False)):
        cl = generate.TupleClosure((red,) * len(gens[0]), gens)
        assert cl.complete and cl._sigs._dense == dense
        # every combination of leading arguments over the rows, per operation
        per_op = [{tuple(tuple(red.op(name).array[tuple(r[c] for r in pre)].tolist())
                         for c in range(cl.k))
                   for pre in product(cl.rows.tolist(), repeat=arity - 1)}
                  for name, arity in red.signature]
        n = cl._sigs.n
        assert n == len(set().union(*per_op)) == len(np.unique(cl._store["ids"][:n], axis=0))
        assert n < sum(map(len, per_op))


def test_lookup_rejects_entries_outside_their_column(sl2, z3a):
    from idemalg.algebra import align_signatures
    s, z = align_signatures([sl2, z3a])
    for cols in ((sl2, sl2), (s, z)):
        cl = generate.TupleClosure(cols, ((0, 1), (1, 0)))
        assert cl.lookup((0, 1)) == 0 and cl.lookup((1, 0)) == 1
        # packed as digits of the widest column, (size, 0) would read as (0, 1)
        for tup in ((cols[0].size, 0), (0, cols[1].size), (255, 255)):
            assert cl.lookup(tup) is None, (cols, tup)


def test_lookup_of_a_tuple_of_the_wrong_length_is_none(sl2):
    cl = generate.TupleClosure((sl2, sl2), ((0, 1), (1, 0)))
    for tup in ((0,), (0, 1, 0), ()):
        assert cl.lookup(tup) is None, tup


def test_prefix_blocks_enumerate_new_combinations_once_in_c_order():
    for length in range(5):
        for cur in range(7):
            for old in range(cur + 1):
                got = [tuple(int(a[j]) for a in idx)
                       for idx, m in generate._prefix_blocks(length, old, cur)
                       for j in range(m)]
                want = [c for c in product(range(cur), repeat=length)
                        if old == 0 or max(c, default=-1) >= old]
                assert got == want, (length, old, cur)
