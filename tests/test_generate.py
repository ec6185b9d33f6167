"""Generation, subpower membership, and the pair-witness queries."""

import gc
import hashlib
import random
import sys
import tracemalloc
import weakref
from collections import Counter
from functools import partial
from itertools import combinations, product

import numpy as np
import pytest
from oracles import naive_subpower_membership, random_idempotent_table

from idemalg import algebra, fixtures, generate, terms
from idemalg.algebra import (
    DEFAULT_CAP,
    DENSE,
    FiniteAlgebra,
    KeyIndex,
    Limits,
    align_signatures,
    distinct_rows,
    key_layout,
    request_scope,
    restrict,
    row_keys,
    validate_algebra,
)
from idemalg.edges import structure_graph
from idemalg.errors import PostconditionFailed, SignatureMismatch, TooLarge, ValidationError
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
    check_absent,
    find_pair_witness,
    generate_subalgebra,
    majority_query,
    pair_search,
    provenance_term,
    search_key,
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


def test_generation_rejects_seeds_out_of_range(a_ne):
    # -1 wrapped around to the last element, 3 indexed past the tables
    for seeds in ([-1], [3], [0, 3]):
        for generate_from in (generate_subalgebra, subuniverse):
            with pytest.raises(ValidationError, match="not in 0..2"):
                generate_from(a_ne, seeds)


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
        "subpower witness p0 gives 1 at coordinate 1, not 0\n")


def test_tuple_closure_rejects_columns_beyond_one_byte():
    big = validate_algebra("big", 257, [("e", 1, list(range(257)))])
    with pytest.raises(TooLarge, match="universe size 257 exceeds analysis bound 256"):
        generate.TupleClosure((big,), ((0,),))


def _random_algebra(rng, name, size, arities):
    ops = []
    for j, ar in enumerate(arities):
        ops.append((f"o{j}", ar, random_idempotent_table(rng, size, ar)))
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
# naive oracle, which applies every operation to every tuple of rows that
# uses a row new in the round before, stays quick
CLOSURE_CLASSES = (
    ((2,), 4, 9, (20, 100, 400)),
    ((1, 2), 4, 9, (20, 100, 400)),
    ((3,), 4, 9, (10, 25, 50)),
    ((1, 2, 3), 3, 9, (10, 25, 50)),
    ((1, 4), 3, 3, (6, 12)),
    ((2, 4), 2, 3, (6, 12)),
)


def _seeded_closure_queries():
    """240 seeded subpower queries over CLOSURE_CLASSES, every other one
    with a target that one operation gives on the generators."""
    rng = random.Random(5)
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
        yield i, SubpowerQuery(cols, gens, target, rng.choice(caps))


def test_subpower_membership_matches_naive_oracle_seeded():
    # a Found closure stops at its target, so the closure sizes are checked
    # on a full closure of the same query, built without a target; the
    # stopped closure must be a prefix of it that holds the same witness
    seen = {Found: 0, Absent: 0, CapExceeded: 0}
    for i, q in _seeded_closure_queries():
        cols, gens, target = q.columns, q.generators, q.target
        fast = subpower_membership(q)
        slow = naive_subpower_membership(q)
        full = generate.TupleClosure(cols, gens, q.cap)
        seen[type(slow)] += 1
        if isinstance(slow, CapExceeded):
            # the closure outgrows the cap in both; the fast engine may
            # meet the target among its first cap + 1 rows
            assert isinstance(fast, (CapExceeded, Found)), (i, fast)
            assert not full.complete and len(full) == q.cap + 1, i
        else:
            assert type(fast) is type(slow), (i, fast, slow)
            assert full.complete and len(full) == slow.closure_size, i
            if isinstance(fast, Absent):
                assert fast.closure_size == slow.closure_size, i
        assert isinstance(fast, Found) == (full.lookup(target) is not None), i
        if isinstance(fast, Found):
            n = fast.closure_size
            stopped = generate.TupleClosure(cols, gens, q.cap, target)
            assert len(stopped) == n <= len(full) and not stopped.complete, i
            assert (stopped.rows == full.rows[:n]).all(), i
            assert stopped.provenance == full.provenance[:n], i
            assert fast.witness.text() == full.witness(full.lookup(target)).text(), i
    assert min(seen.values()) >= 30, seen


def _answer(ans):
    """An answer as plain data: kind, witness text, absorber, closure size,
    and an Absent answer's rows."""
    if isinstance(ans, Found):
        return "found", ans.witness.text(), ans.closure_size
    if isinstance(ans, PairWitness):
        return ans.kind, ans.term.text(), ans.absorber, ans.closure_size
    if isinstance(ans, Absent):
        return "absent", ans.closure_size, ans.rows.tobytes()
    return "cap", ans.cap


def _closures_and_answers(c_nef):
    """The closures, stopped and complete, and the answers of the seeded
    queries, and the binary term operations of no-edge-factor.  A Found
    answer's closure size is the target's row index + 1."""
    got = []
    for i, q in _seeded_closure_queries():
        full = generate.TupleClosure(q.columns, q.generators, q.cap)
        stopped = generate.TupleClosure(q.columns, q.generators, q.cap, q.target)
        ans = subpower_membership(q)
        if isinstance(ans, Found):
            assert ans.closure_size == full.lookup(q.target) + 1 == len(stopped), i
        got.append((i, full.complete, _closure_digest(full), stopped.complete,
                    _closure_digest(stopped), _answer(ans)))
    got.append([(table, w.text()) for table, w in term_operations(c_nef, 2)])
    return got


def test_closures_do_not_depend_on_the_batch_budget(monkeypatch, c_nef):
    # one item per batch (a combination or a signature at a time) and
    # batches larger than any of these closures give the same rows,
    # provenance, completeness and answers, Found closure sizes included
    runs = []
    for budget in (1, 1 << 20):
        monkeypatch.setattr(algebra, "BATCH", budget)
        runs.append(_closures_and_answers(c_nef))
    assert runs[0] == runs[1]


def _pair_answers():
    """Every pair search of every fixture, in one request so that a search
    repeated (Mal'tsev, on every pair) runs once.  A pair witness's closure
    size is its target's row index + 1, unless semilattice settled on its
    second absorber."""
    got = []
    with request_scope(Limits()):
        for name in fixtures.FIXTURES:
            alg = fixtures.fixture(name)
            for (a, b), kind in product(combinations(range(alg.size), 2),
                                        (SEMILATTICE, MAJORITY, MALTSEV)):
                ans = find_pair_witness(alg, kind, a, b)
                if isinstance(ans, PairWitness) and ans.absorber in (None, b):
                    columns, gens, targets = pair_search(alg, kind, a, b)
                    full = generate.TupleClosure(columns, gens)
                    assert ans.closure_size == full.lookup(targets[0]) + 1, (name, a, b, kind)
                got.append((name, a, b, kind, _answer(ans)))
    return got


def test_pair_searches_do_not_depend_on_the_batch_budget(monkeypatch):
    # 64 entries sweep one signature at a time in nearly every one of these
    # closures and register a few combinations at a time; a budget of 1
    # takes about 7 s here, on the ternary majority closures of up to 268 rows
    runs = []
    for budget in (64, 1 << 20):
        monkeypatch.setattr(algebra, "BATCH", budget)
        runs.append(_pair_answers())
    assert runs[0] == runs[1]


def test_absence_probe_peak_memory_is_bounded():
    """The subpower benchmark's absence probe on a 3-element ternary algebra:
    5 coordinates, the last a copy of coordinate j where the target differs,
    so the answer is Absent after a closure of 81 rows.  Its traced peak is
    about 1.1 MB with batches of `algebra.BATCH` entries; batches of 2**19
    took it to 3.4 MB."""
    rng = random.Random(7)
    alg = validate_algebra("t", 3, [("o0", 3, random_idempotent_table(rng, 3, 3))])
    cols = rng.sample([c for c in product(range(3), repeat=2) if c[0] != c[1]], 4)
    j = rng.randrange(4)
    gens = tuple(tuple(c[i] for c in cols + [cols[j]]) for i in range(2))
    target = [rng.randrange(3) for _ in range(4)]
    query = SubpowerQuery((alg,) * 5, gens, (*target, (target[j] + 1) % 3))
    tracemalloc.start()
    try:
        ans = subpower_membership(query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(ans, Absent) and ans.closure_size == 81
    assert peak < 2_200_000, peak


def test_check_absent_matches_naive_oracle_seeded():
    """On the seeded queries, the rows of a complete closure certify absence
    exactly when the oracle answers Absent, and the rows of the Absent
    answers of both engines certify it; the rows of a closure cut at the
    cap certify nothing."""
    outcomes = Counter()
    for i, q in _seeded_closure_queries():
        slow = naive_subpower_membership(q)
        full = generate.TupleClosure(q.columns, q.generators, q.cap)
        check = partial(check_absent, q.columns, q.generators, (q.target,))
        if isinstance(slow, Absent):
            check(full.rows)
            check(slow.rows)
            check(subpower_membership(q).rows)
            outcomes["absent"] += 1
            continue
        if full.complete:
            with pytest.raises(PostconditionFailed, match="hold a target"):
                check(full.rows)
            outcomes["found"] += 1
        else:
            # the closure is cut short of closed, wherever the target is
            with pytest.raises(PostconditionFailed, match="not closed"):
                check_absent(q.columns, q.generators, (), full.rows)
            outcomes["cut"] += 1
    assert min(outcomes.values()) >= 30, outcomes


def _absent_closure(rng, arities):
    """A seeded complete closure, over an algebra with the given arities,
    of at least 8 rows that misses a target; with the target."""
    while True:
        alg = _random_algebra(rng, "r", rng.randint(2, 3), arities)
        cols = (alg,) * rng.randint(2, 4)
        gens = tuple(tuple(rng.randrange(alg.size) for _ in cols) for _ in range(2))
        cl = generate.TupleClosure(cols, gens, 400)
        missed = [t for t in product(range(alg.size), repeat=len(cols))
                  if cl.lookup(t) is None]
        if cl.complete and len(cl) >= 8 and missed:
            return cols, gens, rng.choice(missed), cl


def test_check_absent_rejects_a_dropped_row_and_cut_or_stopped_closures():
    """Each row dropped from a complete closure that misses the target
    breaks the certificate; so does a closure cut at the cap, or stopped at
    a target, passed off as complete.  Several operations of one arity
    exercise the batched signatures."""
    rng = random.Random(16)
    for arities in ((2,), (2, 2, 3, 3), (1, 1, 2)):
        cols, gens, target, cl = _absent_closure(rng, arities)
        check_absent(cols, gens, [target], cl.rows)
        check_absent(cols, (), [target], cl.rows[:0])   # the closure of no generators
        with pytest.raises(PostconditionFailed, match="miss a generator"):
            check_absent(cols, gens, [target], cl.rows[:0])
        for i in range(len(cl)):
            with pytest.raises(PostconditionFailed, match="miss a generator|not closed"):
                check_absent(cols, gens, [target], np.delete(cl.rows, i, axis=0))
        cut = generate.TupleClosure(cols, gens, len(cl) - 2)
        assert not cut.complete
        with pytest.raises(PostconditionFailed, match="not closed"):
            check_absent(cols, gens, [target], cut.rows)
        member = tuple(cl.rows[-1].tolist())
        stopped = generate.TupleClosure(cols, gens, 400, member)
        with pytest.raises(PostconditionFailed, match="hold a target"):
            check_absent(cols, gens, [member], stopped.rows)


def test_check_absent_reads_every_operation_of_an_arity():
    """Rows closed under the first of two binary operations, and not under
    the second, fail on the algebra with both."""
    rng = random.Random(160)
    while True:
        both = _random_algebra(rng, "r", 3, (2, 2))
        first = validate_algebra("r1", 3, [("o0", 2, both.op("o0").table)])
        gens = ((0, 1, 2), (1, 2, 0))
        one = generate.TupleClosure((first,) * 3, gens)
        if len(generate.TupleClosure((both,) * 3, gens)) > len(one):
            break
    check_absent((first,) * 3, gens, [], one.rows)
    with pytest.raises(PostconditionFailed, match="not closed under the operations"):
        check_absent((both,) * 3, gens, [], one.rows)


def test_check_absent_on_keys_of_several_limbs(sl2):
    """63 columns of a two-element algebra need row keys of two limbs."""
    rng = random.Random(63)
    cols = (sl2,) * 63
    gens = tuple(tuple(rng.randrange(2) for _ in cols) for _ in range(3))
    cl = generate.TupleClosure(cols, gens)
    target = next(t for t in product((0, 1), repeat=63) if cl.lookup(t) is None)
    assert cl.complete and len(key_layout(2, 63)[0]) == 63 and key_layout(2, 63)[1] < 63
    check_absent(cols, gens, [target], cl.rows)
    for i in range(len(cl)):
        with pytest.raises(PostconditionFailed, match="miss a generator|not closed"):
            check_absent(cols, gens, [target], np.delete(cl.rows, i, axis=0))


def test_check_absent_raises_under_O(run_optimized):
    code = (
        "import numpy as np\n"
        "from idemalg import fixtures, generate\n"
        "from idemalg.errors import PostconditionFailed\n"
        "alg = fixtures.no_majority_symmetry()\n"
        "q = generate.majority_query(alg, 0, 1)\n"
        "full = generate.TupleClosure(q.columns, q.generators)\n"
        "cut = generate.TupleClosure(q.columns, q.generators, 20)\n"
        "print(__debug__, full.complete, cut.complete)\n"
        "for rows in (np.delete(full.rows, 5, axis=0), cut.rows):\n"
        "    try:\n"
        "        generate.check_absent(q.columns, q.generators, [q.target], rows)\n"
        "    except PostconditionFailed as exc:\n"
        "        print(exc)\n")
    out = run_optimized(code).splitlines()
    assert out[0] == "False True False" and len(out) == 3
    assert all("not closed under the operations" in line for line in out[1:])


def test_closure_stops_at_a_generator_target(a_ne):
    gens = ((0, 2), (0, 2), (2, 0))
    cl = generate.TupleClosure((a_ne, a_ne), gens, target=(2, 0))
    assert len(cl) == 2 and not cl.complete
    assert cl.provenance == [("gen", 0), ("gen", 2)]
    ans = subpower_membership(SubpowerQuery((a_ne, a_ne), gens, (2, 0)))
    assert ans == Found(terms.proj(2, 3), 2)
    # without a target the closure runs on past the generators
    assert len(generate.TupleClosure((a_ne, a_ne), gens)) > 2


def test_semilattice_search_keeps_absorber_b_when_a_a_comes_first():
    # (0, 0) is row 6 and (1, 1) row 8 of the closure of (0, 1), (1, 0): a
    # closure stopped at (0, 0) would answer absorber 0
    alg = validate_algebra("r", 3, [("f", 2, [0, 0, 2, 2, 1, 0, 1, 2, 2])])
    full = generate.TupleClosure((alg, alg), ((0, 1), (1, 0)))
    assert (full.lookup((0, 0)), full.lookup((1, 1)), len(full)) == (6, 8, 9)
    got = find_pair_witness(alg, SEMILATTICE, 0, 1)
    assert (got.absorber, got.closure_size) == (1, 9)
    assert got.term.text() == full.witness(8).text()


def test_closure_stops_at_a_target_keyed_by_two_limbs():
    # the Mal'tsev query of x - y + z mod 5 has 40 columns of base 5: row
    # keys of two int64 limbs; its complete closure is the 25 idempotent
    # affine ternary operations
    z5 = validate_algebra("z5", 5, [("h", 3, [(x - y + z) % 5 for x, y, z in
                                             product(range(5), repeat=3)])])
    q = generate.maltsev_query(z5)
    assert len(q.columns) == 40 and key_layout(5, 40)[1] < 40
    full = generate.TupleClosure(q.columns, q.generators, q.cap)
    assert full.complete and len(full) == 25
    stopped = generate.TupleClosure(q.columns, q.generators, q.cap, q.target)
    hit = full.lookup(q.target)
    # the stop comes right after the target's row
    assert len(stopped) == hit + 1 < 25 and not stopped.complete
    assert (stopped.rows == full.rows[:len(stopped)]).all()
    assert stopped.provenance == full.provenance[:len(stopped)]
    ans = subpower_membership(q)
    assert ans.witness.text() == full.witness(hit).text() == "h(p0, p1, p2)"
    assert ans.closure_size == len(stopped)


# find_pair_witness(fixture, kind, a, b) for SEMILATTICE, MAJORITY and MALTSEV:
# (kind, term text, absorber) or ("absent", closure size)
PAIR_WITNESSES = {
    ('no-edge', 0, 1): (('absent', 7), ('absent', 67), ('absent', 34)),
    ('no-edge', 0, 2): (('semilattice', 'f(p0, p1)', 2), ('absent', 7), ('absent', 34)),
    ('no-edge', 1, 2): (('semilattice', 'f(p0, p1)', 2), ('absent', 7), ('absent', 34)),
    ('no-edge-factor', 0, 1): (('absent', 2), ('majority', 'm(p0, p1, p2)', None), ('absent', 102)),
    ('no-edge-factor', 0, 2): (('absent', 7), ('absent', 67), ('absent', 102)),
    ('no-edge-factor', 0, 3): (('absent', 14), ('absent', 268), ('absent', 102)),
    ('no-edge-factor', 0, 4): (('semilattice', 'f(p0, p1)', 4), ('absent', 7), ('absent', 102)),
    ('no-edge-factor', 0, 5): (('absent', 6), ('absent', 28), ('absent', 102)),
    ('no-edge-factor', 1, 2): (('absent', 14), ('absent', 268), ('absent', 102)),
    ('no-edge-factor', 1, 3): (('absent', 7), ('absent', 67), ('absent', 102)),
    ('no-edge-factor', 1, 4): (('absent', 6), ('absent', 28), ('absent', 102)),
    ('no-edge-factor', 1, 5): (('semilattice', 'f(p0, p1)', 5), ('absent', 7), ('absent', 102)),
    ('no-edge-factor', 2, 3): (('absent', 2), ('majority', 'm(p0, p1, p2)', None), ('absent', 102)),
    ('no-edge-factor', 2, 4): (('semilattice', 'f(p0, p1)', 4), ('absent', 7), ('absent', 102)),
    ('no-edge-factor', 2, 5): (('absent', 6), ('absent', 28), ('absent', 102)),
    ('no-edge-factor', 3, 4): (('absent', 6), ('absent', 28), ('absent', 102)),
    ('no-edge-factor', 3, 5): (('semilattice', 'f(p0, p1)', 5), ('absent', 7), ('absent', 102)),
    ('no-edge-factor', 4, 5): (('absent', 2), ('majority', 'm(p0, p1, p2)', None), ('absent', 102)),
    ('no-majority-symmetry', 0, 1): (('absent', 8), ('absent', 128), ('absent', 48)),
    ('no-majority-symmetry', 0, 2): (('absent', 2), ('absent', 4), ('absent', 48)),
    ('no-majority-symmetry', 0, 3): (('absent', 8), ('absent', 128), ('absent', 48)),
    ('no-majority-symmetry', 1, 2): (('absent', 8), ('absent', 128), ('absent', 48)),
    ('no-majority-symmetry', 1, 3): (('absent', 2), ('absent', 4), ('absent', 48)),
    ('no-majority-symmetry', 2, 3): (('absent', 8), ('absent', 128), ('absent', 48)),
    ('z3-affine', 0, 1): (('absent', 3), ('absent', 9), ('maltsev', 'h(p0, p1, p2)', None)),
    ('z3-affine', 0, 2): (('absent', 3), ('absent', 9), ('maltsev', 'h(p0, p1, p2)', None)),
    ('z3-affine', 1, 2): (('absent', 3), ('absent', 9), ('maltsev', 'h(p0, p1, p2)', None)),
    ('sl2', 0, 1): (('semilattice', 'meet(p0, p1)', 0), ('absent', 7), ('absent', 6)),
    ('mj2', 0, 1): (('absent', 2), ('majority', 'maj(p0, p1, p2)', None), ('absent', 3)),
}


def test_pair_witnesses_are_pinned():
    from idemalg import fixtures
    got = {}
    for name in fixtures.FIXTURES:
        alg = fixtures.fixture(name)
        for a, b in combinations(range(alg.size), 2):
            answers = []
            for kind in (SEMILATTICE, MAJORITY, MALTSEV):
                ans = find_pair_witness(alg, kind, a, b)
                assert isinstance(ans, (PairWitness, Absent)), (name, a, b, kind)
                answers.append((ans.kind, ans.term.text(), ans.absorber)
                               if isinstance(ans, PairWitness) else ("absent", ans.closure_size))
            got[name, a, b] = tuple(answers)
    assert got == PAIR_WITNESSES


def test_pair_witness_and_query_elements_are_checked(a_ne):
    for kind in (SEMILATTICE, MAJORITY):
        for a, b in ((-1, 0), (0, 3)):
            with pytest.raises(ValidationError, match="not in 0..2"):
                find_pair_witness(a_ne, kind, a, b)
    for gens, target in ((((0, -1),), (0, 0)), (((0, 1),), (3, 0))):
        with pytest.raises(ValidationError, match="not in 0..2"):
            SubpowerQuery((a_ne, a_ne), gens, target)
    with pytest.raises(ValidationError, match="coordinate count"):
        SubpowerQuery((a_ne, a_ne), ((0, 1),), (0,))


def test_key_index_absent_agrees_on_dense_slots_and_the_dict():
    rng = np.random.default_rng(4)
    added = np.unique(rng.integers(0, 500, 120))
    batch = rng.integers(0, 500, 300)
    want = np.flatnonzero(~np.isin(batch, added))
    for space in (500, DENSE + 1):
        index = KeyIndex(space)
        index.add(added)
        assert index._dense == (space == 500)
        assert index.absent(batch).tolist() == want.tolist()
        assert index.absent(batch[:0]).tolist() == []


def test_key_index_number_agrees_on_dense_slots_and_the_dict():
    # batches with repeats and keys already present, against a dict: the
    # first occurrences, their ids (absent keys take the next ones, in batch
    # order) and which were absent
    rng = np.random.default_rng(6)
    batches = [rng.integers(0, 300, 200) for _ in range(4)]
    batches += [np.array([7, 7, 7]), np.array([], int)]
    for space in (300, DENSE + 1):
        index, ref = KeyIndex(space), {5: 0, 17: 1, 250: 2}
        index.add(np.array([5, 17, 250]))
        assert index._dense == (space == 300)
        for batch in batches:
            first, ids, new = index.number(batch)
            listed = batch.tolist()
            assert first.tolist() == [j for j, key in enumerate(listed) if listed.index(key) == j]
            keys = batch[first].tolist()
            assert new.tolist() == [key not in ref for key in keys]
            for key in keys:
                ref.setdefault(key, len(ref))
            assert ids.tolist() == [ref[key] for key in keys] and index.n == len(ref)
            assert index.get(batch).tolist() == [ref[key] for key in listed]


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
            table = random_idempotent_table(rng, size, arity)
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
            k = next(k for k in range(3, 40) if space ** k > DENSE)
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
                assert (key_layout(space, wide)[1] == wide) == (wide < k)
                cl = generate.TupleClosure((alg,) * wide, [g + g[:1] * (wide - 3) for g in gens],
                                           cap)
                assert (len(cl), cl.complete) == (len(small), small.complete)
                assert cl.provenance == small.provenance
                assert (cl.rows[:, :3] == small.rows).all()
                assert (cl.rows[:, 3:] == small.rows[:, :1]).all()


def test_sweep_keys_are_row_keys(monkeypatch):
    # every row a closure appends, generators and swept rows alike, carries
    # the key `row_keys` gives it; base 256 at k = 7, 8, 9 has one, two and
    # two limbs (g = 7), bases 2-6 one, in dense slots or in the dict.
    # `distinct_rows` over the rows, repeated out of order and with copies
    # that differ only in the last column (with two limbs, only in the
    # second), finds the distinct rows of `np.unique(axis=0)`, each at its
    # first position
    appended = []

    def check(self, rows, provenance):
        # numbered before they are appended, under the keys `row_keys` gives them
        appended.append(len(rows))
        ids = self._rows.get(row_keys(rows, self._base))
        assert ids.tolist() == list(range(self.n, self.n + len(rows)))
        append(self, rows, provenance)

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
                ids = cl._rows.get(row_keys(cl.rows, size))
                assert (ids == np.arange(len(cl))).all()
                moved = cl.rows.astype(int)
                moved[:, -1] = (moved[:, -1] + 1) % size
                batch = np.concatenate([cl.rows[1::2], moved, cl.rows, cl.rows[::3]])
                first, inv = distinct_rows(batch, size)
                assert (batch[first][inv] == batch).all()
                assert (first[inv] <= np.arange(len(batch))).all()
                want = np.unique(batch, axis=0)
                assert len(first) == len(want)
                assert {tuple(r) for r in batch[first].tolist()} == {tuple(r) for r in want.tolist()}
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
        assert n == len(set().union(*per_op)) == len(np.unique(cl._map_ids[:n], axis=0))
        assert n < sum(map(len, per_op))


def test_tuple_closure_raises_the_package_errors(sl2, mj2, z3a):
    with pytest.raises(SignatureMismatch, match="sl2 and mj2 differ"):
        generate.TupleClosure((sl2, mj2), ((0, 1),))
    s, z = align_signatures([sl2, z3a])
    for cols, gens in (((sl2, sl2), ((0, 2),)), ((sl2, sl2), ((-1, 0),)),
                       ((s, z), ((0, 2), (2, 0))), ((z, s), ((1, 1), (0, 256)))):
        with pytest.raises(ValidationError, match="out of range"):
            generate.TupleClosure(cols, gens)
    for gens in (((0, 1), (1,)), ((0, 1, 0),)):
        with pytest.raises(ValidationError, match="coordinate count"):
            generate.TupleClosure((sl2, sl2), gens)
    for call in (lambda: generate.TupleClosure((), ((),)),
                 lambda: subpower_membership(SubpowerQuery((), ((),), ()))):
        with pytest.raises(ValidationError, match="at least one coordinate"):
            call()


def test_pair_queries_check_the_pair_before_building(sl2):
    """A pair query over one element would have no coordinates."""
    for kind in (SEMILATTICE, MAJORITY):
        with pytest.raises(ValueError, match="need two distinct elements"):
            find_pair_witness(sl2, kind, 1, 1)
        with pytest.raises(ValidationError, match="element 2 is not in 0..1"):
            find_pair_witness(sl2, kind, 0, 2)
    with pytest.raises(ValueError, match="need two distinct elements"):
        majority_query(sl2, 0, 0)


def test_search_key_is_the_content_of_the_search(sl2, z3a):
    """Mal'tsev reads no pair, majority sorts its columns, semilattice
    keeps the order of its generators."""
    assert search_key(z3a, MALTSEV, 0, 0, 9) == search_key(z3a, MALTSEV, 1, 2, 9)
    assert search_key(sl2, MAJORITY, 0, 1, 9) == search_key(sl2, MAJORITY, 1, 0, 9)
    assert search_key(sl2, SEMILATTICE, 0, 1, 9) != search_key(sl2, SEMILATTICE, 1, 0, 9)
    assert search_key(sl2, SEMILATTICE, 0, 1, 9) != search_key(sl2, SEMILATTICE, 0, 1, 8)


def _copy(alg):
    """An algebra equal to alg, with no memo of its own yet."""
    return validate_algebra(alg.name, alg.size,
                            [(op.name, op.arity, op.table) for op in alg.operations])


MAPS_KEY = ("closure maps",)


def test_map_table_memo_matches_fresh_algebras_and_the_oracle():
    # a closure on an algebra that already holds the map table must build
    # what one on a fresh, equal algebra builds, and the answers must be
    # the oracle's; equal algebras keep a table each
    rng = random.Random(12)
    seen = {Found: 0, Absent: 0, CapExceeded: 0}
    for i in range(120):
        arities, max_size, max_k, caps = CLOSURE_CLASSES[i % len(CLOSURE_CLASSES)]
        warm = _random_algebra(rng, "r", rng.randint(2, max_size), arities)
        cols = (warm,) * rng.randint(1, max_k)
        gens = tuple(tuple(rng.randrange(warm.size) for _ in cols)
                     for _ in range(rng.randint(1, 3)))
        target = tuple(rng.randrange(warm.size) for _ in cols)
        cap = rng.choice(caps)
        first = generate.TupleClosure(cols, gens, cap)
        table = warm._memo[MAPS_KEY]
        fresh = _copy(warm)
        assert fresh == warm and MAPS_KEY not in fresh._memo
        again = generate.TupleClosure(cols, gens, cap)
        assert again._maps is table[0]
        other = generate.TupleClosure((fresh,) * len(cols), gens, cap)
        assert fresh._memo[MAPS_KEY] is not table
        assert not np.shares_memory(fresh._memo[MAPS_KEY][0], table[0])
        for cl in (again, other):
            assert (len(cl), cl.complete) == (len(first), first.complete), i
            assert (cl.rows == first.rows).all() and cl.provenance == first.provenance, i
        answers = [subpower_membership(SubpowerQuery(c, gens, target, cap))
                   for c in (cols, (fresh,) * len(cols))]
        slow = naive_subpower_membership(SubpowerQuery(cols, gens, target, cap))
        seen[type(slow)] += 1
        assert answers[0] == answers[1], i
        if isinstance(slow, CapExceeded):
            assert isinstance(answers[0], (CapExceeded, Found)), i
        else:
            assert type(answers[0]) is type(slow), i
            if isinstance(slow, Absent):
                assert answers[0] == slow, i
    assert min(seen.values()) >= 5, seen


def test_mixed_columns_never_read_a_single_algebra_memo(monkeypatch, sl2, z3a):
    s, z = align_signatures([sl2, z3a])
    for alg in (s, z):
        generate.TupleClosure((alg, alg), ((0, 1), (1, 0)))
        assert alg._memo[MAPS_KEY][0].shape[1] == alg.size
    asked = []
    memoized = FiniteAlgebra.memoized

    def record(self, key, compute):
        asked.append(key)
        return memoized(self, key, compute)

    monkeypatch.setattr(FiniteAlgebra, "memoized", record)
    rng = random.Random(3)
    for _ in range(20):
        cols = tuple(rng.choice((s, z)) for _ in range(rng.randint(2, 5)))
        cols = cols if s in cols and z in cols else (s, z) + cols
        gens = tuple(tuple(rng.randrange(c.size) for c in cols)
                     for _ in range(rng.randint(1, 3)))
        target = tuple(rng.randrange(c.size) for c in cols)
        cl = generate.TupleClosure(cols, gens)
        # padded to the widest column: a size-2 table of s would not do
        assert cl._maps.shape[1] == 3
        copies = {id(s): _copy(s), id(z): _copy(z)}
        twin = generate.TupleClosure(tuple(copies[id(c)] for c in cols), gens)
        assert cl.provenance == twin.provenance and (cl.rows == twin.rows).all()
        fast = subpower_membership(SubpowerQuery(cols, gens, target))
        slow = naive_subpower_membership(SubpowerQuery(cols, gens, target))
        assert type(fast) is type(slow)
        if isinstance(slow, Absent):
            assert fast == slow
    assert MAPS_KEY not in asked


def _registered_keys_are_row_keys(monkeypatch, columns, gens, cap=DEFAULT_CAP):
    """Close the generators, recording each registration block and the
    signature keys it numbers; rebuild each block's signature array from
    the operation tables, map ids read off `_maps` by content, and compare
    its `row_keys` with the recorded keys."""
    blocks, numbered = [], []
    prefix_blocks, number = generate._prefix_blocks, KeyIndex.number

    def record_blocks(length, old, cur, chunk):
        for idx, m in prefix_blocks(length, old, cur, chunk):
            blocks.append((length + 1, [a.tolist() for a in idx], m))
            yield idx, m

    def record_number(self, keys):
        numbered.append((self, keys.copy()))
        return number(self, keys)

    monkeypatch.setattr(generate, "_prefix_blocks", record_blocks)
    monkeypatch.setattr(KeyIndex, "number", record_number)
    cl = generate.TupleClosure(columns, gens, cap)
    monkeypatch.undo()
    keys = [k for index, k in numbered if index is cl._sigs]
    assert len(keys) == len(blocks) > 0
    ids = {tuple(r): i for i, r in enumerate(cl._maps.tolist())}
    base, rows = cl._maps.shape[1], cl.rows.tolist()
    for (arity, idx, m), got in zip(blocks, keys):
        names = [name for name, a in cl.signature if a == arity]
        sig = np.empty((len(names), m, cl.k), np.int64)
        for c, alg in enumerate(columns):
            for i, name in enumerate(names):
                for j in range(m):
                    last = alg.op(name).array[tuple(rows[a[j]][c] for a in idx)].tolist()
                    sig[i, j, c] = ids[tuple(last + last[-1:] * (base - alg.size))]
        assert row_keys(sig.reshape(-1, cl.k), len(cl._maps)).tolist() == got.tolist()
    return cl


def test_summed_signature_keys_are_row_keys(monkeypatch, c_nef):
    # one limb in dense slots, mixed columns included
    for seed in range(6):
        rng = random.Random(seed)
        cols, gens = _random_closure_input(rng, (1, 2, 3), 3, 5)
        cl = _registered_keys_are_row_keys(monkeypatch, cols, gens, 60)
        assert cl._sigs._dense and key_layout(len(cl._maps), cl.k)[1] == cl.k
    # one limb in the dict: copies of column 0 until len(_maps)**k passes DENSE
    rng = random.Random(3)
    alg = _random_algebra(rng, "r", 3, (1, 2))
    gens = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(2)]
    nmaps = len(generate.TupleClosure((alg,) * 3, gens)._maps)
    k = next(k for k in range(3, 40) if nmaps ** k > DENSE)
    cl = _registered_keys_are_row_keys(monkeypatch, (alg,) * k,
                                       [g + g[:1] * (k - 3) for g in gens])
    assert not cl._sigs._dense and key_layout(len(cl._maps), k)[1] == k
    # several limbs: the binary term operations of no-edge-factor, 36 columns
    gens = [tuple(a for a in range(6) for _ in range(6)),
            tuple(b for _ in range(6) for b in range(6))]
    cl = _registered_keys_are_row_keys(monkeypatch, (c_nef,) * 36, gens)
    assert cl.complete and key_layout(len(cl._maps), 36)[1] < 36


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
    for length, cur, chunk in product(range(5), range(7), (1, 5, 1 << 14)):
        for old in range(cur + 1):
            blocks = list(generate._prefix_blocks(length, old, cur, chunk))
            got = [tuple(int(a[j]) for a in idx) for idx, m in blocks for j in range(m)]
            want = [c for c in product(range(cur), repeat=length)
                    if old == 0 or max(c, default=-1) >= old]
            assert got == want, (length, old, cur, chunk)
            assert all(0 < m <= chunk for _, m in blocks), (length, old, cur, chunk)


def test_closure_of_no_generators_is_empty_and_complete(a_ne):
    """Numpy could not reshape the empty round table; the closure of no
    tuples is empty, and Absent is certified by its (0, k) rows."""
    query = SubpowerQuery((a_ne, a_ne), (), (1, 0), 10)
    answer = subpower_membership(query)
    assert answer == Absent(0) and answer.rows.shape == (0, 2)
    check_absent(query.columns, (), [query.target], answer.rows)
    cl = generate.TupleClosure((a_ne,) * 3, [], 10)
    assert cl.complete and len(cl) == 0 and cl.lookup((0, 0, 0)) is None


@pytest.mark.parametrize("cap", [2.5, -1, 0, "5", None])
def test_closures_and_limits_reject_a_cap_below_one_or_not_an_integer(a_ne, cap):
    """A fractional cap failed in the sweep's cut with a bare TypeError, and
    cap = -1 built a row and reported CapExceeded(-1)."""
    with pytest.raises(ValidationError, match="cap .* is not an integer of at least 1"):
        subpower_membership(SubpowerQuery((a_ne, a_ne), ((0, 1), (1, 0)), (2, 2), cap))
    with pytest.raises(ValidationError, match="cap .* is not an integer of at least 1"):
        Limits(cap=cap)
    if cap is not None:
        with pytest.raises(ValidationError, match="max_size .* is not an integer of at least 1"):
            Limits(max_size=cap)


def test_limits_accept_integer_bounds():
    assert Limits(cap=np.int64(3), max_size=1).cap == 3
    assert Limits(max_size=None).max_size is None


def test_second_closure_over_one_algebra_and_k_reuses_the_layout(sl2):
    """The layout (maps, groups with their limb weights, limb count) is
    built once per (algebra, k) and shared, read-only, by its closures."""
    first = generate.TupleClosure((sl2, sl2), ((0, 1), (1, 0)))
    again = generate.TupleClosure((sl2, sl2), ((1, 1), (0, 1)), 5, (1, 1))
    assert again._groups is first._groups and again._maps is first._maps
    wider = generate.TupleClosure((sl2,) * 3, ((0, 1, 1), (1, 0, 1)))
    assert wider._groups is not first._groups and wider._maps is first._maps
    arrays = [first._maps] + [a for _, ops, parts in first._groups
                              for a in (ops, *(x for part in parts for x in part))]
    assert not any(a.flags.writeable for a in arrays)
