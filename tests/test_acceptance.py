"""Acceptance criteria.

Each test reproduces one criterion end to end at its stated tolerance
(exact matches, zero counterexamples, wall-clock budgets) and prints one
pass/fail line.  Expected values are frozen from the worked examples or
recomputed here by independent oracles; nothing is asserted that was not
computed or verified.
"""

import random
import time
from itertools import combinations, product

from oracles import (apply_op, find_isomorphism, is_abelian_brute, naive_subpower_membership,
                     projection_index)

from idemalg import fixtures, terms, thin
from idemalg.algebra import quotient, restrict, validate_algebra
from idemalg.congruence import (
    Congruence,
    cg,
    congruence_lattice,
    is_abelian,
    maximal_congruences,
    tolerance_generated,
)
from idemalg.algebra import is_closed_subset
from idemalg.edges import (
    AFFINE,
    MAJORITY,
    SEMILATTICE,
    classify_pair,
    is_connected,
    is_smooth,
    structure_graph,
)
from idemalg.generate import (
    Absent,
    MALTSEV,
    MAJORITY as MAJ_KIND,
    SEMILATTICE as SL_KIND,
    SubpowerQuery,
    all_subalgebras,
    find_pair_witness,
    majority_query,
    maltsev_query,
    subpower_membership,
)
from idemalg.synthesis import (
    affine_pair,
    affine_stable_ops,
    majority_triple,
    mixed_pair,
    uniform_ops,
)
from idemalg.terms import evaluate, realize_table
from idemalg.thin import (
    SPECIAL_THIN_MAJORITY,
    THIN_AFFINE,
    THIN_SEMILATTICE,
    find_special_thin_majority,
    find_thin_affine,
    satisfies_sls,
    thin_graph,
    thin_semilattice_order,
)

ALL_FIXTURES = ("no-edge", "no-edge-factor", "no-majority-symmetry",
                "z3-affine", "sl2", "mj2")


def _report(num: int, text: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    print(f"[criterion {num:2d}] PASS ({elapsed:6.2f}s / budget {budget:g}s) {text}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_no_edge_reproduction():
    t0 = time.perf_counter()
    alg = fixtures.no_edge()
    assert classify_pair(alg, 0, 2).labels == {SEMILATTICE}
    assert classify_pair(alg, 1, 2).labels == {SEMILATTICE}
    ab = classify_pair(alg, 0, 1)
    assert not ab.is_edge and not ab.is_unknown
    lattice = congruence_lattice(alg)
    assert [str(c) for c in lattice] == ["{0|1|2}", "{0,1,2}"]   # simple
    assert is_connected(structure_graph(alg))
    _report(1, "no-edge pairs, simplicity, connectivity", t0, 1.0)


def test_criterion_02_no_edge_factor_reproduction():
    t0 = time.perf_counter()
    c = fixtures.no_edge_factor()
    a_prime, _ = fixtures.factors_of_no_edge_factor()
    rep = classify_pair(c, 0, 3)            # ((a,0), (b,1))
    assert rep.labels == {MAJORITY}
    assert len(rep.witnesses) == 1
    pi2 = Congruence.from_blocks(6, [(0, 2, 4), (1, 3, 5)])
    assert rep.witnesses[0].theta_parent_blocks() == pi2.blocks
    pi1 = Congruence.from_blocks(6, [(0, 1), (2, 3), (4, 5)])
    assert pi1 in maximal_congruences(c)    # it is available yet labels nothing
    quot, bmap = quotient(c, pi1.blocks)
    assert find_isomorphism(quot, a_prime) is not None
    assert not classify_pair(quot, bmap[0], bmap[3]).is_edge
    _report(2, "no-edge-factor majority via the second kernel only", t0, 5.0)


def test_criterion_03_no_majority_symmetry_reproduction():
    t0 = time.perf_counter()
    alg = fixtures.no_majority_symmetry()
    theta = Congruence.from_blocks(4, [(0, 2), (1, 3)])
    assert theta in maximal_congruences(alg)
    for a in (0, 2):
        for b in (1, 3):
            rep = classify_pair(alg, a, b)
            assert rep.labels == {MAJORITY}
            assert rep.witnesses[0].theta_parent_blocks() == theta.blocks
            ans = find_pair_witness(alg, MAJ_KIND, a, b)
            assert isinstance(ans, Absent)      # complete closure, no cap hit
    _report(3, "no-majority-symmetry: majority edges without majority terms",
            t0, 60.0)


def test_criterion_04_connectedness_property_suite():
    t0 = time.perf_counter()
    checked = 0
    for name in ALL_FIXTURES:
        alg = fixtures.fixture(name)
        for sub in sorted(all_subalgebras(alg), key=sorted):
            if len(sub) < 2:
                continue
            b_alg, _ = restrict(alg, sorted(sub))
            assert is_connected(structure_graph(b_alg)), (name, sub)
            checked += 1
    _report(4, f"pair graph connected on {checked} subalgebras", t0, 60.0)


def test_criterion_05_tolerance_class_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(20240817)
    total = 0
    while total < 200:
        for name in ALL_FIXTURES:
            alg = fixtures.fixture(name)
            n = alg.size
            pairs = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(0, 3))]
            for cls in tolerance_generated(alg, pairs).classes():
                assert is_closed_subset(alg, cls), (name, pairs, cls)
            total += 1
            if total == 200:
                break
    _report(5, "200 seeded tolerances, every class closed", t0, 120.0)


def test_criterion_06_edge_lemma_suites():
    t0 = time.perf_counter()
    for name in ALL_FIXTURES:
        alg = fixtures.fixture(name)
        graph = structure_graph(alg)
        # block mates inherit the witnessed type
        for rep in graph.reports:
            for w in rep.witnesses:
                for cc in w.parent_block(w.a_block):
                    for dd in w.parent_block(w.b_block):
                        assert w.label in graph.report(cc, dd).labels
        # classification is absolute between subalgebras and the algebra
        for sub in all_subalgebras(alg):
            if len(sub) < 2 or len(sub) == alg.size:
                continue
            emb = tuple(sorted(sub))
            b_alg, _ = restrict(alg, emb)
            for i, j in combinations(range(b_alg.size), 2):
                assert classify_pair(b_alg, i, j).labels == \
                    classify_pair(alg, emb[i], emb[j]).labels
        # quotient edges lift with their types
        for theta in congruence_lattice(alg):
            if theta.is_equality or theta.is_total:
                continue
            quot, _ = quotient(alg, theta.blocks)
            for qa, qb in combinations(range(quot.size), 2):
                qrep = classify_pair(quot, qa, qb)
                if qrep.is_edge:
                    a, b = theta.blocks[qa][0], theta.blocks[qb][0]
                    assert qrep.labels <= classify_pair(alg, a, b).labels
    _report(6, "many-edges / edge-subalgebra / edge-factor, zero counterexamples",
            t0, 120.0)


def test_criterion_07_uniform_operations():
    t0 = time.perf_counter()
    ops = uniform_ops([fixtures.sl2(), fixtures.mj2(), fixtures.z3_affine()])
    assert ops.report.all_green
    sl, mj, z3 = ops.inventory.algebras
    assert realize_table(ops.f, sl).table == (0, 0, 0, 1)        # semilattice
    assert projection_index(realize_table(ops.f, mj), 2) == 0
    assert projection_index(realize_table(ops.f, z3), 3) == 0
    gt = realize_table(ops.g, mj)
    assert all(apply_op(gt, p, 2) == (1 if sum(p) >= 2 else 0)
               for p in product(range(2), repeat=3))
    assert projection_index(realize_table(ops.g, z3), 3) == 0
    ht = realize_table(ops.h, z3)
    assert all(apply_op(ht, (x, x, y), 3) == y and apply_op(ht, (y, x, x), 3) == y
               for x in range(3) for y in range(3))
    assert projection_index(realize_table(ops.h, mj), 2) == 0
    _report(7, "unified f, g, h verified exhaustively on {sl2, mj2, z3-affine}",
            t0, 30.0)


def test_criterion_08_shift_condition_everywhere():
    t0 = time.perf_counter()
    for name in ALL_FIXTURES:
        ops = uniform_ops([fixtures.fixture(name)])
        alg = ops.inventory.algebras[0]
        assert satisfies_sls(alg, ops.f) is None, name
        # still semilattice on every thick semilattice edge
        graph = structure_graph(alg)
        for rep in graph.reports:
            for w in rep.witnesses:
                if w.label != SEMILATTICE:
                    continue
                qt = realize_table(ops.f, w.quotient)
                assert apply_op(qt, (w.a_block, w.b_block), w.quotient.size) == \
                    apply_op(qt, (w.b_block, w.a_block), w.quotient.size)
    _report(8, "shift condition and edge behaviour on every fixture", t0, 60.0)


def test_criterion_09_thin_edge_suites():
    t0 = time.perf_counter()
    members = [fixtures.fixture(n) for n in
               ("sl2", "mj2", "z3-affine", "no-edge", "no-majority-symmetry")]
    ops = uniform_ops(members)
    sl_edges, maj_edges, aff_edges = [], [], []
    order_of = {}
    for alg in ops.inventory.algebras:
        graph = structure_graph(alg)
        order_of[alg.name] = set(thin_semilattice_order(alg, ops.f))
        for rep in graph.reports:
            for w in rep.witnesses:
                if w.label == SEMILATTICE:
                    # thick-to-thin: every element of the source block meets
                    # the absorbed block through a thin edge
                    qt = realize_table(ops.f, w.quotient)
                    absorbed = apply_op(qt, (w.a_block, w.b_block), w.quotient.size)
                    source = w.b_block if absorbed == w.a_block else w.a_block
                    ftab = realize_table(ops.f, alg)
                    dst = w.parent_block(absorbed)
                    for cc in w.parent_block(source):
                        dd = apply_op(ftab, (cc, dst[0]), alg.size)
                        assert dd in dst
                        assert (cc, dd) in order_of[alg.name]
                elif w.label == MAJORITY:
                    found = find_special_thin_majority(alg, w)
                    assert found
                    assert any(e.a == w.pair[0] for e in found)
                    maj_edges.extend(found)
                elif w.label == AFFINE:
                    found = find_thin_affine(alg, w, ops.h)
                    assert found
                    assert any(e.a == w.pair[0] for e in found)
                    aff_edges.extend(found)
        tg = thin_graph(alg, ops)
        assert all(e.necessary for e in tg.arcs), alg.name
        sl_edges.extend(tg.by_kind(THIN_SEMILATTICE))
    # deduplicate and trim to one edge per (algebra, endpoints)
    def dedup(edges):
        seen = {}
        for e in edges:
            seen.setdefault((e.algebra.name, e.a, e.b), e)
        return list(seen.values())

    maj_edges, aff_edges = dedup(maj_edges), dedup(aff_edges)
    maj_sample = maj_edges[:3] + maj_edges[-1:]
    aff_sample = aff_edges[:3] + aff_edges[-1:]
    for e1 in maj_sample:
        for e2 in maj_sample:
            for e3 in maj_sample:
                g3 = majority_triple(ops, e1, e2, e3)
                assert evaluate(g3, e1.algebra, (e1.a, e1.b, e1.b)) == e1.b
                assert evaluate(g3, e2.algebra, (e2.b, e2.a, e2.b)) == e2.b
                assert evaluate(g3, e3.algebra, (e3.b, e3.b, e3.a)) == e3.b
    for e1 in aff_sample:
        for e2 in aff_sample:
            hp = affine_pair(ops, e1, e2)
            assert evaluate(hp, e1.algebra, (e1.b, e1.a, e1.a)) == e1.b
            assert evaluate(hp, e2.algebra, (e2.a, e2.a, e2.b)) == e2.b
    reps = {SPECIAL_THIN_MAJORITY: maj_sample[0],
            THIN_AFFINE: aff_sample[0],
            THIN_SEMILATTICE: dedup(sl_edges)[0]}
    for k1, k2 in product(reps, repeat=2):
        if k1 == k2:
            continue
        e1, e2 = reps[k1], reps[k2]
        p = mixed_pair(ops, e1, e2)
        assert evaluate(p, e1.algebra, (e1.b, e1.a)) == e1.b
        assert evaluate(p, e2.algebra, (e2.a, e2.b)) == e2.b
    for e in maj_sample:
        affine_stable_ops(ops, e, "t_ab")      # verifies internally
    for e in aff_sample:
        affine_stable_ops(ops, e, "h_ab")
    _report(9, f"thin suites over {len(maj_edges)} majority / "
               f"{len(aff_edges)} affine thin edges", t0, 60.0)


def test_criterion_10_oracle_cross_checks():
    t0 = time.perf_counter()
    small = [fixtures.fixture(n) for n in ("sl2", "mj2", "z3-affine", "no-edge")]
    queries = []
    for alg in small:
        for a, b in combinations(range(alg.size), 2):
            queries.append(SubpowerQuery((alg, alg), ((a, b), (b, a)), (b, b)))
            queries.append(SubpowerQuery((alg, alg), ((a, b), (b, a)), (a, a)))
            queries.append(majority_query(alg, a, b))
        if alg.size == 2:
            queries.append(maltsev_query(alg))
    nms = fixtures.no_majority_symmetry()
    queries.append(majority_query(nms, 0, 1))          # the big one
    for a, b in combinations(range(4), 2):
        queries.append(SubpowerQuery((nms, nms), ((a, b), (b, a)), (b, b)))
    absent_seen = 0
    for q in queries:
        fast = subpower_membership(q)
        slow = naive_subpower_membership(q)
        assert isinstance(fast, Absent) == isinstance(slow, Absent), q.target
        if isinstance(fast, Absent):
            absent_seen += 1
            assert fast.closure_size == slow.closure_size
    assert absent_seen > 0
    rng = random.Random(501)
    agreements = 0
    while agreements < 12:
        n = rng.randint(2, 3)
        ops = []
        for oi in range(rng.randint(1, 2)):
            table = [0] * (n * n)
            for x in range(n):
                for y in range(n):
                    table[x * n + y] = x if x == y else rng.randrange(n)
            ops.append((f"b{oi}", 2, table))
        alg = validate_algebra(f"r{agreements}", n, ops)
        assert is_abelian(alg) == is_abelian_brute(alg)
        agreements += 1
    _report(10, f"{len(queries)} subpower oracle agreements, "
                f"12 abelianness agreements", t0, 120.0)
