"""Congruences, tolerances, abelianness, absorbing elements."""

import random
from itertools import combinations, product

import numpy as np
import pytest
from oracles import (
    is_abelian_brute,
    is_compatible,
    naive_relation_compatible,
    naive_tolerance_classes,
    naive_tolerance_generated,
)

from idemalg import fixtures
from idemalg.algebra import validate_algebra
from idemalg.congruence import (
    MODULE,
    OTHER,
    SET,
    Congruence,
    Tolerance,
    _compatible,
    absorbing_elements,
    cg,
    classify_simple_quotient,
    congruence_lattice,
    is_abelian,
    link_tolerance,
    maximal_congruences,
    quotient_by,
    tolerance_generated,
    tolerance_ops,
)
from idemalg.errors import ValidationError
from idemalg.generate import TupleClosure


def test_cg_no_edge_simple(a_ne):
    assert cg(a_ne, [(0, 1)]).is_total
    assert cg(a_ne, [(0, 2)]).is_total
    assert cg(a_ne, []).is_equality


def test_cg_nms_blocks(a_nms):
    theta = cg(a_nms, [(0, 2)])
    assert str(theta) == "{0,2|1,3}"
    assert is_compatible(a_nms, theta)


def test_lattice_examples(a_ne, a_nms, trivial):
    assert [str(c) for c in congruence_lattice(a_ne)] == ["{0|1|2}", "{0,1,2}"]
    lat = congruence_lattice(a_nms)
    assert Congruence.from_blocks(4, [(0, 2), (1, 3)]) in lat
    assert len(congruence_lattice(trivial)) == 1


def test_cg_below_every_containing_congruence(a_nms, c_nef):
    for alg in (a_nms, c_nef):
        lat = congruence_lattice(alg)
        for x, y in combinations(range(alg.size), 2):
            principal = cg(alg, [(x, y)])
            assert principal.together(x, y)
            for theta in lat:
                if theta.together(x, y):
                    assert principal.refines(theta)


def test_maximal_congruences(a_ne, a_nms, c_nef):
    assert [str(c) for c in maximal_congruences(a_ne)] == ["{0|1|2}"]
    assert [str(c) for c in maximal_congruences(a_nms)] == ["{0,2|1,3}"]
    maxes = {str(c) for c in maximal_congruences(c_nef)}
    # both projection kernels of the product are maximal (simple factors)
    assert {"{0,1|2,3|4,5}", "{0,2,4|1,3,5}"} <= maxes
    for theta in maximal_congruences(c_nef):
        quot, _ = quotient_by(c_nef, theta)
        assert len(congruence_lattice(quot)) == 2   # simple quotient


def test_tolerance_examples(a_ne, sl2):
    tol, classes = tolerance_ops(a_ne, [])
    assert tol.is_equality
    assert classes == [(0,), (1,), (2,)]
    tol2, classes2 = tolerance_ops(sl2, [(0, 1)])
    assert tol2.is_total
    assert classes2 == [(0, 1)]


def test_tolerance_classes_are_subuniverses_seeded(a_ne, a_nms, c_nef):
    from idemalg.algebra import is_closed_subset
    rng = random.Random(11)
    for alg in (a_ne, a_nms, c_nef):
        for _ in range(15):
            pairs = [(rng.randrange(alg.size), rng.randrange(alg.size))
                     for _ in range(rng.randint(0, 3))]
            tol, classes = tolerance_ops(alg, pairs)
            for cls in classes:
                assert is_closed_subset(alg, cls)
            # transitive closure of a tolerance is a congruence
            assert is_compatible(alg, tol.transitive_closure())


def test_link_tolerance(a_ne):
    cl = TupleClosure((a_ne, a_ne), ((0, 1), (1, 0)))
    rel = [tuple(int(v) for v in row) for row in cl.rows]
    tol = link_tolerance(a_ne, rel, 0)
    # the generated relation is not a bijection graph, so the link
    # tolerance is nontrivial; in a simple algebra it is then total
    assert tol.is_total
    diag = [(x, x) for x in range(3)]
    assert link_tolerance(a_ne, diag, 0).is_equality
    full = list(product(range(3), repeat=2))
    assert link_tolerance(a_ne, full, 1).is_total


def test_link_tolerance_all_fixtures_both_coordinates():
    # compatibility of the link relation is asserted inside the call
    for name in fixtures.FIXTURES:
        alg = fixtures.fixture(name)
        for a, b in [(0, alg.size - 1)] if alg.size > 1 else []:
            cl = TupleClosure((alg, alg), ((a, b), (b, a)))
            rel = [tuple(int(v) for v in row) for row in cl.rows]
            if any({t[j] for t in rel} != set(range(alg.size))
                   for j in range(2)):
                continue          # projections not full: lemma inapplicable
            for coord in (0, 1):
                link_tolerance(alg, rel, coord)


def _random_idempotent_algebra(rng, name):
    n = rng.randint(1, 5)
    ops = []
    for oi in range(rng.randint(1, 2)):
        ar = rng.randint(1, 3)
        table = [args[0] if len(set(args)) == 1 else rng.randrange(n)
                 for args in product(range(n), repeat=ar)]
        ops.append((f"o{oi}", ar, table))
    return validate_algebra(name, n, ops)


def test_tolerance_generated_matches_oracle():
    rng = random.Random(20)
    for i in range(300):
        alg = _random_idempotent_algebra(rng, f"r{i}")
        n = alg.size
        for k in (0, rng.randint(1, 3)):
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]
            tol = tolerance_generated(alg, pairs)
            assert tol.pairs == naive_tolerance_generated(alg, pairs), (alg, pairs)
            assert tol.classes() == naive_tolerance_classes(tol), (alg, pairs)


def test_tolerance_classes_match_oracle_on_random_graphs():
    # denser and larger relation graphs than the generated tolerances reach
    rng = random.Random(22)
    for _ in range(200):
        n = rng.randint(1, 9)
        density = rng.random()
        pairs = {(x, x) for x in range(n)}
        for x, y in combinations(range(n), 2):
            if rng.random() < density:
                pairs |= {(x, y), (y, x)}
        tol = Tolerance(n, frozenset(pairs))
        assert tol.classes() == naive_tolerance_classes(tol), sorted(pairs)


def test_tolerance_compatibility_matches_oracle():
    rng = random.Random(21)
    outcomes = {True: 0, False: 0}
    for i in range(300):
        alg = _random_idempotent_algebra(rng, f"r{i}")
        n = alg.size
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))]
        tol = tolerance_generated(alg, pairs).pairs
        off_diagonal = sorted((x, y) for x, y in tol if x != y)
        candidates = [tol, frozenset((x, y) for x in range(n) for y in range(n)
                                     if rng.random() < 0.5)]
        if off_diagonal:
            x, y = rng.choice(off_diagonal)
            candidates.append(tol - {(x, y), (y, x)})
        for rel in candidates:
            expect = naive_relation_compatible(alg, rel)
            matrix = np.zeros((n, n), dtype=bool)
            for x, y in rel:
                matrix[x, y] = True
            assert _compatible(alg, matrix) == expect, (alg, rel)
            outcomes[expect] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_link_tolerance_of_incompatible_relation_raises_under_O(run_optimized):
    # the relation relates 0 and 1 at coordinate 0, and f(0,1) = 2 with
    # f(1,1) = 1 leaves that link relation
    code = (
        "from idemalg import fixtures\n"
        "from idemalg.congruence import link_tolerance\n"
        "from idemalg.errors import NotATolerance\n"
        "print(__debug__)\n"
        "try:\n"
        "    link_tolerance(fixtures.no_edge(), [(0, 0), (1, 1), (2, 2), (0, 1)], 0)\n"
        "except NotATolerance as exc:\n"
        "    print(type(exc).__name__, exc.coordinate)\n")
    assert run_optimized(code) == "False\nNotATolerance 0\n"


def test_tolerance_generated_rejects_pairs_out_of_range(sl2):
    # -1 would wrap around to the last row of the matrix, 2 would index past it
    for pairs in ([(-1, 0)], [(2, 0)], [(0, 1), (1, 5)]):
        with pytest.raises(ValidationError, match="not in 0..1"):
            tolerance_generated(sl2, pairs)


def test_is_abelian(sl2, mj2, z3a, a_nms):
    assert is_abelian(z3a)
    assert not is_abelian(sl2)
    assert not is_abelian(mj2)
    quot, _ = quotient_by(a_nms, cg(a_nms, [(0, 2)]))
    assert not is_abelian(quot)
    from idemalg.algebra import restrict
    blk, _ = restrict(a_nms, [0, 2])
    assert is_abelian(blk)


def test_is_abelian_agrees_with_brute_force_seeded():
    rng = random.Random(501)
    built = 0
    while built < 12:
        n = rng.randint(2, 3)
        ops = []
        for oi in range(rng.randint(1, 2)):
            table = [0] * (n * n)
            for x in range(n):
                for y in range(n):
                    table[x * n + y] = x if x == y else rng.randrange(n)
            ops.append((f"b{oi}", 2, table))
        alg = validate_algebra(f"rand{built}", n, ops)
        built += 1
        assert is_abelian(alg) == is_abelian_brute(alg)


def test_classify_simple_quotient(z3a, a_nms):
    assert classify_simple_quotient(z3a) == MODULE
    quot, _ = quotient_by(a_nms, cg(a_nms, [(0, 2)]))
    assert classify_simple_quotient(quot) == OTHER
    flat = validate_algebra("set2", 2, [("f", 2, [0, 0, 1, 1])])
    assert classify_simple_quotient(flat) == SET


def test_absorbing_elements(sl2, z3a, a_ne):
    assert absorbing_elements(sl2) == ([0], 3)
    found, reached = absorbing_elements(z3a)
    assert found == []
    found_ne, reached_ne = absorbing_elements(a_ne)
    assert (found_ne, reached_ne) == ([2], 3)
