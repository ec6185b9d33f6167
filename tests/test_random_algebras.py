"""Seeded random-algebra hardening: the lemma-level invariants must hold on
arbitrary small idempotent algebras, not just the curated examples, and the
failure paths must raise their typed errors."""

import random
from itertools import combinations

import pytest
from oracles import random_idempotent_table

from idemalg.algebra import validate_algebra
from idemalg.edges import (
    MAJORITY,
    SEMILATTICE,
    UNARY,
    classify_pair,
    is_connected,
    is_smooth,
    structure_graph,
)
from idemalg.errors import IdemalgError, NotSmooth, PreconditionViolated
from idemalg.generate import all_subalgebras
from idemalg.synthesis import uniform_ops


def _random_algebra(rng, name):
    n = 3
    ops = []
    for oi in range(rng.randint(1, 2)):
        ar = rng.choice([2, 2, 3])
        ops.append((f"o{oi}", ar, random_idempotent_table(rng, n, ar)))
    return validate_algebra(name, n, ops)


# frozen from a seeded search: a thick semilattice edge {1,2} that is not a
# subuniverse (the first operation sends (0,1) and (2,2)-shaped pairs out)
NONSMOOTH = [("o0", 2, [0, 0, 2, 0, 1, 0, 0, 0, 2]),
             ("o1", 2, [0, 1, 2, 1, 1, 2, 2, 2, 2])]

# frozen from the same search: one pair carrying two labels through two
# different maximal congruences
MULTILABEL = [("o0", 2, [0, 1, 1, 1, 1, 1, 2, 2, 2])]


def test_frozen_nonsmooth_algebra():
    alg = validate_algebra("nonsmooth", 3, NONSMOOTH)
    verdict = is_smooth(alg)
    assert verdict == ((1, 2), SEMILATTICE, (1, 2))
    with pytest.raises(NotSmooth):
        uniform_ops([alg])


def test_frozen_multilabel_pair():
    alg = validate_algebra("multilabel", 3, MULTILABEL)
    rep = classify_pair(alg, 0, 2)
    assert rep.labels == {SEMILATTICE, UNARY}
    assert len(rep.witnesses) == 2
    from idemalg.edges import graph_to_dot
    dot = graph_to_dot(structure_graph(alg))
    # multi-type pairs emit one parallel edge per label
    assert dot.count('"0" -- "2"') == 2


def test_random_algebras_satisfy_edge_lemmas():
    rng = random.Random(20240817)
    analysed = 0
    for i in range(25):
        alg = _random_algebra(rng, f"rand{i}")
        graph = structure_graph(alg)
        assert is_connected(graph), alg
        for rep in graph.reports:
            # per-congruence labels are exclusive by construction; block
            # mates inherit the witnessed type
            for w in rep.witnesses:
                for c in w.parent_block(w.a_block):
                    for d in w.parent_block(w.b_block):
                        assert w.label in graph.report(c, d).labels
        for sub in all_subalgebras(alg):
            if len(sub) < 2:
                continue
            from idemalg.algebra import restrict
            b_alg, emb = restrict(alg, sorted(sub))
            for x, y in combinations(range(b_alg.size), 2):
                assert classify_pair(b_alg, x, y).labels == \
                    classify_pair(alg, emb[x], emb[y]).labels
        analysed += 1
    assert analysed == 25


def test_random_smooth_algebras_synthesize():
    rng = random.Random(633)
    synthesized = 0
    attempts = 0
    while synthesized < 8 and attempts < 600:
        attempts += 1
        alg = _random_algebra(rng, f"s{attempts}")
        try:
            ops = uniform_ops([alg])
        except (NotSmooth, PreconditionViolated):
            continue
        except IdemalgError as exc:      # pragma: no cover - unexpected
            raise AssertionError(f"unexpected failure on {alg}: {exc}")
        assert ops.report.all_green, alg
        synthesized += 1
    assert synthesized == 8
