"""The table kernel against per-entry loops: restrict, quotient, products,
congruence lattices and realized term tables on seeded random idempotent
algebras, checked against the oracles in `oracles.py`, which never read
`OperationTable.array`.  `evaluate` reads realized tables for composition
and power nodes, so terms are checked against `scalar_evaluate` too."""

import random
from collections import Counter
from itertools import product

from oracles import (
    is_compatible,
    naive_product,
    naive_quotient,
    naive_restrict,
    partitions,
    random_idempotent_table,
    scalar_evaluate,
)

from idemalg.algebra import (
    is_closed_subset,
    product_algebra,
    quotient,
    restrict,
    validate_algebra,
)
from idemalg.congruence import Congruence, congruence_lattice
from idemalg.errors import IdemalgError
from idemalg.terms import (
    Identity,
    app,
    check_identity,
    compose,
    evaluate,
    power,
    proj,
    realize_table,
)


def _random_algebra(rng, name, size, signature):
    ops = []
    for op_name, arity in signature:
        ops.append((op_name, arity, random_idempotent_table(rng, size, arity)))
    return validate_algebra(name, size, ops)


def _outcome(build, *args):
    """("ok", flat tables) or the error's type and message, which names
    its witness."""
    try:
        return "ok", build(*args)
    except IdemalgError as exc:
        return type(exc).__name__, str(exc)


def _tables(algebra):
    return [op.table for op in algebra.operations]


def _random_term(rng, algebra, arity, depth, kinds):
    if depth == 0 or rng.random() < 0.2:
        return proj(rng.randrange(arity), arity)
    roll = rng.random()
    if roll < 0.5:
        op = rng.choice(algebra.operations)
        return app(op.name, [_random_term(rng, algebra, arity, depth - 1, kinds)
                             for _ in range(op.arity)])
    if roll < 0.75:
        kinds["pow"] += 1
        return power(_random_term(rng, algebra, arity, depth - 1, kinds),
                     rng.randrange(arity), rng.randint(2, 50))
    kinds["comp"] += 1
    inner = rng.randint(1, 3)
    return compose(_random_term(rng, algebra, inner, depth - 1, kinds),
                   [_random_term(rng, algebra, arity, depth - 1, kinds)
                    for _ in range(inner)])


def test_kernel_matches_per_entry_oracles():
    rng = random.Random(4040)
    seen = Counter()
    for i in range(300):
        signature = [(f"o{k}", rng.randint(1, 3)) for k in range(rng.randint(1, 2))]
        alg = _random_algebra(rng, f"k{i}", rng.randint(1, 4), signature)
        n = alg.size

        for mask in range(1, 1 << n):
            subset = [x for x in range(n) if mask >> x & 1]
            expect = _outcome(naive_restrict, alg, subset)
            assert _outcome(lambda: _tables(restrict(alg, subset)[0])) == expect
            assert is_closed_subset(alg, subset) == (expect[0] == "ok")
            seen["restrict " + expect[0]] += 1

        lattice = set(congruence_lattice(alg))
        for blocks in partitions(list(range(n))):
            part = Congruence.from_blocks(n, blocks)
            assert (part in lattice) == is_compatible(alg, part), (alg, part)
            # blocks in random order, each led by a random representative
            shuffled = [rng.sample(b, len(b)) for b in rng.sample(blocks, len(blocks))]
            expect = _outcome(naive_quotient, alg, shuffled)
            assert _outcome(lambda: _tables(quotient(alg, shuffled)[0])) == expect
            seen["quotient " + expect[0]] += 1

        other = _random_algebra(rng, f"k{i}b", rng.randint(1, 3), signature)
        assert _tables(product_algebra(alg, other)) == naive_product(alg, other)

        for _ in range(4):
            arity = rng.randint(1, 3)
            left = _random_term(rng, alg, arity, 3, seen)
            right = _random_term(rng, alg, arity, 3, seen)
            realized = realize_table(left, alg)
            points = list(product(range(n), repeat=arity))
            assert [realized.apply(p, n) for p in points] == \
                [evaluate(left, alg, p) for p in points] == \
                [scalar_evaluate(left, alg, p) for p in points], left
            first_clash = next((p for p in points if evaluate(left, alg, p)
                                != evaluate(right, alg, p)), None)
            assert check_identity(alg, Identity(left, right)) == first_clash
            assert first_clash == next((p for p in points if scalar_evaluate(left, alg, p)
                                        != scalar_evaluate(right, alg, p)), None)
    # every path was exercised: both outcomes of restrict and quotient, and
    # terms with power and composition nodes
    assert min(seen.values()) >= 50, seen
    assert set(seen) == {"restrict ok", "restrict NotClosed", "quotient ok",
                         "quotient NotACongruence", "pow", "comp"}, seen
