"""The table kernel against per-entry loops: restrict, quotient, products,
translations, congruence lattices, the idempotency check and realized term
tables on seeded random idempotent algebras, checked against the oracles in
`oracles.py`, which never read `OperationTable.array` or the per-arity
stacks.  `evaluate` reads realized tables for composition
and power nodes, so terms are checked against `scalar_evaluate` too."""

import random
from collections import Counter
from itertools import product

import numpy as np
import pytest
from oracles import (
    apply_op,
    is_compatible,
    naive_product,
    naive_quotient,
    naive_restrict,
    naive_translations,
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
from idemalg.congruence import Congruence, _translations, congruence_lattice
from idemalg.errors import EntryOutOfRange, IdemalgError, NonIdempotent
from idemalg.generate import MALTSEV, SEMILATTICE, search_key
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
            assert [apply_op(realized, p, n) for p in points] == \
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


def _check_stacks(algebra):
    """Each stack holds the tables of its arity's operations, in declaration
    order, and each of those operations' `array` is equal to its slice."""
    positions = sorted(pos for stack in algebra.stacks.values() for pos in stack.positions)
    assert positions == list(range(len(algebra.operations)))
    for arity, stack in algebra.stacks.items():
        assert list(stack.positions) == sorted(stack.positions)
        assert stack.array.shape == (len(stack.positions),) + (algebra.size,) * arity
        assert not stack.array.flags.writeable
        for pos, table in zip(stack.positions, stack.array):
            op = algebra.operations[pos]
            assert op.arity == arity and table.ravel().tolist() == list(op.table)
            assert (op.array == table).all() and not op.array.flags.writeable


def _first_defect(size, ops):
    """The error the first defective operation in declaration order raises,
    read entry by entry: an entry out of range before a diagonal one."""
    for name, arity, table in ops:
        bad = next((v for v in table if not 0 <= v < size), None)
        if bad is not None:
            return "EntryOutOfRange", str(EntryOutOfRange(name, bad, size))
        step = sum(size ** k for k in range(arity))
        x = next((x for x in range(size) if table[x * step] != x), None)
        if x is not None:
            return "NonIdempotent", str(NonIdempotent(name, x, table[x * step]))
    return "ok", None


def test_stacked_kernel_matches_oracles_on_wide_signatures():
    """Signatures of 3-8 operations of arities 1-3, repeated and
    interleaved, so that one arity's stack holds operations declared apart
    and the first failure in declaration order may sit in any stack.  The
    product partner declares the same operations in another order."""
    rng = random.Random(2525)
    seen = Counter()
    for i in range(150):
        signature = [(f"o{k}", rng.randint(1, 3)) for k in range(rng.randint(3, 8))]
        alg = _random_algebra(rng, f"w{i}", rng.randint(1, 4), signature)
        n = alg.size
        _check_stacks(alg)

        for mask in range(1, 1 << n):
            subset = [x for x in range(n) if mask >> x & 1]
            expect = _outcome(naive_restrict, alg, subset)
            assert _outcome(lambda: _tables(restrict(alg, subset)[0])) == expect
            assert is_closed_subset(alg, subset) == (expect[0] == "ok")
            if expect[0] == "ok":
                _check_stacks(restrict(alg, subset)[0])
            seen["restrict " + expect[0]] += 1

        for blocks in partitions(list(range(n))):
            shuffled = [rng.sample(b, len(b)) for b in rng.sample(blocks, len(blocks))]
            expect = _outcome(naive_quotient, alg, shuffled)
            assert _outcome(lambda: _tables(quotient(alg, shuffled)[0])) == expect
            if expect[0] == "ok":
                _check_stacks(quotient(alg, shuffled)[0])
            seen["quotient " + expect[0]] += 1

        shuffled = rng.sample(signature, len(signature))
        other = _random_algebra(rng, f"w{i}b", rng.randint(1, 3), shuffled)
        for left, right in ((alg, other), (other, alg)):
            prod = product_algebra(left, right)
            assert _tables(prod) == naive_product(left, right)
            _check_stacks(prod)

        rows = [tuple(row) for row in _translations(alg).tolist()]
        # distinct, in order of their keys, whose least significant digit is the first entry
        assert rows == sorted((t for t in naive_translations(alg)
                               if len(set(t)) > 1 and t != tuple(range(n))), key=lambda t: t[::-1])
        seen["translations"] += len(rows)

        # one or two operations broken on the diagonal or out of range
        ops = [(op.name, op.arity, list(op.table)) for op in alg.operations]
        for _ in range(rng.randint(1, 2)):
            _, arity, table = rng.choice(ops)
            if rng.random() < 0.3:
                table[rng.randrange(len(table))] = n + rng.randrange(3)
            elif n > 1:
                x = rng.randrange(n)
                table[x * sum(n ** k for k in range(arity))] = (x + rng.randrange(1, n)) % n
        expect = _first_defect(n, ops)
        got = _outcome(validate_algebra, f"w{i}", n, ops)
        assert (got[0], got[1] if got[0] != "ok" else None) == expect
        seen["defect " + expect[0]] += 1
    assert min(seen.values()) >= 20, seen
    assert set(seen) == {"restrict ok", "restrict NotClosed", "quotient ok",
                         "quotient NotACongruence", "translations", "defect ok",
                         "defect NonIdempotent", "defect EntryOutOfRange"}, seen


def test_derived_algebras_equal_their_boundary_built_copies():
    """A child of restrict, quotient or product_algebra is built from its
    parent's stacks without the checks of outside data; it must equal the
    algebra validate_algebra builds from its flat tables, with the same
    hash, the same pair-search key and the same stacks."""
    rng = random.Random(2727)
    seen = Counter()
    for i in range(40):
        signature = [(f"o{k}", rng.randint(1, 3)) for k in range(rng.randint(1, 6))]
        size = rng.randint(1, 4)
        alg = _random_algebra(rng, f"d{i}", size, signature)
        if rng.random() < 0.5:
            alg = validate_algebra(alg.name, size, [(op.name, op.arity, op.table)
                                                    for op in alg.operations],
                                   [f"e{x}" for x in range(size)])
        other = _random_algebra(rng, f"d{i}b", rng.randint(1, 3), rng.sample(signature, len(signature)))
        children = [product_algebra(alg, other), product_algebra(other, alg)]
        for mask in range(1, 1 << size):
            subset = [x for x in range(size) if mask >> x & 1]
            if is_closed_subset(alg, subset):
                children.append(restrict(alg, subset)[0])
        for theta in congruence_lattice(alg):
            children.append(quotient(alg, theta.blocks)[0])
        for child in children:
            copy = validate_algebra(child.name, child.size,
                                    [(op.name, op.arity, op.table) for op in child.operations],
                                    child.labels)
            assert child == copy and hash(child) == hash(copy)
            kind, a, b = (SEMILATTICE, 0, child.size - 1) if child.size > 1 else (MALTSEV, 0, 0)
            assert search_key(child, kind, a, b, 9) == search_key(copy, kind, a, b, 9)
            for arity, stack in child.stacks.items():
                assert stack.positions == copy.stacks[arity].positions
                assert (stack.array == copy.stacks[arity].array).all()
            _check_stacks(child)
            seen["labelled" if child.labels else "plain"] += 1
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("third", [
    ("h", 2, (1, 0, 1, 1)), ("h", 2, (0, 5, 1, 1)), ("f", 1, (0, 1))],
    ids=["non-idempotent", "out-of-range", "duplicate-name"])
def test_first_defective_operation_in_declaration_order_fails(third):
    """g (ternary) is declared before the defective third operation, which
    is binary, so its stack comes first (its arity is declared first).  A
    defect that the checks of one operation find (its range or its name)
    does not overtake g either."""
    ops = [("f", 2, (0, 1, 1, 1)), ("g", 3, (0, 0, 0, 0, 1, 1, 1, 0)), third]
    with pytest.raises(NonIdempotent) as info:
        validate_algebra("d", 2, ops)
    assert str(info.value) == "operation 'g' is not idempotent: f(1,...,1) = 0"
