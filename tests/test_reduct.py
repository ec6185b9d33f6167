"""Bounded-arity reducts."""

from itertools import product

import pytest
from oracles import apply_op

from idemalg import terms
from idemalg.algebra import FiniteAlgebra, OperationTable
from idemalg.edges import MAJORITY, SEMILATTICE, classify_pair, structure_graph
from idemalg.errors import PreconditionViolated
from idemalg.reduct import bounded_reduct, reduct_edge_report


def _witness(alg, a, b, labels=(SEMILATTICE, MAJORITY)):
    rep = classify_pair(alg, a, b)
    for w in rep.witnesses:
        if w.label in labels:
            return w
    raise AssertionError(f"no usable witness on {(a, b)}")


def test_no_edge_reduct_keeps_basics(a_ne):
    w = _witness(a_ne, 0, 2)
    red = bounded_reduct(a_ne, w, max_arity=2)
    assert red.r_ab == (0, 2)
    tables = {op.table for op, _ in red.operations if op.arity == 2}
    assert a_ne.op("f").table in tables
    assert a_ne.op("g").table in tables


def test_no_edge_reduct_no_new_unary_or_affine(a_ne):
    w = _witness(a_ne, 0, 2)
    red = bounded_reduct(a_ne, w, max_arity=2)
    diff = reduct_edge_report(red)
    assert diff.new_unary_pairs() == []
    assert diff.new_affine_pairs() == []


def test_trivial_reduct_identical_report(c_nef):
    # R_ab = whole universe and the arity bound covers every basic
    # operation: preservation is vacuous and the classification is frozen
    w = _witness(c_nef, 0, 3, labels=(MAJORITY,))
    assert set(w.parent_block(w.a_block) + w.parent_block(w.b_block)) == \
        set(range(6))
    red = bounded_reduct(c_nef, w, max_arity=3)
    basic = {op.table for op in c_nef.operations}
    assert basic <= {op.table for op, _ in red.operations}
    diff = reduct_edge_report(red)
    assert diff.changed_pairs() == []


def test_sl2_reduct_unchanged(sl2):
    w = _witness(sl2, 0, 1)
    red = bounded_reduct(sl2, w, max_arity=2)
    diff = reduct_edge_report(red)
    assert diff.changed_pairs() == []


def test_arity_one_identity_only(a_ne):
    w = _witness(a_ne, 0, 2)
    red = bounded_reduct(a_ne, w, max_arity=1)
    assert len(red.operations) == 1
    op, term = red.operations[0]
    assert op.table == (0, 1, 2)


def test_operations_preserve_and_reevaluate(a_ne):
    w = _witness(a_ne, 0, 2)
    red = bounded_reduct(a_ne, w, max_arity=3)
    sub = set(red.r_ab)
    for op, term in red.operations:
        tab = terms.realize_table(term, a_ne)
        assert tab.table == op.table
        for args in product(sorted(sub), repeat=op.arity):
            assert apply_op(op, args, a_ne.size) in sub


def test_monotone_in_arity(a_ne):
    w = _witness(a_ne, 0, 2)
    red2 = bounded_reduct(a_ne, w, max_arity=2)
    red3 = bounded_reduct(a_ne, w, max_arity=3)
    # every binary member appears among the ternary ones via a dummy slot
    tern = {op.table for op, _ in red3.operations if op.arity == 3}
    n = a_ne.size
    for op, _ in red2.operations:
        if op.arity != 2:
            continue
        padded = tuple(apply_op(op, (x, y), n)
                       for x in range(n) for y in range(n) for _ in range(n))
        padded = tuple(apply_op(op, (x, y), n)
                       for x, y, _z in product(range(n), repeat=3))
        assert padded in tern


def test_reduct_algebra_equals_the_checked_build(a_ne, a_nms):
    """The reduct's algebra, built from the kept stack rows unchecked,
    equals the algebra checked from the same flat tables: names t0, t1, ...
    in arity and discovery order, one stack per arity, the same content."""
    for alg in (a_ne, a_nms):
        # the first semilattice or majority edge, as `idemalg reduct` takes it
        w = next(w for rep in structure_graph(alg).reports for w in rep.witnesses
                 if w.label in (SEMILATTICE, MAJORITY))
        red = bounded_reduct(alg, w, max_arity=3)
        got = red.algebra
        checked = FiniteAlgebra(f"{alg.name}|reduct{w.pair}", alg.size,
                                tuple(OperationTable(op.name, op.arity, op.table)
                                      for op, _ in red.operations), alg.labels)
        assert got == checked
        assert [op.name for op in got.operations] == [f"t{i}" for i in range(len(got.operations))]
        assert [op.arity for op in got.operations] == sorted(op.arity for op in got.operations)
        assert all(op is mine for (op, _), mine in zip(red.operations, got.operations))
        assert {a: s.positions for a, s in got.stacks.items()} == \
            {a: s.positions for a, s in checked.stacks.items()}
        assert got.tables_key == checked.tables_key
        assert all(not s.array.flags.writeable for s in got.stacks.values())


def test_affine_witness_rejected(z3a):
    rep = classify_pair(z3a, 0, 1)
    with pytest.raises(PreconditionViolated):
        bounded_reduct(z3a, rep.witnesses[0])


def test_semilattice_connected_preserved(a_ne):
    from idemalg.edges import x_connected
    w = _witness(a_ne, 0, 2)
    red = bounded_reduct(a_ne, w, max_arity=2)
    assert x_connected(a_ne, {SEMILATTICE}) is True
    assert x_connected(red.algebra, {SEMILATTICE}) is True
    assert x_connected(red.algebra, {SEMILATTICE, MAJORITY}) is True
