"""Representation and basic constructions."""

from itertools import product

import pytest
from oracles import find_isomorphism

from idemalg import fixtures
from idemalg.algebra import (
    FiniteAlgebra,
    align_signatures,
    is_set,
    product_algebra,
    quotient,
    restrict,
    signature_map,
    validate_algebra,
)
from idemalg.congruence import congruence_lattice, quotient_by
from idemalg.errors import (
    BadTableLength,
    DuplicateOpName,
    EntryOutOfRange,
    NonIdempotent,
    NotClosed,
    SignatureMismatch,
)


def test_no_edge_fixture_validates(a_ne):
    assert a_ne.size == 3
    f, g = a_ne.op("f"), a_ne.op("g")
    # the defining entries: f(a,b)=c, f(b,a)=b, g(a,b)=a, g(b,a)=c
    assert f.apply((0, 1), 3) == 2
    assert f.apply((1, 0), 3) == 1
    assert g.apply((0, 1), 3) == 0
    assert g.apply((1, 0), 3) == 2


def test_non_idempotent_rejected():
    with pytest.raises(NonIdempotent):
        validate_algebra("bad", 2, [("f", 2, [1, 0, 0, 1])])


def test_bad_table_length_rejected():
    with pytest.raises(BadTableLength):
        validate_algebra("bad", 2, [("f", 2, [0, 0, 1])])


def test_entry_out_of_range_rejected():
    with pytest.raises(EntryOutOfRange):
        validate_algebra("bad", 2, [("f", 2, [0, 2, 0, 1])])


def test_duplicate_name_rejected():
    with pytest.raises(DuplicateOpName):
        validate_algebra("bad", 2, [("f", 2, [0, 0, 0, 1]),
                                    ("f", 2, [0, 1, 1, 1])])


def test_maltsev_table_is_idempotent(z3a):
    assert z3a.size == 3
    assert z3a.apply("h", (1, 0, 0)) == 1


def test_product_with_trivial_is_isomorphic(a_ne, trivial):
    padded = validate_algebra(
        "ne-sig", 1, [("f", 2, [0]), ("g", 2, [0])])
    prod = product_algebra(a_ne, padded)
    assert prod.size == a_ne.size
    assert find_isomorphism(prod, a_ne) is not None


def test_product_coordinatewise_brute_force(sl2):
    prod = product_algebra(sl2, sl2)
    assert prod.size == 4
    # oracle: decode pairs and apply meet in each coordinate
    for x, y in product(range(4), repeat=2):
        expect = (min(x // 2, y // 2)) * 2 + min(x % 2, y % 2)
        assert prod.apply("meet", (x, y)) == expect


def test_product_projections_are_homomorphisms(a_ne, sl2):
    pad = validate_algebra("sl-pad", 2, [("f", 2, [0, 0, 0, 1]),
                                         ("g", 2, [0, 0, 0, 1])])
    prod = product_algebra(a_ne, pad)
    for op in prod.operations:
        for args in product(range(prod.size), repeat=op.arity):
            v = op.apply(args, prod.size)
            left = a_ne.apply(op.name, [x // 2 for x in args])
            right = pad.apply(op.name, [x % 2 for x in args])
            assert (v // 2, v % 2) == (left, right)


def test_signature_mismatch(a_ne, sl2):
    with pytest.raises(SignatureMismatch):
        signature_map(a_ne, sl2)


def test_quotient_of_nms_by_blocks(a_nms):
    quot, bmap = quotient(a_nms, [(0, 2), (1, 3)])
    assert quot.size == 2
    assert bmap == (0, 1, 0, 1)
    # majority on the quotient, third projection for the other operation
    for x, y, z in product(range(2), repeat=3):
        assert quot.apply("maj", (x, y, z)) == (1 if x + y + z >= 2 else 0)
        assert quot.apply("mnr", (x, y, z)) == z


def test_quotient_by_equality_is_isomorphic(a_ne):
    quot, _ = quotient(a_ne, [(0,), (1,), (2,)])
    assert find_isomorphism(quot, a_ne) is not None


def test_quotient_composition(c_nef):
    # (A/theta)/(eta/theta) is isomorphic to A/eta for theta below eta
    lattice = congruence_lattice(c_nef)
    for theta in lattice:
        for eta in lattice:
            if not (theta.refines(eta)) or theta.is_total:
                continue
            q1, bmap1 = quotient_by(c_nef, theta)
            # eta pushed down to blocks of theta
            pushed = {}
            for blk in eta.blocks:
                key = frozenset(bmap1[x] for x in blk)
                pushed.setdefault(min(key), set()).update(key)
            q2, _ = quotient(q1, [sorted(s) for s in pushed.values()])
            direct, _ = quotient_by(c_nef, eta)
            assert find_isomorphism(q2, direct) is not None


def test_restrict_no_edge_pair_with_top(a_ne):
    sub, emb = restrict(a_ne, [0, 2])
    assert emb == (0, 2)
    assert sub.size == 2
    # both operations join toward c (local element 1)
    assert sub.apply("f", (0, 1)) == 1
    assert sub.apply("g", (1, 0)) == 1


def test_restrict_full_universe_is_identity(a_ne):
    sub, emb = restrict(a_ne, range(3))
    assert emb == (0, 1, 2)
    assert sub.operations == a_ne.operations


def test_restrict_open_pair_not_closed(a_ne):
    with pytest.raises(NotClosed):
        restrict(a_ne, [0, 1])


def test_is_set():
    proj_alg = validate_algebra(
        "projs", 2, [("f", 2, [0, 0, 1, 1]), ("g", 2, [0, 1, 0, 1])])
    assert is_set(proj_alg)
    assert not is_set(fixtures.sl2())
    quot, _ = quotient(fixtures.no_majority_symmetry(), [(0, 2), (1, 3)])
    assert not is_set(quot)


def test_constructions_preserve_idempotency(a_ne, sl2, a_nms):
    # construction raises on violation, so reaching here is the assertion;
    # spot-check diagonals anyway
    pad = validate_algebra("sl-pad", 2, [("f", 2, [0, 0, 0, 1]),
                                         ("g", 2, [0, 0, 0, 1])])
    for alg in (product_algebra(a_ne, pad),
                quotient(a_nms, [(0, 2), (1, 3)])[0],
                restrict(a_ne, [0, 2])[0]):
        for op in alg.operations:
            for x in range(alg.size):
                assert op.apply((x,) * op.arity, alg.size) == x


def test_align_signatures(sl2, mj2, z3a):
    aligned = align_signatures([sl2, mj2, z3a])
    sigs = {alg.signature for alg in aligned}
    assert len(sigs) == 1
    # padded symbols are first projections
    meet_on_z3 = aligned[2].op("meet")
    assert all(meet_on_z3.apply((x, y), 3) == x
               for x in range(3) for y in range(3))
    # original operations survive unchanged
    assert aligned[0].op("meet").table == sl2.op("meet").table


def test_find_isomorphism_positive_and_negative(sl2):
    join = validate_algebra("join2", 2, [("meet", 2, [0, 1, 1, 1])])
    assert find_isomorphism(sl2, join) == (1, 0)
    proj = validate_algebra("proj2", 2, [("meet", 2, [0, 0, 1, 1])])
    assert find_isomorphism(sl2, proj) is None
