"""The synthesis engine: normalizations, module fixes, the unified triple,
and the thin-edge combination terms."""

import dataclasses
import json
import random
from itertools import count, permutations, product
from pathlib import Path

import pytest

from idemalg import fixtures, synthesis, terms
from idemalg.algebra import align_signatures, product_algebra, validate_algebra
from idemalg.congruence import Congruence
from idemalg.errors import PostconditionFailed, PreconditionViolated, UnsupportedCombination
from idemalg.synthesis import (
    F_ABSORPTION,
    F_EXCHANGE,
    H_SHIFT,
    M_ABSORPTION,
    M_CYCLE,
    affine_pair,
    affine_stable_ops,
    build_edge_inventory,
    idempotent_exponent,
    majority_triple,
    mixed_pair,
    module_projection_fix,
    normalization_identity,
    normalize_identities,
    separating_term,
    uniform_ops,
)
from idemalg.terms import app, check_identity, evaluate, proj, realize_table, substitute
from idemalg.thin import SPECIAL_THIN_MAJORITY, THIN_AFFINE, THIN_SEMILATTICE, ThinEdge, thin_graph

from oracles import apply_op, naive_edge_conditions, projection_index


def _class_ops(*names):
    return uniform_ops([fixtures.fixture(n) for n in names])


# --------------------------------------------------------------------------
# normalizations
# --------------------------------------------------------------------------


def test_idempotent_exponent_is_the_least_by_definition():
    # against powers composed one step at a time, on random maps (tails and
    # cycles), permutations and one long tail into a 2-cycle
    def power(t, e):
        out = list(range(len(t)))
        for _ in range(e):
            out = [t[x] for x in out]
        return out

    rng = random.Random(3)
    cases = [[[rng.randrange(m) for _ in range(m)] for _ in range(rng.randint(1, 3))]
             for m in rng.choices(range(1, 13), k=200)]
    cases += [[rng.sample(range(m), m)] for m in range(1, 9)]
    cases.append([[1, 2, 3, 4, 5, 6, 7, 8, 7]])
    for maps in cases:
        want = next(e for e in count(1)
                    if all(power(t, 2 * e) == power(t, e) for t in maps))
        assert idempotent_exponent(maps) == want, maps

def test_normalize_all_five_equations(a_ne, sl2, z3a, a_nms):
    f_ne = app("f", [proj(0, 2), proj(1, 2)])
    meet = app("meet", [proj(0, 2), proj(1, 2)])
    h = app("h", [proj(0, 3), proj(1, 3), proj(2, 3)])
    maj = app("maj", [proj(0, 3), proj(1, 3), proj(2, 3)])
    cases = [
        ([sl2], meet, F_ABSORPTION),
        ([sl2], meet, F_EXCHANGE),
        ([a_ne], f_ne, F_ABSORPTION),
        ([a_ne], f_ne, F_EXCHANGE),
        ([z3a], h, H_SHIFT),
        ([a_nms], maj, M_ABSORPTION),
        ([a_nms], maj, M_CYCLE),
        ([a_nms], app("mnr", [proj(0, 3), proj(1, 3), proj(2, 3)]), H_SHIFT),
    ]
    for algebras, op, which in cases:
        result = normalize_identities(algebras, op, which)
        for alg in algebras:
            assert check_identity(alg, normalization_identity(result, which)) \
                is None, (alg.name, which)


def test_normalize_keeps_already_good_ops(sl2, z3a):
    meet = app("meet", [proj(0, 2), proj(1, 2)])
    assert normalize_identities([sl2], meet, F_ABSORPTION) is meet
    h = app("h", [proj(0, 3), proj(1, 3), proj(2, 3)])
    assert normalize_identities([z3a], h, H_SHIFT) is h


def test_normalize_f_absorption_fixes_broken_op(z3a):
    # 2x - y mod 3 fails absorption; one squaring makes the leading
    # coefficient idempotent and the identity holds
    t = substitute(app("h", [proj(0, 3), proj(1, 3), proj(2, 3)]),
                   [proj(1, 2), proj(0, 2), proj(1, 2)])   # 2y - x as f(x,y)
    ident = normalization_identity(t, F_ABSORPTION)
    assert check_identity(z3a, ident) is not None
    fixed = normalize_identities([z3a], t, F_ABSORPTION)
    assert check_identity(z3a, normalization_identity(fixed, F_ABSORPTION)) is None


# --------------------------------------------------------------------------
# module projection fixes
# --------------------------------------------------------------------------

def test_module_fix_binary_alpha_two(z3a):
    # the operation 2x - y mod 3 is h(x, y, x); its leading coefficient
    # squares to 1, so one idempotent power already lands on a projection
    t = substitute(app("h", [proj(0, 3), proj(1, 3), proj(2, 3)]),
                   [proj(0, 2), proj(1, 2), proj(0, 2)])
    tab = realize_table(t, z3a)
    assert apply_op(tab, (1, 0), 3) == 2 and apply_op(tab, (0, 1), 3) == 2
    fixed = module_projection_fix([z3a], t, z3a, "f")
    assert projection_index(realize_table(fixed, z3a), 3) == 0


def test_module_fix_binary_already_projection(z3a):
    t = proj(0, 2)
    fixed = module_projection_fix([z3a], t, z3a, "f")
    assert projection_index(realize_table(fixed, z3a), 3) == 0


def test_separating_term_minority_case(z3a, mm2):
    """A class member whose majority edge carries a minority term drives
    the hardest branch of the separation case analysis."""
    aligned = align_signatures([mm2, z3a])
    inv = build_edge_inventory(aligned)
    assert len(inv.majority) == 1 and len(inv.affine) == 1
    edge = inv.majority[0]
    x3, y3, z3 = proj(0, 3), proj(1, 3), proj(2, 3)
    h = app("h", [x3, y3, z3])
    mnr = app("mnr", [x3, y3, z3])
    # minority on the 2-element member, Mal'tsev on the affine quotient
    t = substitute(mnr, [app("h", [x3, y3, z3]),
                         app("h", [y3, z3, x3]),
                         app("h", [z3, x3, y3])])
    mm_aligned = aligned[0]
    assert realize_table(t, mm_aligned).table == \
        tuple(x ^ y ^ z for x in range(2) for y in range(2) for z in range(2))
    quo = inv.affine[0].quotient
    ht = realize_table(t, quo)
    assert all(apply_op(ht, (x, x, y), 3) == y and apply_op(ht, (y, x, x), 3) == y
               for x in range(3) for y in range(3))
    maj_term = edge.witness
    p = separating_term(edge, [quo], t, maj_term)
    ptab = realize_table(p, edge.edge_algebra)
    assert apply_op(ptab, (0, 1), 2) == 0 and apply_op(ptab, (1, 0), 2) == 1
    assert projection_index(realize_table(p, quo), 3) == 1
    # and the ternary module fix built on it keeps the majority behaviour
    fixed = module_projection_fix(aligned, maj_term, quo, "m",
                                  edge=edge, h_term=t)
    assert projection_index(realize_table(fixed, quo), 3) == 0
    ft = realize_table(fixed, edge.edge_algebra)
    assert all(apply_op(ft, (x, y, z), 2) == (1 if x + y + z >= 2 else 0)
               for x in range(2) for y in range(2) for z in range(2))


def test_restriction_pattern_picks_the_first_straightening_permutation():
    """On a 2-element edge carrying an operation of each pattern, the pattern
    is read correctly and names the first variable permutation, in
    itertools order, under which the lone first argument wins."""
    edge = _class_ops("mj2").inventory.majority[0]
    for pattern in map("".join, product("xy", repeat=3)):
        def t(args, pattern=pattern):
            if len(set(args)) == 1:
                return args[0]
            k = next(i for i in range(3) if args.count(args[i]) == 1)
            return args[k] if pattern[k] == "x" else 1 - args[k]
        two = validate_algebra("two", 2, [("t", 3, [t(a) for a in product(range(2), repeat=3)])])
        term = app("t", [proj(0, 3), proj(1, 3), proj(2, 3)])
        on_two = dataclasses.replace(edge, edge_algebra=two)
        assert synthesis._ternary_on_edge(term, on_two) == pattern
        if pattern != "yyy":
            first = next(p for p in permutations(range(3))
                         if evaluate(term, two, [(0, 1, 1)[i] for i in p]) == 0
                         and evaluate(term, two, [(1, 0, 0)[i] for i in p]) == 1)
            assert synthesis._STRAIGHTEN[pattern.index("x")] == first, pattern


# --------------------------------------------------------------------------
# inventories and the unified operations
# --------------------------------------------------------------------------

def test_inventory_contents():
    algebras = align_signatures([fixtures.sl2(), fixtures.mj2(),
                                 fixtures.z3_affine()])
    inv = build_edge_inventory(algebras)
    assert len(inv.semilattice) == 1
    assert len(inv.majority) == 1
    assert len(inv.affine) == 1
    assert not inv.unary
    inv_ne = build_edge_inventory(align_signatures([fixtures.no_edge()]))
    assert len(inv_ne.semilattice) == 2
    assert not inv_ne.majority and not inv_ne.affine


def test_inventory_trivial_class_empty():
    one = validate_algebra("one", 1, [("e", 1, [0])])
    inv = build_edge_inventory([one])
    assert not (inv.semilattice or inv.majority or inv.affine or inv.unary)
    ops = uniform_ops([one])
    assert ops.report.all_green


def test_uniform_ops_single_module():
    ops = uniform_ops([fixtures.z3_affine()])
    z3 = ops.inventory.algebras[0]
    assert projection_index(realize_table(ops.f, z3), 3) == 0
    assert projection_index(realize_table(ops.g, z3), 3) == 0
    assert realize_table(ops.h, z3).table == tuple(
        (x - y + z) % 3 for x, y, z in product(range(3), repeat=3))


def test_uniform_ops_single_fixtures():
    # the term texts are pinned to the ones the benchmark expects from
    # `idemalg synth --fixture NAME`: witness text changes only on purpose
    path = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    expected = json.loads(path.read_text(encoding="utf-8"))["synth"]
    assert sorted(expected) == sorted(fixtures.FIXTURES)
    for name in fixtures.FIXTURES:
        ops = _class_ops(name)
        assert ops.report.all_green, name
        texts = {"f": ops.f.text(), "g": ops.g.text(), "h": ops.h.text()}
        assert texts == expected[name]["terms"], name


def test_uniform_ops_tables_on_acceptance_class():
    ops = _class_ops("sl2", "mj2", "z3-affine")
    sl, mj, z3 = ops.inventory.algebras
    assert realize_table(ops.f, sl).table == (0, 0, 0, 1)
    assert projection_index(realize_table(ops.f, mj), 2) == 0
    assert projection_index(realize_table(ops.f, z3), 3) == 0
    gt = realize_table(ops.g, mj)
    assert all(apply_op(gt, (x, y, z), 2) == (1 if x + y + z >= 2 else 0)
               for x, y, z in product(range(2), repeat=3))
    assert projection_index(realize_table(ops.g, z3), 3) == 0
    assert realize_table(ops.g, sl).table == tuple(
        min(x, min(y, z)) for x, y, z in product(range(2), repeat=3))
    ht = realize_table(ops.h, z3)
    assert ht.table == tuple((x - y + z) % 3
                             for x, y, z in product(range(3), repeat=3))
    assert projection_index(realize_table(ops.h, mj), 2) == 0


def test_verify_uniform_matches_scalar_oracle():
    """Every edge condition of verify_uniform, on candidate triples that
    pass and fail each of them, agrees with scalar evaluation; every verdict
    is a Python bool, so the report serializes to JSON."""
    ops = _class_ops("sl2", "mj2", "z3-affine", "no-majority-symmetry")
    x, y, z = proj(0, 3), proj(1, 3), proj(2, 3)
    binary = [proj(0, 2), proj(1, 2), ops.f, substitute(ops.f, [proj(1, 2), proj(0, 2)])]
    ternary = [x, y, z, ops.g, ops.h, substitute(ops.g, [y, x, z]),
               substitute(ops.h, [z, y, x]), substitute(ops.f, [x, substitute(ops.f, [y, z])])]
    rng = random.Random(12)
    seen = set()
    for f, g, h in rng.sample(list(product(binary, ternary, ternary)), 80):
        report = synthesis.verify_uniform(ops.inventory, f, g, h)
        assert all(type(c.ok) is bool for c in report.checks)
        got = [(c.condition, c.edge, c.ok) for c in report.checks
               if not c.condition.startswith("identity")]
        assert got == naive_edge_conditions(ops.inventory, f, g, h)
        seen |= {(cond, ok) for cond, _, ok in got}
    conditions = {cond for cond, _ in seen}
    assert len(conditions) == 8 and seen == {(c, ok) for c in conditions for ok in (True, False)}


def test_uniform_ops_deterministic():
    a = _class_ops("sl2", "mj2", "z3-affine")
    b = _class_ops("sl2", "mj2", "z3-affine")
    assert a.f is b.f and a.g is b.g and a.h is b.h


def test_uniform_ops_unary_precondition():
    flat = validate_algebra("set2", 2, [("f", 2, [0, 0, 1, 1])])
    with pytest.raises(PreconditionViolated):
        uniform_ops([flat])


def test_corollary_uniform_product_equality():
    """Running the synthesis on a 2-member class or on its product gives
    the same tables on each member."""
    pairs = [("sl2", "mj2"), ("sl2", "z3-affine"), ("mj2", "z3-affine")]
    for n1, n2 in pairs:
        members = align_signatures([fixtures.fixture(n1), fixtures.fixture(n2)])
        ops_class = uniform_ops(members)
        prod = product_algebra(members[0], members[1])
        ops_prod = uniform_ops([prod])
        for alg in ops_class.inventory.algebras:
            for cls_term, prod_term in ((ops_class.f, ops_prod.f),
                                        (ops_class.g, ops_prod.g),
                                        (ops_class.h, ops_prod.h)):
                assert realize_table(cls_term, alg).table == \
                    realize_table(prod_term, alg).table, (n1, n2)


# --------------------------------------------------------------------------
# combination terms
# --------------------------------------------------------------------------

def _thin_edges_of(ops, kind):
    out = []
    for alg in ops.inventory.algebras:
        tg = thin_graph(alg, ops)
        out.extend(tg.by_kind(kind))
    return out


def test_majority_triple_single_edge():
    ops = _class_ops("mj2")
    edges = _thin_edges_of(ops, SPECIAL_THIN_MAJORITY)
    e = next(x for x in edges if (x.a, x.b) == (0, 1))
    g3 = majority_triple(ops, e, e, e)
    alg = e.algebra
    assert evaluate(g3, alg, (0, 1, 1)) == 1
    assert evaluate(g3, alg, (1, 0, 1)) == 1
    assert evaluate(g3, alg, (1, 1, 0)) == 1


def test_majority_triple_across_fixtures():
    ops = _class_ops("mj2", "no-majority-symmetry", "z3-affine")
    edges = _thin_edges_of(ops, SPECIAL_THIN_MAJORITY)
    assert len(edges) >= 3
    e1 = edges[0]
    e2 = next(e for e in edges if e.algebra is not e1.algebra)
    e3 = edges[-1]
    g3 = majority_triple(ops, e1, e2, e3)
    assert evaluate(g3, e1.algebra, (e1.a, e1.b, e1.b)) == e1.b
    assert evaluate(g3, e2.algebra, (e2.b, e2.a, e2.b)) == e2.b
    assert evaluate(g3, e3.algebra, (e3.b, e3.b, e3.a)) == e3.b


def test_affine_pair_combinations():
    ops = _class_ops("z3-affine", "no-majority-symmetry")
    edges = _thin_edges_of(ops, THIN_AFFINE)
    assert edges
    for e1 in edges[:3]:
        for e2 in edges[:3]:
            hp = affine_pair(ops, e1, e2)
            assert evaluate(hp, e1.algebra, (e1.b, e1.a, e1.a)) == e1.b
            assert evaluate(hp, e2.algebra, (e2.a, e2.a, e2.b)) == e2.b


def test_affine_pair_with_module_square(z3a):
    members = [fixtures.z3_affine(),
               product_algebra(fixtures.z3_affine(), fixtures.z3_affine())]
    ops = uniform_ops(members)
    edges = _thin_edges_of(ops, THIN_AFFINE)
    small = next(e for e in edges if e.algebra.size == 3)
    big = next(e for e in edges if e.algebra.size == 9)
    hp = affine_pair(ops, small, big)
    assert evaluate(hp, small.algebra, (small.b, small.a, small.a)) == small.b
    assert evaluate(hp, big.algebra, (big.a, big.a, big.b)) == big.b


def test_mixed_pair_all_type_combinations():
    ops = _class_ops("sl2", "mj2", "z3-affine")
    sls = _thin_edges_of(ops, THIN_SEMILATTICE)
    majs = _thin_edges_of(ops, SPECIAL_THIN_MAJORITY)
    affs = _thin_edges_of(ops, THIN_AFFINE)
    assert sls and majs and affs
    combos = [(majs[0], sls[0]), (affs[0], sls[0]), (affs[0], majs[0]),
              (sls[0], majs[0]), (sls[0], affs[0]), (majs[0], affs[0])]
    for e1, e2 in combos:
        p = mixed_pair(ops, e1, e2)
        assert evaluate(p, e1.algebra, (e1.b, e1.a)) == e1.b
        assert evaluate(p, e2.algebra, (e2.a, e2.b)) == e2.b


def test_mixed_pair_rejects_same_kind():
    ops = _class_ops("z3-affine")
    affs = _thin_edges_of(ops, THIN_AFFINE)
    with pytest.raises(UnsupportedCombination):
        mixed_pair(ops, affs[0], affs[1])


def test_affine_stable_ops():
    ops = _class_ops("mj2", "z3-affine")
    majs = _thin_edges_of(ops, SPECIAL_THIN_MAJORITY)
    affs = _thin_edges_of(ops, THIN_AFFINE)
    t = affine_stable_ops(ops, majs[0], "t_ab")
    e = majs[0]
    assert evaluate(t, e.algebra, (e.a, e.b)) == e.b
    # on the affine member the result stays in the first argument's block
    z3 = affs[0].algebra
    for c, d in ((0, 1), (1, 2), (2, 0)):
        assert evaluate(t, z3, (c, d)) == c      # equality congruence there
    h = affine_stable_ops(ops, affs[0], "h_ab")
    ea = affs[0]
    assert evaluate(h, ea.algebra, (ea.a, ea.a, ea.b)) == ea.b
    for c in range(3):
        for d in range(3):
            assert evaluate(h, z3, (d, c, c)) == d


def test_affine_stable_t_ab_without_affine_edges():
    # degenerate class: the block conditions are vacuous, only t(a,b)=b
    ops = _class_ops("mj2")
    e = _thin_edges_of(ops, SPECIAL_THIN_MAJORITY)[0]
    t = affine_stable_ops(ops, e, "t_ab")
    assert evaluate(t, e.algebra, (e.a, e.b)) == e.b


def test_affine_stable_h_ab_permutation_on_blocks():
    ops = _class_ops("no-majority-symmetry")
    affs = _thin_edges_of(ops, THIN_AFFINE)
    h = affine_stable_ops(ops, affs[0], "h_ab")
    # construction verifies the permutation property internally; re-derive
    # one instance: x -> h(x, c', d') must hit both classes of {0,2}
    alg = affs[0].algebra
    sub = (0, 2)
    for cp in sub:
        for dp in sub:
            image = {evaluate(h, alg, (x, cp, dp)) for x in sub}
            assert image == {0, 2}


def test_affine_stable_h_ab_names_the_first_failing_block_check(monkeypatch):
    """With the generation witness the second projection, h_ab is the given
    h; on a 3-element affine edge made up for the purpose, the two block
    checks fail with their first counterexample."""
    monkeypatch.setattr(synthesis, "_gen_witness", lambda algebra, a, v, target: proj(1, 2))
    ops = _class_ops("z3-affine")
    cases = [(lambda x, y, z: z if x == y else x, (0, 2),
              "h_ab(x, 0, 2) is not a permutation of the quotient on s:(0, 2) "
              "affine blocks (0,)|(1,)"),
             (lambda x, y, z: z if x == y else x if y != z else y, (0, 1),
              "h_ab drifts off the block on s:(0, 1) affine blocks (0,)|(1,)")]
    for rule, sub, message in cases:
        s = validate_algebra("s", 3, [("s", 3, [rule(*a) for a in product(range(3), repeat=3)])])
        aff = dataclasses.replace(ops.inventory.affine[0], algebra=s, subuniverse=sub, pair=sub,
                                  theta=Congruence.from_blocks(2, [[0], [1]]))
        fake = dataclasses.replace(ops, h=app("s", [proj(0, 3), proj(1, 3), proj(2, 3)]),
                                   inventory=dataclasses.replace(ops.inventory, affine=(aff,)))
        with pytest.raises(PostconditionFailed) as exc:
            affine_stable_ops(fake, ThinEdge(s, 0, 1, THIN_AFFINE), "h_ab")
        assert str(exc.value) == message


def test_construction_certificates_raise_under_O(run_optimized):
    # a corrupt generation witness makes t_ab the first projection, which
    # the certificate t_ab(a, b) = b must reject with asserts stripped
    code = (
        "from idemalg import fixtures, synthesis, terms\n"
        "from idemalg.errors import PostconditionFailed\n"
        "from idemalg.thin import SPECIAL_THIN_MAJORITY, thin_graph\n"
        "ops = synthesis.uniform_ops([fixtures.fixture('mj2')])\n"
        "alg = ops.inventory.algebras[0]\n"
        "edge = thin_graph(alg, ops).by_kind(SPECIAL_THIN_MAJORITY)[0]\n"
        "synthesis._gen_witness = lambda algebra, a, v, target: terms.proj(0, 2)\n"
        "print(__debug__)\n"
        "try:\n"
        "    synthesis.affine_stable_ops(ops, edge, 't_ab')\n"
        "except PostconditionFailed as exc:\n"
        "    print(exc)\n")
    assert run_optimized(code) == "False\nt_ab = p0 fails at [('mj2', (0, 1), 1)]\n"
