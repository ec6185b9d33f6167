"""Thin edges: the shift condition refinement, minimal pairs, thin
majority/affine discovery, necessary-condition verdicts."""

import random
from pathlib import Path

import pytest

from idemalg import fixtures, synthesis, terms, thin
from idemalg.algebra import validate_algebra
from idemalg.cli import EXIT_OK, main
from idemalg.edges import AFFINE, classify_pair, structure_graph
from idemalg.errors import PostconditionFailed
from idemalg.terms import app, proj, realize_table
from idemalg.thin import (
    SPECIAL_THIN_MAJORITY,
    THIN_AFFINE,
    THIN_SEMILATTICE,
    check_thin_necessary,
    find_special_thin_majority,
    find_thin_affine,
    is_minimal_pair,
    satisfies_sls,
    sls_chain,
    synth_sls,
    thin_graph,
    thin_semilattice_order,
)

from oracles import apply_op, naive_satisfies_sls, naive_sls_ell, naive_thin_semilattice_order

PINNED = Path(__file__).parent / "data" / "thin"


def _ops_for(*names):
    return synthesis.uniform_ops([fixtures.fixture(n) for n in names])


def test_synth_sls_no_edge_keeps_f(a_ne):
    f = app("f", [proj(0, 2), proj(1, 2)])
    refined = synth_sls(a_ne, f)
    assert refined is f                      # already shift-compliant
    assert satisfies_sls(a_ne, refined) is None


def test_synth_sls_first_projection_vacuous(mj2):
    f0 = proj(0, 2)
    refined = synth_sls(mj2, f0)
    assert realize_table(refined, mj2).table == (0, 0, 1, 1)


def test_synth_sls_meet_unchanged(sl2):
    f0 = app("meet", [proj(0, 2), proj(1, 2)])
    refined = synth_sls(sl2, f0)
    assert realize_table(refined, sl2).table == (0, 0, 0, 1)


def test_synth_sls_rejects_unnormalized_input(z3a):
    # 2x - y mod 3 fails f(x, f(x,y)) = f(x,y): iterating flips the sign
    t = app("h", [proj(0, 2), proj(1, 2), proj(0, 2)])
    with pytest.raises(PostconditionFailed):
        synth_sls(z3a, t)


def test_thin_semilattice_order_examples(a_ne, sl2, z3a):
    f_ne = app("f", [proj(0, 2), proj(1, 2)])
    assert thin_semilattice_order(a_ne, f_ne) == [(0, 2), (1, 2)]
    meet = app("meet", [proj(0, 2), proj(1, 2)])
    assert thin_semilattice_order(sl2, meet) == [(1, 0)]
    ops = _ops_for("z3-affine")
    z3 = ops.inventory.algebras[0]
    assert thin_semilattice_order(z3, ops.f) == []


def test_minimal_pair_examples(a_nms, c_nef):
    theta_blocks = [(0, 2), (1, 3)]
    assert is_minimal_pair(a_nms, 0, 1, theta_blocks)
    # equality congruence: minimality degenerates to b in Sg{a,b}
    assert is_minimal_pair(a_nms, 0, 2, [(0,), (2,)])
    # ((a,0),(b,1)) is not minimal for the second kernel: (a,1) generates
    # only the fiber of a together with (a,0)
    pi2_blocks = [(0, 2, 4), (1, 3, 5)]
    assert not is_minimal_pair(c_nef, 0, 3, pi2_blocks)
    # the shifted choice ((a,0),(a,1)) is: its restricted block is a point
    assert is_minimal_pair(c_nef, 0, 1, [(0,), (1,)])


def test_special_thin_majority_mj2(mj2):
    rep = classify_pair(mj2, 0, 1)
    w = rep.witnesses[0]
    found = find_special_thin_majority(mj2, w)
    assert {(e.a, e.b) for e in found} == {(0, 1), (1, 0)}


def test_special_thin_majority_nms(a_nms):
    rep = classify_pair(a_nms, 0, 1)
    w = rep.witnesses[0]
    found = find_special_thin_majority(a_nms, w)
    pairs = {(e.a, e.b) for e in found}
    assert any(c == 0 for c, d in pairs)     # at least one arc out of a
    assert all((c % 2) != (d % 2) for c, d in pairs)


def test_special_thin_majority_no_edge_factor(c_nef):
    rep = classify_pair(c_nef, 0, 3)
    w = rep.witnesses[0]
    found = find_special_thin_majority(c_nef, w)
    assert any(e.a == 0 for e in found)


def test_thin_affine_z3(z3a):
    ops = _ops_for("z3-affine")
    z3 = ops.inventory.algebras[0]
    for pair in ((0, 1), (0, 2)):
        rep = classify_pair(z3, *pair)
        found = find_thin_affine(z3, rep.witnesses[0], ops.h)
        assert (pair[0], pair[1]) in {(e.a, e.b) for e in found}


def test_thin_affine_product_module(z3a):
    """In the square of the module two elements only generate a line, so
    the witnessing congruence is the restriction of a projection kernel to
    that line; the shifted pairs still satisfy the Mal'tsev fixed-point
    equation by table evaluation."""
    from idemalg.algebra import product_algebra
    from idemalg import synthesis
    prod = product_algebra(z3a, z3a)
    ops = synthesis.uniform_ops([prod])
    alg = ops.inventory.algebras[0]
    rep = classify_pair(alg, 0, 5)       # (0,0) and (1,2) span a line
    assert rep.labels == {AFFINE}
    w = rep.witnesses[0]
    assert len(w.subuniverse) == 3 and w.theta.is_equality
    found = find_thin_affine(alg, w, ops.h)
    assert found
    for e in found:
        assert terms.evaluate(ops.h, alg, (e.b, e.a, e.a)) == e.b


def test_check_thin_necessary_examples(z3a, mj2, sl2):
    ops_z = _ops_for("z3-affine")
    z3 = ops_z.inventory.algebras[0]
    assert check_thin_necessary(z3, 0, 1, THIN_AFFINE, ops_z)
    ops_m = _ops_for("mj2")
    m2 = ops_m.inventory.algebras[0]
    assert check_thin_necessary(m2, 0, 1, SPECIAL_THIN_MAJORITY, ops_m)

    class FakeOps:
        h = proj(0, 3)

    # first projection fails the affine shifts on a meet semilattice:
    # h(1,0,0)=1 holds but Sg{0, h(0,0,1)} = {0} misses 1
    assert not check_thin_necessary(sl2, 0, 1, THIN_AFFINE, FakeOps())


def test_thin_graph_arcs_per_fixture():
    expected = {
        "no-edge": {(0, 2, THIN_SEMILATTICE), (1, 2, THIN_SEMILATTICE)},
        "sl2": {(1, 0, THIN_SEMILATTICE)},
        "mj2": {(0, 1, SPECIAL_THIN_MAJORITY), (1, 0, SPECIAL_THIN_MAJORITY)},
        "z3-affine": {(a, b, THIN_AFFINE)
                      for a in range(3) for b in range(3) if a != b},
    }
    for name, want in expected.items():
        ops = _ops_for(name)
        alg = ops.inventory.algebras[0]
        tg = thin_graph(alg, ops)
        assert {(e.a, e.b, e.kind) for e in tg.arcs} == want, name
        assert all(e.necessary for e in tg.arcs)


def test_thin_graph_nms(a_nms):
    ops = _ops_for("no-majority-symmetry")
    alg = ops.inventory.algebras[0]
    tg = thin_graph(alg, ops)
    maj_arcs = {(e.a, e.b) for e in tg.by_kind(SPECIAL_THIN_MAJORITY)}
    # every even element sends an arc into the odd block
    for a in (0, 2):
        assert any(c == a and d % 2 == 1 for c, d in maj_arcs)
    aff_arcs = {(e.a, e.b) for e in tg.by_kind(THIN_AFFINE)}
    assert (0, 2) in aff_arcs and (1, 3) in aff_arcs
    assert all(e.necessary for e in tg.arcs)


def test_cor_thick_thin(a_ne, c_nef):
    """From every semilattice witness, every element of the non-absorbing
    block reaches the absorbing block by a thin semilattice edge."""
    for alg_name in ("no-edge", "no-edge-factor"):
        ops = _ops_for(alg_name)
        alg = ops.inventory.algebras[0]
        order = set(thin_semilattice_order(alg, ops.f))
        ftab = realize_table(ops.f, alg)
        graph = structure_graph(alg)
        checked = 0
        for rep in graph.reports:
            for w in rep.witnesses:
                if w.label != "semilattice":
                    continue
                qtab = realize_table(ops.f, w.quotient)
                absorbed = apply_op(qtab, (w.a_block, w.b_block), w.quotient.size)
                source = w.b_block if absorbed == w.a_block else w.a_block
                src_blk = w.parent_block(source)
                dst_blk = w.parent_block(absorbed)
                for c in src_blk:
                    d = apply_op(ftab, (c, dst_blk[0]), alg.size)
                    assert d in dst_blk
                    assert (c, d) in order
                    checked += 1
        assert checked > 0


def test_thin_dot_export(a_ne):
    ops = _ops_for("no-edge")
    alg = ops.inventory.algebras[0]
    tg = thin_graph(alg, ops)
    dot = thin.thin_graph_to_dot(tg)
    assert '"a" -> "c"' in dot and "digraph" in dot


def test_thin_thick_colors_match():
    """A thin edge of a type exists exactly when a thick edge of that type
    exists (fixtures have no unary edges)."""
    kind_of = {"semilattice": THIN_SEMILATTICE,
               "majority": SPECIAL_THIN_MAJORITY,
               "affine": THIN_AFFINE}
    for name in fixtures.FIXTURES:
        ops = _ops_for(name)
        alg = ops.inventory.algebras[0]
        thick = set()
        for rep in structure_graph(alg).reports:
            thick |= rep.labels
        tg = thin_graph(alg, ops)
        thin_kinds = {e.kind for e in tg.arcs}
        assert thin_kinds == {kind_of[lab] for lab in thick}, name


def _random_binary(rng, name):
    n = rng.randint(2, 5)
    table = [a if a == b else rng.randrange(n) for a in range(n) for b in range(n)]
    return validate_algebra(name, n, [("f", 2, table)])


def test_thin_checks_match_scalar_oracles():
    """satisfies_sls, thin_semilattice_order and the stabilization index of
    sls_chain (or the pair it raises on) agree with per-entry loops on
    seeded random binary algebras."""
    rng = random.Random(1212)
    f = app("f", [proj(0, 2), proj(1, 2)])
    outcomes = {"ell": 0, "cycle": 0}
    for i in range(50):
        alg = _random_binary(rng, f"r{i}")
        n, op = alg.size, alg.op("f")
        assert satisfies_sls(alg, f) == naive_satisfies_sls(op, n), alg
        assert thin_semilattice_order(alg, f) == naive_thin_semilattice_order(op, n), alg
        ell, cycling = naive_sls_ell(op, n)
        if cycling is not None:
            outcomes["cycle"] += 1
            with pytest.raises(PostconditionFailed,
                               match=rf"shift chain of \({cycling[0]},{cycling[1]}\) in r{i} "):
                sls_chain([alg], f)
            continue
        outcomes["ell"] += 1
        refined, got = sls_chain([alg], f)
        assert got == ell, alg
        assert satisfies_sls(alg, refined) == \
            naive_satisfies_sls(realize_table(refined, alg), n), alg
    assert min(outcomes.values()) >= 10, outcomes


def test_sls_chain_raises_on_a_two_cycle():
    """f(b,0) = b, f(0,1) = 2, f(0,2) = 1: the chain of (0,1) runs 2, 1, 2, ..."""
    table = [0, 2, 1,
             1, 1, 1,
             2, 2, 2]
    alg = validate_algebra("cyc", 3, [("f", 2, table)])
    with pytest.raises(PostconditionFailed, match=r"shift chain of \(0,1\) in cyc cycles"):
        sls_chain([alg], app("f", [proj(0, 2), proj(1, 2)]))


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_cli_thin_stdout_pinned(name, capsys):
    """`idemalg thin --fixture NAME` prints exactly the pinned DOT and arcs."""
    assert main(["thin", "--fixture", name]) == EXIT_OK
    assert capsys.readouterr().out == (PINNED / f"{name}.out").read_text()


def test_edge_behaviour_check_names_the_first_changed_point():
    meet, f = (app(op, [proj(0, 2), proj(1, 2)]) for op in ("meet", "f"))
    cases = [
        ("sl2", meet, proj(1, 2), "refinement changed the semilattice edge (0, 1) at (0, 1)"),
        ("sl2", meet, proj(0, 2), "refinement changed the semilattice edge (0, 1) at (1, 0)"),
        ("no-edge", f, proj(0, 2), "refinement changed the semilattice edge (0, 2) at (0, 1)"),
        ("mj2", proj(0, 2), proj(1, 2),
         "refinement is not the first projection on the majority edge (0, 1)"),
        ("z3-affine", proj(0, 2), proj(1, 2),
         "refinement is not the first projection on the affine edge (0, 1)"),
    ]
    for name, f0, refined, message in cases:
        alg = fixtures.fixture(name)
        with pytest.raises(PostconditionFailed) as exc:
            thin._check_edge_behaviour(alg, f0, refined, structure_graph(alg))
        assert str(exc.value) == message
