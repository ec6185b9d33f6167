"""Pair classification, graphs, connectivity, smoothness."""

from dataclasses import replace
from itertools import combinations

from idemalg import fixtures
from idemalg.algebra import DEFAULT_CAP, restrict, validate_algebra
from idemalg.checks import check_edge_factor, check_edge_subalgebra
from idemalg.edges import (
    AFFINE,
    MAJORITY,
    SEMILATTICE,
    UNARY,
    classify_pair,
    connected_components,
    graph_to_dot,
    hypergraph,
    hypergraph_connected,
    hypergraph_to_dot,
    is_connected,
    is_smooth,
    structure_graph,
    x_connected,
)
from idemalg.generate import Absent, SEMILATTICE as SLKIND, find_pair_witness


def test_no_edge_classification(a_ne):
    ac = classify_pair(a_ne, 0, 2)
    assert ac.labels == {SEMILATTICE}
    assert ac.subuniverse == (0, 2)
    bc = classify_pair(a_ne, 1, 2)
    assert bc.labels == {SEMILATTICE}
    ab = classify_pair(a_ne, 0, 1)
    assert not ab.is_edge and not ab.is_unknown
    assert ab.subuniverse == (0, 1, 2)


def test_no_edge_factor_classification(c_nef):
    # pair ((a,0),(b,1)) = (0,3): majority via the second projection kernel;
    # the first projection kernel is maximal yet contributes no label
    rep = classify_pair(c_nef, 0, 3)
    assert rep.labels == {MAJORITY}
    assert len(rep.witnesses) == 1
    w = rep.witnesses[0]
    assert w.theta_parent_blocks() == ((0, 2, 4), (1, 3, 5))


def test_z3_affine_classification(z3a):
    rep = classify_pair(z3a, 0, 1)
    assert rep.labels == {AFFINE}
    w = rep.witnesses[0]
    assert w.theta.is_equality
    assert w.quotient.size == 3


def test_nms_classification(a_nms):
    for a in (0, 2):
        for b in (1, 3):
            rep = classify_pair(a_nms, a, b)
            assert rep.labels == {MAJORITY}
    for pair in ((0, 2), (1, 3)):
        rep = classify_pair(a_nms, *pair)
        assert rep.labels == {AFFINE}


def test_unary_edge_detected():
    flat = validate_algebra("set2", 2, [("f", 2, [0, 0, 1, 1])])
    rep = classify_pair(flat, 0, 1)
    assert rep.labels == {UNARY}


def test_structure_graph_and_connectivity(a_ne, trivial):
    graph = structure_graph(a_ne)
    assert set(graph.edges()) == {(0, 2), (1, 2)}
    assert is_connected(graph)
    flat2 = validate_algebra("proj2", 2, [("f", 2, [0, 0, 1, 1])])
    g2 = structure_graph(flat2)
    # a 2-element set still has a unary edge, so build a truly edgeless
    # graph by hand to exercise the reachability code
    from idemalg.edges import EdgeReport, StructureGraph
    empty = StructureGraph(flat2, (EdgeReport((0, 1), (0, 1), ()),))
    assert not is_connected(empty)
    assert connected_components(empty) == [(0,), (1,)]
    assert is_connected(structure_graph(trivial))


def test_hypergraph_examples(a_ne, sl2, trivial):
    hg = hypergraph(sl2)
    assert hg.hyperedges == ((0,), (1,))
    assert not hypergraph_connected(hg)
    hg_ne = hypergraph(a_ne)
    assert (0, 2) in hg_ne.hyperedges and (1, 2) in hg_ne.hyperedges
    assert hypergraph_connected(hg_ne)
    assert hypergraph_connected(hypergraph(trivial))


def test_x_connected_examples(a_ne, z3a, trivial):
    assert x_connected(a_ne, {SEMILATTICE}) is True
    bad = x_connected(z3a, {SEMILATTICE, MAJORITY})
    assert bad == ((0, 1, 2), (0, 1))
    assert x_connected(trivial, set()) is True
    assert x_connected(z3a, {SEMILATTICE, MAJORITY, AFFINE}) is True


def test_is_smooth(a_ne, mj2, a_nms, c_nef):
    for alg in (a_ne, mj2, a_nms, c_nef):
        assert is_smooth(alg) is True


def test_majority_label_requires_semilattice_absence(a_nms, c_nef):
    for alg in (a_nms, c_nef):
        graph = structure_graph(alg)
        for rep in graph.reports:
            for w in rep.witnesses:
                assert {w.label} != {SEMILATTICE, MAJORITY}
                if w.label == MAJORITY:
                    ans = find_pair_witness(w.quotient, SLKIND,
                                            w.a_block, w.b_block)
                    assert isinstance(ans, Absent)


def test_many_edges_property(a_ne, a_nms, c_nef, z3a):
    for alg in (a_ne, a_nms, c_nef, z3a):
        graph = structure_graph(alg)
        for rep in graph.reports:
            for w in rep.witnesses:
                for c in w.parent_block(w.a_block):
                    for d in w.parent_block(w.b_block):
                        assert w.label in graph.report(c, d).labels


def test_edge_subalgebra_property(a_ne, a_nms, c_nef):
    from idemalg.generate import all_subalgebras
    for alg in (a_ne, a_nms, c_nef):
        for sub in all_subalgebras(alg):
            if len(sub) < 2 or len(sub) == alg.size:
                continue
            emb = tuple(sorted(sub))
            b_alg, _ = restrict(alg, emb)
            for i, j in combinations(range(b_alg.size), 2):
                inner = classify_pair(b_alg, i, j)
                outer = classify_pair(alg, emb[i], emb[j])
                assert inner.labels == outer.labels


def test_edge_factor_property(c_nef, a_nms):
    from idemalg.congruence import congruence_lattice, quotient_by
    for alg in (c_nef, a_nms):
        for theta in congruence_lattice(alg):
            if theta.is_equality or theta.is_total:
                continue
            quot, _ = quotient_by(alg, theta)
            for qa, qb in combinations(range(quot.size), 2):
                qrep = classify_pair(quot, qa, qb)
                if not qrep.is_edge:
                    continue
                a, b = theta.blocks[qa][0], theta.blocks[qb][0]
                rep = classify_pair(alg, a, b)
                assert qrep.labels <= rep.labels


def test_no_edge_factor_quotient_pair_is_non_edge(c_nef):
    # the converse of edge lifting fails: (0,3) is an edge of the product
    # while its image modulo the first kernel is not
    from idemalg.congruence import Congruence, quotient_by
    pi1 = Congruence.from_blocks(6, [(0, 1), (2, 3), (4, 5)])
    quot, bmap = quotient_by(c_nef, pi1)
    rep = classify_pair(quot, bmap[0], bmap[3])
    assert not rep.is_edge
    assert classify_pair(c_nef, 0, 3).is_edge


def test_dot_export(a_ne, z3a):
    dot = graph_to_dot(structure_graph(a_ne))
    assert '"a" -- "c"' in dot and "style=solid" in dot
    assert '"a" -- "b"' not in dot
    dot_z = graph_to_dot(structure_graph(z3a))
    assert dot_z.count("style=dotted") == 3      # all three pairs affine
    hdot = hypergraph_to_dot(hypergraph(a_ne), a_ne)
    assert "shape=box" in hdot


def test_theorem_connectedness_on_all_fixture_subalgebras():
    from idemalg.generate import all_subalgebras
    for name in fixtures.FIXTURES:
        alg = fixtures.fixture(name)
        for sub in all_subalgebras(alg):
            if len(sub) < 2:
                continue
            b_alg, _ = restrict(alg, sorted(sub))
            assert is_connected(structure_graph(b_alg)), (name, sub)


def test_fixture_type_spectra():
    """One-directional type checks: no fixture has unary edges; the
    affine-free ones report no affine edges; the module fixture does."""
    spectra = {}
    for name in fixtures.FIXTURES:
        graph = structure_graph(fixtures.fixture(name))
        labels = set()
        for rep in graph.reports:
            labels |= rep.labels
        spectra[name] = labels
        assert UNARY not in labels, name
    assert AFFINE in spectra["z3-affine"]
    for name in ("no-edge", "sl2", "mj2", "no-edge-factor"):
        assert AFFINE not in spectra[name], name


def test_analyses_are_memoized_per_object(c_nef):
    graph = structure_graph(c_nef)
    assert structure_graph(c_nef).reports is graph.reports
    assert restrict(c_nef, [0, 2, 4]) is restrict(c_nef, [4, 2, 0])
    # an equal algebra is another object: it starts cold and shares nothing
    twin = fixtures.no_edge_factor()
    assert twin == c_nef
    assert structure_graph(twin).reports is not graph.reports
    assert structure_graph(twin).reports == graph.reports


def test_cross_checks_do_not_share_a_cache(c_nef):
    """Poison the algebra's memoized report for one pair: the checks that
    classify it again in a subalgebra and from a quotient must disagree
    with it.  Were they reading the same cache, both would pass."""
    fresh = fixtures.no_edge_factor()
    assert check_edge_subalgebra(fresh)[0].ok
    assert check_edge_factor(fresh)[0].ok
    structure_graph(c_nef)
    key = ("classify_pair", 2, 4, DEFAULT_CAP)
    assert c_nef._memo[key].labels == {SEMILATTICE}
    c_nef._memo[key] = replace(c_nef._memo[key], witnesses=())
    assert not check_edge_subalgebra(c_nef)[0].ok
    assert not check_edge_factor(c_nef)[0].ok


def test_merged_generators_raise_under_O(run_optimized):
    # a corrupt lattice step hands classify_pair the total congruence as a
    # maximal one; it merges the pair, which no classification may accept
    code = (
        "from idemalg import edges, fixtures\n"
        "from idemalg.congruence import Congruence\n"
        "from idemalg.errors import PostconditionFailed\n"
        "edges.maximal_congruences = lambda algebra, limits: "
        "[Congruence.from_parent([0] * algebra.size)]\n"
        "print(__debug__)\n"
        "try:\n"
        "    edges.classify_pair(fixtures.sl2(), 0, 1)\n"
        "except PostconditionFailed as exc:\n"
        "    print(exc)\n")
    assert run_optimized(code) == (
        "False\n"
        "the maximal congruence {0,1} of Sg{0,1} merges its generators\n")
