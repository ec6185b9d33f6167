"""The verify suites: the first counterexample in iteration order, the
seeded tolerance check against its plain loop, and the subalgebra graphs
read off the algebra itself."""

from dataclasses import replace

import oracles
import pytest
from oracles import naive_tolerance_check

from idemalg import checks, fixtures, terms
from idemalg.algebra import restrict
from idemalg.edges import StructureGraph, classify_pair, structure_graph, subalgebra_graphs


def _detail(rows):
    (row,) = rows
    assert not row.ok
    return row.detail


def _unlabel(monkeypatch, alg, bad):
    """`checks.classify_pair` reports the pairs in `bad` of `alg` with no
    witnesses (no labels); every other report is the real one."""
    real = checks.classify_pair

    def fake(algebra, a, b, limits=checks.DEFAULT_LIMITS):
        rep = real(algebra, a, b, limits)
        return replace(rep, witnesses=()) if algebra is alg and (a, b) in bad else rep
    monkeypatch.setattr(checks, "classify_pair", fake)


def test_generation_names_the_first_broken_witness(monkeypatch):
    alg = fixtures.no_edge()
    real = terms.evaluate
    monkeypatch.setattr(terms, "evaluate", lambda t, algebra, args: -1
                        if tuple(args) in {(0, 2), (1, 2)} else real(t, algebra, args))
    assert _detail(checks.check_generation(alg)) == "witness for 0 from {0,2} broken"


def test_many_edges_names_the_first_block_mate(monkeypatch, c_nef):
    graph = structure_graph(c_nef)
    fake = StructureGraph(c_nef, tuple(replace(r, witnesses=()) if r.pair in {(2, 5), (3, 4)}
                                       else r for r in graph.reports))
    monkeypatch.setattr(checks, "structure_graph", lambda algebra, limits: fake)
    assert _detail(checks.check_many_edges(c_nef)) == \
        "pair (2, 5) misses label majority inherited from (0, 3)"


def test_edge_subalgebra_names_the_first_disagreement(monkeypatch, c_nef):
    # (0, 4) first meets a proper subalgebra in {0,1,4,5}, (3, 5) last in {3,5}
    _unlabel(monkeypatch, c_nef, {(0, 4), (3, 5)})
    assert _detail(checks.check_edge_subalgebra(c_nef)) == \
        "(0, 4): [] in the algebra vs ['semilattice'] in {0,1,4,5}"


def test_edge_factor_names_the_first_unlifted_edge(monkeypatch, c_nef):
    _unlabel(monkeypatch, c_nef, {(0, 4), (0, 1)})
    assert _detail(checks.check_edge_factor(c_nef)) == \
        "quotient edge (0, 2) mod {0,1|2,3|4,5} has ['semilattice'] not present on (0, 4)"


def test_majority_check_names_the_first_unexcluded_pair(monkeypatch, c_nef):
    quotients = [w.quotient for a, b in ((0, 5), (2, 3))
                 for w in classify_pair(c_nef, a, b).witnesses if w.label == "majority"]
    real = checks.find_pair_witness
    monkeypatch.setattr(checks, "find_pair_witness", lambda q, *args: None
                        if any(q is x for x in quotients) else real(q, *args))
    assert _detail(checks.check_majority_requires_no_semilattice(c_nef)) == \
        "semilattice witness not excluded on (0, 5)"


def test_hypergraph_names_the_first_open_hyperedge(monkeypatch, c_nef):
    real = checks.is_closed_subset
    monkeypatch.setattr(checks, "is_closed_subset", lambda algebra, s: tuple(s)
                        not in {(0, 2, 4), (2, 4)} and real(algebra, s))
    assert _detail(checks.check_hypergraph(c_nef)) == "hyperedge (0, 2, 4) is not closed"


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_tolerance_check_matches_the_plain_loop(name):
    alg, ref = fixtures.fixture(name), fixtures.fixture(name)
    for seed in range(20):
        assert checks.check_tolerance_classes(alg, seed) == naive_tolerance_check(ref, seed)


def test_tolerance_check_names_the_first_draw_of_a_repeated_set(monkeypatch):
    """Seed 0 draws the generating set {(0, 1)} of no-edge-factor at #19 and
    again at #21, and no earlier tolerance has the class (2, 3); both loops
    name #19 when that class reads as not closed."""
    for module in (checks, oracles):
        real = module.is_closed_subset
        monkeypatch.setattr(module, "is_closed_subset",
                            lambda algebra, s, real=real: tuple(s) != (2, 3) and real(algebra, s))
    rows = checks.check_tolerance_classes(fixtures.no_edge_factor(), 0)
    assert _detail(rows) == "class (2, 3) of tolerance #19 not closed"
    assert rows == naive_tolerance_check(fixtures.no_edge_factor(), 0)


def test_tolerance_check_saturates_each_distinct_set_once(monkeypatch, c_nef):
    # of the 25 sets seed 0 draws on no-edge-factor, 19 are distinct
    seen = []
    real = checks.tolerance_generated

    def counted(algebra, pairs):
        seen.append(frozenset(frozenset(p) for p in pairs if p[0] != p[1]))
        return real(algebra, pairs)
    monkeypatch.setattr(checks, "tolerance_generated", counted)
    assert all(row.ok for row in checks.verify_algebra(c_nef, 0))
    assert len(seen) == len(set(seen)) == 19


def test_subalgebra_graphs_read_the_whole_universe_off_the_algebra(c_nef):
    walked = list(subalgebra_graphs(c_nef))
    assert [emb for emb, _ in walked] == sorted(emb for emb, _ in walked)
    assert all(len(emb) >= 2 for emb, _ in walked)
    for emb, graph in walked:
        if len(emb) == c_nef.size:
            assert graph.algebra is c_nef
            assert graph.reports is structure_graph(c_nef).reports
        else:
            assert graph.algebra is restrict(c_nef, emb)[0]
