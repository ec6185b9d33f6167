"""Pair classification, graphs, connectivity, smoothness."""

import random
from collections import Counter
from dataclasses import replace
from itertools import combinations, permutations, product

import numpy as np
import pytest
from oracles import naive_classify_pair, random_idempotent_table

from idemalg import algebra, edges, fixtures, generate, synthesis, thin
from idemalg.algebra import (
    DEFAULT_CAP,
    DEFAULT_LIMITS,
    Limits,
    current_limits,
    request_scope,
    restrict,
    validate_algebra,
)
from idemalg.checks import check_edge_factor, check_edge_subalgebra
from idemalg.congruence import congruence_lattice, is_abelian, maximal_congruences
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
from idemalg.errors import PostconditionFailed, TooLarge
from idemalg.generate import (
    Absent,
    PairWitness,
    SEMILATTICE as SLKIND,
    all_subalgebras,
    find_pair_witness,
    search_key,
)


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
    from idemalg.algebra import quotient
    from idemalg.congruence import congruence_lattice
    for alg in (c_nef, a_nms):
        for theta in congruence_lattice(alg):
            if theta.is_equality or theta.is_total:
                continue
            quot, _ = quotient(alg, theta.blocks)
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
    from idemalg.algebra import quotient
    from idemalg.congruence import Congruence
    pi1 = Congruence.from_blocks(6, [(0, 1), (2, 3), (4, 5)])
    quot, bmap = quotient(c_nef, pi1.blocks)
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


def test_dot_escapes_quotes_and_backslashes_in_names_and_labels():
    """A two-element semilattice named q" with labels x" and y\\: every DOT
    writer escapes both characters inside its quoted identifiers."""
    sl = algebra.validate_algebra('q"', 2, [("m", 2, (0, 0, 0, 1))], ('x"', "y\\"))
    x, y, q = r'"x\""', r'"y\\"', r'"q\""'
    assert graph_to_dot(structure_graph(sl), sl.name).splitlines() == [
        f"graph {q} {{", "  node [shape=circle];", f"  {x};", f"  {y};",
        f'  {x} -- {y} [style=solid, color=black, label="semilattice"];', "}"]
    hyper = hypergraph_to_dot(hypergraph(sl), sl, "h").splitlines()
    assert hyper[4:6] == [r'  "he0" [shape=box, label="{x\"}"];', f'  "he0" -- {x} [style=dotted];']
    arcs = thin.thin_graph(sl, synthesis.uniform_ops([sl]))
    assert thin.thin_graph_to_dot(arcs, sl.name).splitlines()[0::4] == [
        f"digraph {q} {{", f"  {y} -> {x} [style=solid, color=black, "
        'label="thin-semilattice nec=y"];  // equations=a.b=b.a=b']


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
    # the report is an analysis of Sg{2,4}, memoized on that child
    memo = restrict(c_nef, classify_pair(c_nef, 2, 4).subuniverse)[0]._memo
    key = ("classify_pair", 2, 4, DEFAULT_CAP)
    assert memo[key].labels == {SEMILATTICE}
    memo[key] = replace(memo[key], witnesses=())
    assert not check_edge_subalgebra(c_nef)[0].ok
    assert not check_edge_factor(c_nef)[0].ok


def _poison_key(cache, alg):
    """The cache key of the semilattice search on the quotient of pair
    (2, 4) of alg, after classifying that pair, with the answer it holds:
    a witness, which other pairs' quotients share."""
    w = classify_pair(alg, 2, 4).witnesses[0]
    key = search_key(w.quotient, SLKIND, w.a_block, w.b_block, DEFAULT_CAP)
    ans, _ = cache[key]
    assert isinstance(ans, PairWitness)
    return key, w


def test_poisoned_shared_search_fails_the_cross_checks():
    """Make the semilattice search that the quotient of pair (2, 4) shares
    with other pairs answer Absent, with no rows, with rows that are not
    closed, or with rows that hold its target.  The cross-checks classify
    those pairs again on subalgebras and quotients, which share the search
    within the scope; the first reuse must raise, not drop the label."""
    fresh = fixtures.no_edge_factor()
    assert check_edge_subalgebra(fresh)[0].ok
    assert check_edge_factor(fresh)[0].ok
    for check in (check_edge_subalgebra, check_edge_factor):
        for poison, message in ((None, "without rows"), ("generators", "not closed"),
                                ("closure", "hold a target")):
            with request_scope() as cache:
                alg = fixtures.no_edge_factor()
                key, w = _poison_key(cache, alg)
                q, gens = w.quotient, ((w.a_block, w.b_block), (w.b_block, w.a_block))
                rows = {None: None, "generators": np.array(gens),
                        "closure": generate.TupleClosure((q, q), gens).rows}[poison]
                cache[key] = (Absent(len(gens), rows), False)
                with pytest.raises(PostconditionFailed, match=message):
                    check(alg)


def test_wrong_shared_witness_raises_under_O(run_optimized):
    # the next pair whose quotient shares the search re-evaluates the
    # witness on its own quotient
    code = (
        "from dataclasses import replace\n"
        "from idemalg import fixtures, terms\n"
        "from idemalg.algebra import DEFAULT_CAP, request_scope\n"
        "from idemalg.edges import classify_pair, structure_graph\n"
        "from idemalg.errors import PostconditionFailed, TooLarge\n"
        "from idemalg.generate import search_key\n"
        "with request_scope() as cache:\n"
        "    alg = fixtures.no_edge_factor()\n"
        "    w = classify_pair(alg, 2, 4).witnesses[0]\n"
        "    key = search_key(w.quotient, 'semilattice', w.a_block, w.b_block, DEFAULT_CAP)\n"
        "    ans, certified = cache[key]\n"
        "    cache[key] = (replace(ans, term=terms.proj(0, 2)), certified)\n"
        "    print(__debug__)\n"
        "    try:\n"
        "        structure_graph(alg)\n"
        "    except PostconditionFailed as exc:\n"
        "        print(exc)\n")
    assert run_optimized(code) == "False\nsubpower witness p0 gives 0 at coordinate 0, not 1\n"


def test_uncertified_shared_absent_raises_under_O(run_optimized):
    # a shared Absent passes check_absent before its first reuse; without
    # rows, or with rows that miss a row of the closure, it raises
    code = (
        "import numpy as np\n"
        "from idemalg import fixtures, generate\n"
        "from idemalg.algebra import DEFAULT_CAP, request_scope\n"
        "from idemalg.edges import classify_pair, structure_graph\n"
        "from idemalg.errors import PostconditionFailed, TooLarge\n"
        "with request_scope() as cache:\n"
        "    alg = fixtures.no_edge_factor()\n"
        "    w = classify_pair(alg, 2, 4).witnesses[0]\n"
        "    key = generate.search_key(w.quotient, 'semilattice', w.a_block, w.b_block,\n"
        "                              DEFAULT_CAP)\n"
        "    print(__debug__)\n"
        "    for rows in (None, np.array([(0, 1), (1, 0)])):\n"
        "        cache[key] = (generate.Absent(2, rows), False)\n"
        "        try:\n"
        "            structure_graph(alg)\n"
        "        except PostconditionFailed as exc:\n"
        "            print(exc)\n")
    assert run_optimized(code) == (
        "False\n"
        "an Absent answer without rows certifies nothing\n"
        "the absence rows are not closed under the operations: they miss (1, 1)\n")


def test_merged_generators_raise_under_O(run_optimized):
    # a corrupt lattice step hands classify_pair the total congruence as a
    # maximal one; it merges the pair, which no classification may accept
    code = (
        "from idemalg import edges, fixtures\n"
        "from idemalg.congruence import Congruence\n"
        "from idemalg.errors import PostconditionFailed, TooLarge\n"
        "edges.maximal_congruences = lambda algebra: "
        "[Congruence.from_parent([0] * algebra.size)]\n"
        "print(__debug__)\n"
        "try:\n"
        "    edges.classify_pair(fixtures.sl2(), 0, 1)\n"
        "except PostconditionFailed as exc:\n"
        "    print(exc)\n")
    assert run_optimized(code) == (
        "False\n"
        "the maximal congruence {0,1} of Sg{0,1} merges its generators\n")


def _random_labelled_algebra(rng, name):
    """A seeded random idempotent algebra with n <= 4 and one or two
    operations of arity 2-3: random tables, or the dual discriminator (a
    majority operation) beside a conservative binary operation, or the
    Mal'tsev operation of Z_n beside an affine binary one, so that
    majority, affine and multi-labelled pairs occur too."""
    n = rng.randint(2, 4)
    cube = list(product(range(n), repeat=3))
    square = list(product(range(n), repeat=2))
    family = rng.choice(("random", "random", "majority", "affine"))
    if family == "majority":
        ops = [("d", 3, [x if x == y else z for x, y, z in cube]),
               ("o", 2, [rng.choice((x, y)) for x, y in square])]
    elif family == "affine":
        r = rng.randrange(n)
        ops = [("m", 3, [(x - y + z) % n for x, y, z in cube]),
               ("o", 2, [(r * x + (1 - r) * y) % n for x, y in square])]
    else:
        ops = []
        for k in range(rng.randint(1, 2)):
            arity = rng.choice((2, 2, 3))
            ops.append((f"o{k}", arity, random_idempotent_table(rng, n, arity)))
    return validate_algebra(name, n, ops[:rng.randint(1, len(ops))])


def test_classify_pair_matches_naive_oracle():
    """Per maximal congruence of Sg{a, b}, the label and the semilattice
    absorber equal those of `naive_classify_pair`, which is built from the
    other oracles, on 200 seeded random idempotent algebras."""
    rng = random.Random(1212)
    labels = Counter()
    for i in range(200):
        alg = _random_labelled_algebra(rng, f"r{i}")
        for a, b in combinations(range(alg.size), 2):
            rep = classify_pair(alg, a, b)
            assert not rep.inconclusive
            got = {frozenset(w.theta_parent_blocks()): (
                w.label, None if w.absorber is None else w.parent_block(w.absorber))
                for w in rep.witnesses}
            assert (rep.subuniverse, got) == naive_classify_pair(alg, a, b), (alg, a, b)
            labels.update(label for label, _ in got.values())
    assert min(labels[x] for x in (SEMILATTICE, MAJORITY, AFFINE, UNARY)) >= 10, labels


def test_shared_searches_give_the_reports_of_unshared_ones():
    """On the six fixtures and 50 seeded random algebras, the structure
    graph, whose pairs share searches over equal quotients, equals the
    reports of pairs classified each on a fresh copy of the algebra."""
    rng = random.Random(1515)
    algebras = [fixtures.fixture(name) for name in sorted(fixtures.FIXTURES)]
    algebras += [_random_labelled_algebra(rng, f"s{i}") for i in range(50)]
    for alg in algebras:
        alone = tuple(classify_pair(replace(alg), a, b)
                      for a, b in combinations(range(alg.size), 2))
        assert structure_graph(alg).reports == alone, alg


def _count_closures_and_searches(monkeypatch):
    """Lists that record each closure built and each search edges runs."""
    built, searches = [], []

    class Counted(generate.TupleClosure):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    search = edges.find_pair_witness
    monkeypatch.setattr(generate, "TupleClosure", Counted)
    monkeypatch.setattr(edges, "find_pair_witness",
                        lambda *args: searches.append(args) or search(*args))
    return built, searches


def test_one_closure_per_memo_key(monkeypatch):
    """Classifying no-edge-factor in one search scope builds one closure
    per cache key, and fewer keys than searches: a key that never hits, such
    as one that names the quotient, would build one closure per search."""
    built, searches = _count_closures_and_searches(monkeypatch)
    with request_scope() as cache:
        structure_graph(fixtures.no_edge_factor())
    assert len(built) == len(cache) < len(searches)


def test_majority_searches_share_one_key_for_either_order(monkeypatch):
    """The majority query sorts its columns, so (a, b) and (b, a) are one
    search: no-edge-factor classifies in 6 closures, not 7."""
    built, _ = _count_closures_and_searches(monkeypatch)
    structure_graph(fixtures.no_edge_factor())
    assert len(built) == 6
    sl2 = fixtures.sl2()
    with request_scope():
        assert find_pair_witness(sl2, MAJORITY, 0, 1) == find_pair_witness(sl2, MAJORITY, 1, 0)
    assert len(built) == 7


def test_pair_searches_outside_a_scope_build_a_closure_each(monkeypatch):
    """Outside any scope find_pair_witness shares nothing, and a scope
    leaves no cache behind when it exits."""
    built, _ = _count_closures_and_searches(monkeypatch)
    sl2 = fixtures.sl2()
    assert find_pair_witness(sl2, SLKIND, 0, 1) == find_pair_witness(sl2, SLKIND, 0, 1)
    assert len(built) == 2
    with request_scope() as outer:
        with request_scope() as inner:
            assert inner is outer
            find_pair_witness(sl2, SLKIND, 0, 1)
        find_pair_witness(fixtures.sl2(), SLKIND, 0, 1)
    assert len(built) == 3 and len(outer) == 1
    assert algebra._REQUEST.get()[1] is None


def test_scoped_search_builds_its_pair_search_once(monkeypatch):
    """Inside a scope the cache key comes from the search in hand, not from
    a second `pair_search`."""
    calls = []
    real = generate.pair_search
    monkeypatch.setattr(generate, "pair_search",
                        lambda *args: calls.append(args) or real(*args))
    with request_scope():
        for kind in (SLKIND, MAJORITY, generate.MALTSEV):
            calls.clear()
            find_pair_witness(fixtures.no_edge(), kind, 0, 1)
            assert len(calls) == 1, kind


def test_request_scope_limits_reach_the_analyses():
    """The limits of the request in effect bound every analysis: a cap of 5
    leaves ab of no-edge unknown, as `edges --cap 5` does."""
    assert current_limits() is DEFAULT_LIMITS
    with request_scope(Limits(cap=5)):
        assert current_limits() == Limits(cap=5)
        assert structure_graph(fixtures.no_edge()).unknown_pairs() == [(0, 1)]
    assert current_limits() is DEFAULT_LIMITS
    assert structure_graph(fixtures.no_edge()).unknown_pairs() == []


def test_inner_request_scope_applies_its_limits_until_it_exits():
    alg = fixtures.no_edge()
    with request_scope() as outer:
        with request_scope(Limits(max_size=2)) as inner:
            assert inner is outer
            with pytest.raises(TooLarge):
                structure_graph(alg)
        assert current_limits() is DEFAULT_LIMITS
        assert structure_graph(alg).unknown_pairs() == []
    assert current_limits() is DEFAULT_LIMITS


def _analysis_calls(size):
    """(label, call) of every memoized analysis of an algebra of this size,
    the report of each ordered pair on its own."""
    calls = [(f.__name__, f) for f in (structure_graph, congruence_lattice,
                                       maximal_congruences, is_abelian, all_subalgebras)]
    return calls + [(f"classify_pair{a, b}", lambda alg, a=a, b=b: classify_pair(alg, a, b))
                    for a, b in permutations(range(size), 2)]


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_memo_hit_and_fresh_call_agree_at_every_max_size(name):
    """After every analysis has run at the default limits, each one under
    a tighter `max_size` raises TooLarge exactly when it does on a fresh
    copy of the algebra, and otherwise returns an equal result."""
    warm = fixtures.fixture(name)
    calls = _analysis_calls(warm.size)
    for _, call in calls:
        call(warm)
    for max_size in range(1, warm.size + 1):
        with request_scope(Limits(max_size=max_size)):
            for label, call in calls:
                outcomes = []
                for alg in (warm, fixtures.fixture(name)):
                    try:
                        outcomes.append(call(alg))
                    except TooLarge:
                        outcomes.append(TooLarge)
                assert outcomes[0] == outcomes[1], (label, max_size)


def _walk_with(monkeypatch, kind, answer):
    """Make `edges.find_pair_witness` answer `answer` for searches of the
    given kind and search as usual for the others; the kinds searched."""
    searched, search = [], edges.find_pair_witness

    def patched(algebra, k, *args):
        searched.append(k)
        return answer if k == kind else search(algebra, k, *args)

    monkeypatch.setattr(edges, "find_pair_witness", patched)
    return searched


def test_cap_at_the_majority_step_ends_the_walk(monkeypatch):
    """A cap hit at the majority step leaves theta inconclusive; with the
    quotient taken for a module, a walk that went on would search for a
    Mal'tsev term, find none on mj2 and raise."""
    searched = _walk_with(monkeypatch, generate.MAJORITY, generate.CapExceeded(7))
    monkeypatch.setattr(edges, "classify_simple_quotient", lambda *args: edges.MODULE)
    rep = classify_pair(fixtures.mj2(), 0, 1)
    assert rep.witnesses == () and len(rep.inconclusive) == 1 and rep.is_unknown
    assert searched == [SLKIND, generate.MAJORITY]


def test_the_maltsev_step_answers_a_module_quotient(monkeypatch):
    """On z3-affine a cap hit at the Mal'tsev step leaves theta
    inconclusive, and an Absent there is a broken certificate."""
    searched = _walk_with(monkeypatch, generate.MALTSEV, generate.CapExceeded(7))
    rep = classify_pair(fixtures.z3_affine(), 0, 1)
    assert rep.witnesses == () and len(rep.inconclusive) == 1
    assert rep.inconclusive[0].is_equality
    assert searched == [SLKIND, generate.MAJORITY, generate.MALTSEV]
    _walk_with(monkeypatch, generate.MALTSEV, Absent(9))
    with pytest.raises(PostconditionFailed, match="has no Mal'tsev term"):
        classify_pair(fixtures.z3_affine(), 0, 1)
