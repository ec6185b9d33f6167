"""Pair classification and the graph/hypergraph structure of an algebra.

A pair a, b is an edge when some maximal congruence of the subalgebra it
generates produces a quotient that is a set (unary type), or carries a term
operation that is semilattice or majority on the two blocks, or is the
idempotent reduct of a module (affine type).  The majority label requires
semilattice absence on the blocks, so the per-congruence labels are
mutually exclusive; a pair can still collect several labels from different
congruences.

A pair whose every witness search hit the node cap is reported unknown,
never silently as a non-edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional

from .algebra import (
    FiniteAlgebra,
    is_closed_subset,
    is_set,
    quotient,
    restrict,
)
from .congruence import (
    MODULE,
    Congruence,
    classify_simple_quotient,
    components,
    maximal_congruences,
)
from .errors import PostconditionFailed
from .generate import (
    CapExceeded,
    MAJORITY,
    MALTSEV,
    PairWitness,
    SEMILATTICE,
    all_subalgebras,
    current_limits,
    find_pair_witness,
    request_scope,
    subuniverse,
)
from .terms import Term

UNARY = "unary"
AFFINE = "affine"


@dataclass(frozen=True)
class EdgeWitness:
    """One maximal congruence certifying a type for a pair.

    Element data is kept both locally (indices into the generated
    subalgebra) and in parent ids (via `subuniverse`, sorted ascending,
    which is also the restriction embedding)."""

    label: str
    pair: tuple[int, int]             # the classified pair, parent ids
    subuniverse: tuple[int, ...]
    theta: Congruence                 # on local indices of the subuniverse
    quotient: FiniteAlgebra
    block_map: tuple[int, ...]        # local index -> quotient element
    a_block: int
    b_block: int
    witness: Optional[Term]
    absorber: Optional[int] = None    # semilattice: quotient element absorbed to

    def parent_block(self, which: int) -> tuple[int, ...]:
        """Block of a (which = a_block) or b in parent element ids."""
        return tuple(self.subuniverse[i] for i in range(len(self.subuniverse))
                     if self.block_map[i] == which)

    def theta_parent_blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.subuniverse[i] for i in blk)
                     for blk in self.theta.blocks)


@dataclass(frozen=True)
class EdgeReport:
    pair: tuple[int, int]
    subuniverse: tuple[int, ...]
    witnesses: tuple[EdgeWitness, ...]
    inconclusive: tuple[Congruence, ...] = ()

    @property
    def is_edge(self) -> bool:
        return bool(self.witnesses)

    @property
    def is_unknown(self) -> bool:
        return not self.witnesses and bool(self.inconclusive)

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(w.label for w in self.witnesses)


def classify_pair(algebra: FiniteAlgebra, a: int, b: int) -> EdgeReport:
    """Classify the pair through every maximal congruence of the subalgebra
    it generates, in canonical congruence order, under the limits of the
    request in effect.  The report is memoized on the algebra, per ordered
    pair and cap.  Its witness searches run in a `request_scope`, the
    caller's if one is active: they are shared by the content of their
    `pair_search` with every equal quotient met in the request, whichever
    algebra it belongs to, and every shared witness re-evaluates and every
    shared Absent passes `check_absent` once."""
    if a == b:
        raise ValueError("need two distinct elements")
    with request_scope():
        cap = current_limits().cap
        return algebra.memoized(("classify_pair", a, b, cap),
                                lambda: _classify_pair(algebra, a, b, cap))


def _classify_pair(algebra: FiniteAlgebra, a: int, b: int, cap: int) -> EdgeReport:
    sub = tuple(sorted(subuniverse(algebra, [a, b])))
    # a copy even when Sg{a,b} is the whole universe: `restrict` memoizes
    # its children, so classifying on `algebra` itself would put the inner
    # and outer classifications of `checks.check_edge_subalgebra` on one object
    b_alg, emb = restrict(algebra, sub)
    local = {x: i for i, x in enumerate(emb)}
    la, lb = local[a], local[b]
    witnesses: list[EdgeWitness] = []
    inconclusive: list[Congruence] = []
    for theta in maximal_congruences(b_alg):
        quot, bmap = quotient(b_alg, theta.blocks)
        qa, qb = bmap[la], bmap[lb]
        if qa == qb:
            raise PostconditionFailed(
                f"the maximal congruence {theta} of Sg{{{a},{b}}} merges its generators")
        if is_set(quot):
            witnesses.append(EdgeWitness(UNARY, (a, b), sub, theta, quot,
                                         bmap, qa, qb, None))
            continue
        # each search kind with its label; Absent moves on to the next
        for kind, label in ((SEMILATTICE, SEMILATTICE), (MAJORITY, MAJORITY), (MALTSEV, AFFINE)):
            if kind == MALTSEV and classify_simple_quotient(quot) != MODULE:
                break
            found = find_pair_witness(quot, kind, qa, qb, cap)
            if isinstance(found, CapExceeded):
                inconclusive.append(theta)
                break
            if isinstance(found, PairWitness):
                witnesses.append(EdgeWitness(label, (a, b), sub, theta, quot,
                                             bmap, qa, qb, found.term, found.absorber))
                break
            if kind == MALTSEV:
                raise PostconditionFailed(
                    f"the module quotient Sg{{{a},{b}}}/{theta} has no Mal'tsev term")
    return EdgeReport((a, b), sub, tuple(witnesses), tuple(inconclusive))


# --------------------------------------------------------------------------
# graphs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureGraph:
    algebra: FiniteAlgebra
    reports: tuple[EdgeReport, ...]

    def report(self, a: int, b: int) -> EdgeReport:
        a, b = min(a, b), max(a, b)
        for r in self.reports:
            if r.pair == (a, b):
                return r
        raise KeyError((a, b))

    def edges(self) -> dict[tuple[int, int], frozenset[str]]:
        return {r.pair: r.labels for r in self.reports if r.is_edge}

    def unknown_pairs(self) -> list[tuple[int, int]]:
        return [r.pair for r in self.reports if r.is_unknown]


@dataclass(frozen=True)
class Hypergraph:
    size: int
    hyperedges: tuple[tuple[int, ...], ...]


def structure_graph(algebra: FiniteAlgebra) -> StructureGraph:
    """Every pair, classified in one `request_scope` under the limits of the
    request in effect; the reports are memoized on the algebra per cap (not
    the graph, which refers back to the algebra: the cycle would keep the
    memo alive after its last user)."""
    with request_scope():
        limits = current_limits()
        limits.check(algebra)
        return StructureGraph(algebra, algebra.memoized(
            ("structure_graph", limits.cap),
            lambda: tuple(classify_pair(algebra, a, b)
                          for a, b in combinations(range(algebra.size), 2))))


def subalgebra_graphs(algebra: FiniteAlgebra
                      ) -> Iterator[tuple[tuple[int, ...], StructureGraph]]:
    """(embedding, structure graph) of every subuniverse of two or more
    elements, in sorted order, built as it is reached, so under the limits
    in effect when it is iterated.  The whole universe is the algebra
    itself, so its graph is the algebra's own memoized one."""
    for sub in sorted(all_subalgebras(algebra), key=sorted):
        if len(sub) >= 2:
            emb = tuple(sorted(sub))
            yield emb, structure_graph(
                algebra if len(emb) == algebra.size else restrict(algebra, emb)[0])


def hypergraph(algebra: FiniteAlgebra) -> Hypergraph:
    """Vertices plus all proper subalgebras as hyperedges."""
    subs = all_subalgebras(algebra)
    proper = sorted(tuple(sorted(s)) for s in subs if len(s) < algebra.size)
    return Hypergraph(algebra.size, tuple(proper))


def connected_components(graph: StructureGraph) -> list[tuple[int, ...]]:
    return components(graph.algebra.size, graph.edges())


def is_connected(graph: StructureGraph) -> bool:
    return len(connected_components(graph)) <= 1


def hypergraph_connected(hg: Hypergraph) -> bool:
    """Connected iff every pair of distinct vertices is joined by a chain of
    pairwise intersecting hyperedges."""
    if hg.size <= 1:
        return True
    if len(components(hg.size, hg.hyperedges)) > 1:
        return False
    covered = {x for he in hg.hyperedges for x in he}
    return covered == set(range(hg.size))


def x_connected(algebra: FiniteAlgebra, allowed: Iterable[str]):
    """Check that inside every subalgebra, every pair is joined by a path of
    edges carrying at least one type from `allowed` (classified within the
    subalgebra).  Returns True or a counterexample (subuniverse, pair) in
    parent element ids."""
    allowed = frozenset(allowed)
    for emb, graph in subalgebra_graphs(algebra):
        links = [pair for pair, labels in graph.edges().items() if labels & allowed]
        comps = components(len(emb), links)
        if len(comps) > 1:
            u, v = comps[0][0], comps[1][0]
            return (emb, (emb[u], emb[v]))
    return True


def is_smooth(algebra: FiniteAlgebra):
    """Every thick semilattice or majority edge must be a subuniverse: the
    union of the two witnessing blocks, re-embedded into the algebra, is
    closed.  Returns True or the offending (pair, label, union)."""
    for rep in structure_graph(algebra).reports:
        for w in rep.witnesses:
            if w.label not in (SEMILATTICE, MAJORITY):
                continue
            union = sorted(w.parent_block(w.a_block) + w.parent_block(w.b_block))
            if not is_closed_subset(algebra, union):
                return (rep.pair, w.label, tuple(union))
    return True


# --------------------------------------------------------------------------
# DOT export
# --------------------------------------------------------------------------

_EDGE_STYLE = {
    SEMILATTICE: 'style=solid, color=black',
    MAJORITY: 'style=dashed, color=blue',
    AFFINE: 'style=dotted, color=red',
    UNARY: 'style=bold, color=gray',
}


def graph_to_dot(graph: StructureGraph, name: str = "G") -> str:
    alg = graph.algebra
    lines = [f'graph "{name}" {{', '  node [shape=circle];']
    for x in range(alg.size):
        lines.append(f'  "{alg.label(x)}";')
    for rep in graph.reports:
        a, b = rep.pair
        for lab in sorted(rep.labels):
            lines.append(f'  "{alg.label(a)}" -- "{alg.label(b)}" '
                         f'[{_EDGE_STYLE[lab]}, label="{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def hypergraph_to_dot(hg: Hypergraph, algebra: FiniteAlgebra,
                      name: str = "H") -> str:
    """Hyperedges drawn as box nodes joined to their member vertices."""
    lines = [f'graph "{name}" {{', '  node [shape=circle];']
    for x in range(algebra.size):
        lines.append(f'  "{algebra.label(x)}";')
    for i, he in enumerate(hg.hyperedges):
        hid = f"he{i}"
        label = "{" + ",".join(algebra.label(x) for x in he) + "}"
        lines.append(f'  "{hid}" [shape=box, label="{label}"];')
        for x in he:
            lines.append(f'  "{hid}" -- "{algebra.label(x)}" [style=dotted];')
    lines.append("}")
    return "\n".join(lines) + "\n"
