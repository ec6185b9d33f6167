"""Re-runnable invariant suites over a single algebra.

Each check returns CheckResult rows; `verify_algebra` strings the suites
together the way the command-line `verify` runs them.  Witnesses
re-evaluate and constructions re-verify their defining equations, and a
failing row names the first counterexample in the check's iteration order.
Analyses are memoized per algebra object.  A check's whole universe is the
algebra itself (`edges.subalgebra_graphs` hands out the algebra's own
graph, not a restricted copy), and every cross-check still compares
computations made on distinct objects: a proper subalgebra or quotient
against the algebra, never one cache against itself.  Reports, lattices
and graphs stay per object; only pair searches are shared, by content,
within one request (`algebra.request_scope`, which also holds the limits
every check reads), and every shared answer is
re-checked where it is reused: a witness re-evaluates on the algebra in
hand, and an Absent passes `generate.check_absent` once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .algebra import FiniteAlgebra, current_limits, is_closed_subset, quotient
from .congruence import congruence_lattice, tolerance_generated
from .edges import (
    MAJORITY,
    SEMILATTICE,
    UNARY,
    classify_pair,
    hypergraph,
    is_connected,
    is_smooth,
    structure_graph,
    subalgebra_graphs,
)
from .errors import IdemalgError
from .generate import (
    Absent,
    find_pair_witness,
    generate_subalgebra,
    witness_term,
)
from . import synthesis, terms, thin


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        return f"[{'pass' if self.ok else 'FAIL'}] {self.name}" + \
            (f": {self.detail}" if self.detail else "")


def _first_failure(name: str, failures: Iterator[str]) -> list[CheckResult]:
    """One row that fails with the first message `failures` yields; the
    search stops there."""
    bad = next(failures, None)
    return [CheckResult(name, bad is None, bad or "")]


def check_generation(algebra: FiniteAlgebra) -> list[CheckResult]:
    """Provenance replays and witness terms re-evaluate for every generated
    element of every pair."""
    def failures():
        for a, b in combinations(range(algebra.size), 2):
            trace = generate_subalgebra(algebra, [a, b])
            if not trace.replay():
                yield f"replay failed for {{{a},{b}}}"
            for e in trace.elements:
                if terms.evaluate(witness_term(trace, e), algebra, (a, b)) != e:
                    yield f"witness for {e} from {{{a},{b}}} broken"
    return _first_failure("generation provenance replays", failures())


def check_connectedness(algebra: FiniteAlgebra) -> list[CheckResult]:
    """The pair graph of every subuniverse is connected."""
    rows = [CheckResult(f"pair graph connected on {{{','.join(map(str, emb))}}}",
                        is_connected(graph))
            for emb, graph in subalgebra_graphs(algebra)]
    return rows or [CheckResult("pair graph connected (no subalgebra of size >= 2)", True)]


#: how many seeded tolerances check_tolerance_classes generates
_TOLERANCE_SAMPLES = 25


def check_tolerance_classes(algebra: FiniteAlgebra, seed: int = 0) -> list[CheckResult]:
    """Classes of seeded generated tolerances are subuniverses; transitive
    closures are congruences.  A generating set drawn again (as unordered
    pairs off the diagonal) generates the same tolerance, checked at its
    first draw."""
    def failures():
        rng = random.Random(seed)
        n = algebra.size
        lattice = congruence_lattice(algebra)
        seen = set()
        for i in range(_TOLERANCE_SAMPLES):
            k = rng.randint(0, max(1, n // 2))
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]
            if (key := frozenset(frozenset(p) for p in pairs if p[0] != p[1])) in seen:
                continue
            seen.add(key)
            tol = tolerance_generated(algebra, pairs)
            if tol.transitive_closure() not in lattice:
                yield f"transitive closure of tolerance #{i} is not a congruence"
            for cls in tol.classes():
                if not is_closed_subset(algebra, cls):
                    yield f"class {cls} of tolerance #{i} not closed"
    return _first_failure(
        f"tolerance classes are subuniverses ({_TOLERANCE_SAMPLES} seeded)", failures())


def check_many_edges(algebra: FiniteAlgebra) -> list[CheckResult]:
    """Every pair across the blocks of a witness is an edge of the same
    type."""
    graph = structure_graph(algebra)
    return _first_failure("block-mates inherit the edge type", (
        f"pair {(c, d)} misses label {w.label} inherited from {rep.pair}"
        for rep in graph.reports for w in rep.witnesses
        for c in w.parent_block(w.a_block) for d in w.parent_block(w.b_block)
        if c != d and w.label not in graph.report(c, d).labels))


def check_edge_subalgebra(algebra: FiniteAlgebra) -> list[CheckResult]:
    """Pair classification agrees computed inside any proper subalgebra or
    in the whole algebra."""
    def failures():
        for emb, graph in subalgebra_graphs(algebra):
            if graph.algebra is algebra:
                continue
            for inner in graph.reports:
                pair = tuple(emb[i] for i in inner.pair)
                outer = classify_pair(algebra, *pair)
                if inner.labels != outer.labels:
                    yield (f"{pair}: {sorted(outer.labels)} in the algebra vs "
                           f"{sorted(inner.labels)} in {{{','.join(map(str, emb))}}}")
    return _first_failure("classification agrees inside subalgebras", failures())


def check_edge_factor(algebra: FiniteAlgebra) -> list[CheckResult]:
    """An edge of a quotient lifts to an edge of the algebra with the same
    type available."""
    def failures():
        for theta in congruence_lattice(algebra):
            if theta.is_equality or theta.is_total:
                continue
            quot, _ = quotient(algebra, theta.blocks)
            for qa, qb in combinations(range(quot.size), 2):
                qrep = classify_pair(quot, qa, qb)
                if not qrep.is_edge:
                    continue
                a, b = theta.blocks[qa][0], theta.blocks[qb][0]
                if missing := qrep.labels - classify_pair(algebra, a, b).labels:
                    yield (f"quotient edge {(qa, qb)} mod {theta} has "
                           f"{sorted(missing)} not present on {(a, b)}")
    return _first_failure("quotient edges lift with their types", failures())


def check_majority_requires_no_semilattice(algebra: FiniteAlgebra) -> list[CheckResult]:
    """Each majority witness re-verifies that no semilattice term exists on
    its blocks (complete closure, not a cap hit).  Inside a search scope, as
    in every CLI command, the search is the classification's own, so it
    re-verifies through that Absent's certificate (`check_absent`), not by
    a fresh closure."""
    return _first_failure("majority labels exclude semilattice terms", (
        f"semilattice witness not excluded on {rep.pair}"
        for rep in structure_graph(algebra).reports for w in rep.witnesses
        if w.label == MAJORITY and not isinstance(
            find_pair_witness(w.quotient, SEMILATTICE, w.a_block, w.b_block,
                              current_limits().cap),
            Absent)))


def check_hypergraph(algebra: FiniteAlgebra) -> list[CheckResult]:
    # connectivity itself is algebra-specific; just re-verify the hyperedges
    return _first_failure("hyperedges are proper subuniverses", (
        f"hyperedge {he} is not closed" for he in hypergraph(algebra).hyperedges
        if not is_closed_subset(algebra, he)))


def check_synthesis(algebra: FiniteAlgebra) -> list[CheckResult]:
    """Uniform operations: construction, exhaustive verification, the shift
    condition, and the thin graph with its certificates."""
    rows: list[CheckResult] = []
    graph = structure_graph(algebra)
    smooth = is_smooth(algebra)
    rows.append(CheckResult("algebra is smooth", smooth is True,
                            "" if smooth is True else str(smooth)))
    has_unary = any(UNARY in rep.labels for rep in graph.reports)
    if smooth is not True or has_unary:
        rows.append(CheckResult("unified operations (skipped: not applicable)", True))
        return rows
    try:
        ops = synthesis.uniform_ops([algebra])
    except IdemalgError as exc:
        rows.append(CheckResult("unified operations construct", False, str(exc)))
        return rows
    rows.append(CheckResult("unified operations verify", ops.report.all_green,
                            "" if ops.report.all_green else
                            str(ops.report.failures()[0])))
    aligned = ops.inventory.algebras[0]
    bad = thin.satisfies_sls(aligned, ops.f)
    rows.append(CheckResult("distinguished f satisfies the shift condition",
                            bad is None, "" if bad is None else f"pair {bad}"))
    try:
        tg = thin.thin_graph(aligned, ops)
        necessary_ok = all(e.necessary for e in tg.arcs)
        rows.append(CheckResult(
            f"thin graph builds ({len(tg.arcs)} arcs, all certificates pass)",
            necessary_ok))
    except IdemalgError as exc:
        rows.append(CheckResult("thin graph builds", False, str(exc)))
    return rows


def verify_algebra(algebra: FiniteAlgebra, seed: int = 0) -> list[CheckResult]:
    """The full invariant suite for one algebra."""
    rows: list[CheckResult] = []
    rows.extend(check_generation(algebra))
    rows.extend(check_hypergraph(algebra))
    rows.extend(check_connectedness(algebra))
    rows.extend(check_tolerance_classes(algebra, seed))
    rows.extend(check_many_edges(algebra))
    rows.extend(check_edge_subalgebra(algebra))
    rows.extend(check_edge_factor(algebra))
    rows.extend(check_majority_requires_no_semilattice(algebra))
    rows.extend(check_synthesis(algebra))
    return rows
