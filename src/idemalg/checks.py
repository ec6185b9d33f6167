"""Re-runnable invariant suites over a single algebra.

Each check returns CheckResult rows; `verify_algebra` strings the suites
together the way the command-line `verify` runs them.  Witnesses
re-evaluate and constructions re-verify their defining equations.
Analyses are memoized per algebra object, so the cross-checks compare
computations made on distinct objects: a subalgebra or quotient against
the algebra itself, never one cache against itself.  Reports, lattices
and graphs stay per object; only pair searches are shared, by content,
within one request (`generate.search_scope`), and every shared answer is
re-checked where it is reused: a witness re-evaluates on the algebra in
hand, and an Absent passes `generate.check_absent` once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .algebra import (
    DEFAULT_LIMITS,
    FiniteAlgebra,
    Limits,
    is_closed_subset,
    quotient,
    restrict,
)
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
)
from .errors import IdemalgError
from .generate import (
    Absent,
    all_subalgebras,
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


def check_generation(algebra: FiniteAlgebra) -> list[CheckResult]:
    """Provenance replays and witness terms re-evaluate for every generated
    element of every pair."""
    ok = True
    detail = ""
    for a, b in combinations(range(algebra.size), 2):
        trace = generate_subalgebra(algebra, [a, b])
        if not trace.replay():
            ok, detail = False, f"replay failed for {{{a},{b}}}"
            break
        for e in trace.elements:
            w = witness_term(trace, e)
            if terms.evaluate(w, algebra, (a, b)) != e:
                ok, detail = False, f"witness for {e} from {{{a},{b}}} broken"
                break
    return [CheckResult("generation provenance replays", ok, detail)]


def check_connectedness(algebra: FiniteAlgebra,
                        limits: Limits = DEFAULT_LIMITS) -> list[CheckResult]:
    """The pair graph of every subuniverse is connected."""
    rows = []
    for sub in sorted(all_subalgebras(algebra, limits), key=sorted):
        if len(sub) < 2:
            continue
        b_alg, emb = restrict(algebra, sorted(sub))
        graph = structure_graph(b_alg, limits)
        rows.append(CheckResult(
            f"pair graph connected on {{{','.join(map(str, emb))}}}",
            is_connected(graph)))
    if not rows:
        rows.append(CheckResult("pair graph connected (no subalgebra of size >= 2)", True))
    return rows


#: how many seeded tolerances check_tolerance_classes generates
_TOLERANCE_SAMPLES = 25


def check_tolerance_classes(algebra: FiniteAlgebra, seed: int = 0,
                            limits: Limits = DEFAULT_LIMITS) -> list[CheckResult]:
    """Classes of seeded generated tolerances are subuniverses; transitive
    closures are congruences."""
    rng = random.Random(seed)
    n = algebra.size
    bad = None
    lattice = congruence_lattice(algebra, limits)
    for i in range(_TOLERANCE_SAMPLES):
        k = rng.randint(0, max(1, n // 2))
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]
        tol = tolerance_generated(algebra, pairs)
        for cls in tol.classes():
            if not is_closed_subset(algebra, cls):
                bad = f"class {cls} of tolerance #{i} not closed"
                break
        closure = tol.transitive_closure()
        if closure not in lattice:
            bad = f"transitive closure of tolerance #{i} is not a congruence"
        if bad:
            break
    return [CheckResult(f"tolerance classes are subuniverses ({_TOLERANCE_SAMPLES} seeded)",
                        bad is None, bad or "")]


def check_many_edges(algebra: FiniteAlgebra,
                     limits: Limits = DEFAULT_LIMITS) -> list[CheckResult]:
    """Every pair across the blocks of a witness is an edge of the same
    type."""
    graph = structure_graph(algebra, limits)
    bad = None
    for rep in graph.reports:
        for w in rep.witnesses:
            for c in w.parent_block(w.a_block):
                for d in w.parent_block(w.b_block):
                    other = graph.report(c, d) if c != d else None
                    if other is None:
                        continue
                    if w.label not in other.labels:
                        bad = (f"pair {(c, d)} misses label {w.label} "
                               f"inherited from {rep.pair}")
                        break
    return [CheckResult("block-mates inherit the edge type", bad is None, bad or "")]


def check_edge_subalgebra(algebra: FiniteAlgebra,
                          limits: Limits = DEFAULT_LIMITS) -> list[CheckResult]:
    """Pair classification agrees computed inside any subalgebra or in the
    whole algebra."""
    bad = None
    for sub in sorted(all_subalgebras(algebra, limits), key=sorted):
        if len(sub) < 2 or len(sub) == algebra.size:
            continue
        emb = tuple(sorted(sub))
        b_alg, _ = restrict(algebra, emb)
        for i, j in combinations(range(b_alg.size), 2):
            inner = classify_pair(b_alg, i, j, limits)
            outer = classify_pair(algebra, emb[i], emb[j], limits)
            if inner.labels != outer.labels:
                bad = (f"{(emb[i], emb[j])}: {sorted(outer.labels)} in the "
                       f"algebra vs {sorted(inner.labels)} in "
                       f"{{{','.join(map(str, emb))}}}")
    return [CheckResult("classification agrees inside subalgebras", bad is None,
                        bad or "")]


def check_edge_factor(algebra: FiniteAlgebra,
                      limits: Limits = DEFAULT_LIMITS) -> list[CheckResult]:
    """An edge of a quotient lifts to an edge of the algebra with the same
    type available."""
    bad = None
    for theta in congruence_lattice(algebra, limits):
        if theta.is_equality or theta.is_total:
            continue
        quot, bmap = quotient(algebra, theta.blocks)
        for qa, qb in combinations(range(quot.size), 2):
            qrep = classify_pair(quot, qa, qb, limits)
            if not qrep.is_edge:
                continue
            a = theta.blocks[qa][0]
            b = theta.blocks[qb][0]
            rep = classify_pair(algebra, a, b, limits)
            missing = qrep.labels - rep.labels
            if missing:
                bad = (f"quotient edge {(qa, qb)} mod {theta} has "
                       f"{sorted(missing)} not present on {(a, b)}")
    return [CheckResult("quotient edges lift with their types", bad is None, bad or "")]


def check_majority_requires_no_semilattice(
        algebra: FiniteAlgebra, limits: Limits = DEFAULT_LIMITS) -> list[CheckResult]:
    """Each majority witness re-verifies that no semilattice term exists on
    its blocks (complete closure, not a cap hit).  Inside a search scope, as
    in every CLI command, the search is the classification's own, so it
    re-verifies through that Absent's certificate (`check_absent`), not by
    a fresh closure."""
    bad = None
    for rep in structure_graph(algebra, limits).reports:
        for w in rep.witnesses:
            if w.label != MAJORITY:
                continue
            ans = find_pair_witness(w.quotient, SEMILATTICE, w.a_block,
                                    w.b_block, limits.cap)
            if not isinstance(ans, Absent):
                bad = f"semilattice witness not excluded on {rep.pair}"
    return [CheckResult("majority labels exclude semilattice terms", bad is None,
                        bad or "")]


def check_hypergraph(algebra: FiniteAlgebra,
                     limits: Limits = DEFAULT_LIMITS) -> list[CheckResult]:
    hg = hypergraph(algebra, limits)
    # connectivity itself is algebra-specific; just re-verify the hyperedges
    bad = None
    for he in hg.hyperedges:
        if not is_closed_subset(algebra, he):
            bad = f"hyperedge {he} is not closed"
    return [CheckResult("hyperedges are proper subuniverses", bad is None, bad or "")]


def check_synthesis(algebra: FiniteAlgebra,
                    limits: Limits = DEFAULT_LIMITS) -> list[CheckResult]:
    """Uniform operations: construction, exhaustive verification, the shift
    condition, and the thin graph with its certificates."""
    rows: list[CheckResult] = []
    graph = structure_graph(algebra, limits)
    smooth = is_smooth(algebra, limits)
    rows.append(CheckResult("algebra is smooth", smooth is True,
                            "" if smooth is True else str(smooth)))
    has_unary = any(UNARY in rep.labels for rep in graph.reports)
    if smooth is not True or has_unary:
        rows.append(CheckResult("unified operations (skipped: not applicable)", True))
        return rows
    try:
        ops = synthesis.uniform_ops([algebra], limits)
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
        tg = thin.thin_graph(aligned, ops, limits)
        necessary_ok = all(e.necessary for e in tg.arcs)
        rows.append(CheckResult(
            f"thin graph builds ({len(tg.arcs)} arcs, all certificates pass)",
            necessary_ok))
    except IdemalgError as exc:
        rows.append(CheckResult("thin graph builds", False, str(exc)))
    return rows


def verify_algebra(algebra: FiniteAlgebra, seed: int = 0,
                   limits: Limits = DEFAULT_LIMITS) -> list[CheckResult]:
    """The full invariant suite for one algebra."""
    rows: list[CheckResult] = []
    rows.extend(check_generation(algebra))
    rows.extend(check_hypergraph(algebra, limits))
    rows.extend(check_connectedness(algebra, limits))
    rows.extend(check_tolerance_classes(algebra, seed, limits=limits))
    rows.extend(check_many_edges(algebra, limits))
    rows.extend(check_edge_subalgebra(algebra, limits))
    rows.extend(check_edge_factor(algebra, limits))
    rows.extend(check_majority_requires_no_semilattice(algebra, limits))
    rows.extend(check_synthesis(algebra, limits))
    return rows
