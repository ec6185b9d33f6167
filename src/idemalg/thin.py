"""Thin edges: directed element pairs with equation-level certificates.

A thin semilattice edge is a pair with a.b = b.a = b under the
distinguished binary operation.  Special thin majority edges come from
majority witnesses through minimal pairs; thin affine edges from affine
witnesses through minimal pairs and the Mal'tsev operation.  The definition
of thin majority/affine edges quantifies over every operation satisfying
the majority/minority condition, which is not finitely enumerable; edges
are emitted from the sufficient conditions (minimality) and separately
tagged with the necessary-condition verdict computed from the
distinguished operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .algebra import FiniteAlgebra, first_index
from .edges import (
    AFFINE,
    MAJORITY,
    SEMILATTICE,
    EdgeWitness,
    StructureGraph,
    structure_graph,
)
from .errors import EmptyResult, PostconditionFailed, PreconditionViolated
from .generate import subuniverse
from . import terms
from .terms import Term

THIN_SEMILATTICE = "thin-semilattice"
SPECIAL_THIN_MAJORITY = "special-thin-majority"
THIN_AFFINE = "thin-affine"


@dataclass(frozen=True)
class ThinEdge:
    """A directed pair with its certificate data (human-readable pairs)."""

    algebra: FiniteAlgebra
    a: int
    b: int
    kind: str
    info: tuple[tuple[str, str], ...] = ()
    necessary: Optional[bool] = None   # check_thin_necessary verdict

    def describe(self) -> str:
        alg = self.algebra
        extra = "".join(f" {k}={v}" for k, v in self.info)
        return f"{alg.label(self.a)}->{alg.label(self.b)} [{self.kind}]{extra}"


# --------------------------------------------------------------------------
# the SLS refinement of the binary operation
# --------------------------------------------------------------------------


def sls_chain(algebras: Sequence[FiniteAlgebra], f0: Term
              ) -> tuple[Term, int]:
    """Iterate f_{i+1}(x,y) = f(x, f(f_i(x,y), x)) until the shift chains of
    all pairs in all member algebras stabilize; returns (f_ell, ell).

    The shift chain of (a, b) is b_0 = f(a,b), b_{i+1} = f(a, f(b_i, a)); it
    stands still at b_0 = a when f(a,b) = a.  All chains of a member advance
    together on the realized table; ell is the number of steps until none
    moves.  A chain reaching a fixed point has distinct values up to it, so
    one still moving after n steps cycles: the input was not semilattice on
    a thick edge it should have been.  The first cycling pair is reported."""
    ell = 0
    for alg in algebras:
        arr = terms.realize_table(f0, alg).array
        a = np.arange(alg.size)[:, None]
        chain = arr
        for steps in range(alg.size):
            nxt = arr[a, arr[chain, a]]
            moving = nxt != chain
            if not moving.any():
                break
            chain = nxt
        else:
            a0, b0 = first_index(moving)
            raise PostconditionFailed(
                f"shift chain of ({a0},{b0}) in {alg.name} cycles "
                f"without stabilizing; the starting operation is "
                f"not semilattice on its thick semilattice edges")
        ell = max(ell, steps)
    fi = f0
    x, y = terms.proj(0, 2), terms.proj(1, 2)
    for _ in range(ell):
        fi = terms.substitute(f0, [x, terms.substitute(f0, [fi, x])])
    return fi, ell


def satisfies_sls(algebra: FiniteAlgebra, f_term: Term
                  ) -> Optional[tuple[int, int]]:
    """None when the shift condition holds; else the counterexample pair:
    the first (a, b) with c = f(a,b) distinct from a but not a.c = c.a = c."""
    arr = terms.realize_table(f_term, algebra).array
    a = np.arange(algebra.size)[:, None]
    bad = (arr != a) & ((arr[a, arr] != arr) | (arr[arr, a] != arr))
    return first_index(bad) if bad.any() else None


def synth_sls(algebra: FiniteAlgebra, f0: Term) -> Term:
    """Refine a binary operation (semilattice on every thick semilattice
    edge, first projection on other thick edges, absorbing in the second
    argument) into one satisfying the shift condition, without changing its
    behaviour on the thick edges."""
    ident = terms.Identity(
        terms.substitute(f0, [terms.proj(0, 2), f0]), f0)
    cx = terms.check_identity(algebra, ident)
    if cx is not None:
        raise PostconditionFailed(
            f"f(x,f(x,y))=f(x,y) fails at {cx}; normalize the operation first")
    refined, _ = sls_chain([algebra], f0)
    bad = satisfies_sls(algebra, refined)
    if bad is not None:
        raise PostconditionFailed(f"shift condition fails at pair {bad}")
    _check_edge_behaviour(algebra, f0, refined, structure_graph(algebra))
    return refined


def _check_edge_behaviour(algebra: FiniteAlgebra, f0: Term, refined: Term,
                          graph: StructureGraph) -> None:
    """The refinement must stay semilattice on thick semilattice edges and
    first projection on majority/affine thick edges."""
    for rep in graph.reports:
        for w in rep.witnesses:
            if w.label not in (SEMILATTICE, MAJORITY, AFFINE):
                continue
            pts = ([w.a_block, w.b_block], [w.b_block, w.a_block])   # (qa, qb), (qb, qa)
            new = terms.realize_table(refined, w.quotient).array[pts]
            if w.label == SEMILATTICE:
                changed = new != terms.realize_table(f0, w.quotient).array[pts]
                if changed.any():
                    i = int(np.argmax(changed))
                    raise PostconditionFailed(
                        f"refinement changed the semilattice edge {rep.pair} at "
                        f"{(pts[0][i], pts[1][i])}")
            elif (new != pts[0]).any():
                raise PostconditionFailed(
                    f"refinement is not the first projection on the "
                    f"{w.label} edge {rep.pair}")


def thin_semilattice_order(algebra: FiniteAlgebra, f_term: Term
                           ) -> list[tuple[int, int]]:
    """All pairs a != b with f(a,b) = f(b,a) = b."""
    arr = terms.realize_table(f_term, algebra).array
    b = np.arange(algebra.size)
    order = (arr == b) & (arr.T == b) & (b[:, None] != b)
    return [tuple(p) for p in np.argwhere(order).tolist()]


# --------------------------------------------------------------------------
# minimal pairs and thin majority/affine edges
# --------------------------------------------------------------------------


def is_minimal_pair(algebra: FiniteAlgebra, a: int, b: int,
                    theta_blocks: Iterable[Iterable[int]]) -> bool:
    """Minimality of (a, b) with respect to a congruence of Sg{a,b} given by
    its blocks in ambient element ids: every b' in b's block must generate b
    back together with a."""
    blocks = [frozenset(blk) for blk in theta_blocks]
    b_block = next(blk for blk in blocks if b in blk)
    return all(b in subuniverse(algebra, [a, bp]) for bp in sorted(b_block))


def _minimal_in_sg(algebra: FiniteAlgebra, c: int, d: int, block: Iterable[int]) -> bool:
    """(c, d) is minimal for the witnessing congruence restricted to
    Sg{c,d}: every d' of d's block (`block` cut down to Sg{c,d}), in
    ascending order, generates d back together with c."""
    sub = subuniverse(algebra, [c, d])
    return all(d in subuniverse(algebra, [c, dp]) for dp in sorted(sub.intersection(block)))


def find_special_thin_majority(algebra: FiniteAlgebra,
                               witness: EdgeWitness) -> list[ThinEdge]:
    """All (c, d) from one block into the other (the thick edge is an
    unordered pair, so both orientations are scanned) that are minimal with
    respect to the witnessing congruence restricted to Sg{c,d}."""
    if witness.label != MAJORITY:
        raise PreconditionViolated("witness must be of the majority type")
    ablk = witness.parent_block(witness.a_block)
    bblk = witness.parent_block(witness.b_block)
    out = []
    for cs, ds in ((ablk, bblk), (bblk, ablk)):
        for c in cs:
            for d in ds:
                if _minimal_in_sg(algebra, c, d, ds):
                    out.append(ThinEdge(
                        algebra, c, d, SPECIAL_THIN_MAJORITY,
                        (("theta", _blocks_str(algebra, witness)),
                         ("minimal_wrt", "theta restricted to Sg{c,d}"))))
    if not out:
        raise EmptyResult(
            f"majority witness for {witness.parent_block(witness.a_block)} x "
            f"{witness.parent_block(witness.b_block)} produced no minimal pair")
    return out


def find_thin_affine(algebra: FiniteAlgebra, witness: EdgeWitness,
                     h_term: Term) -> list[ThinEdge]:
    """Thin affine edges from an affine witness: for every b'' in b's block
    making (a, b'') minimal, the element b' = h(b'', a, a) gives the edge
    (a, b').  Both orientations of the unordered thick edge are used."""
    if witness.label != AFFINE:
        raise PreconditionViolated("witness must be of the affine type")
    a0, b0 = witness.pair
    ablk = witness.parent_block(witness.a_block)
    bblk = witness.parent_block(witness.b_block)
    out: dict[tuple[int, int], ThinEdge] = {}
    for a, blk in ((a0, bblk), (b0, ablk)):
        for bpp in blk:
            if not _minimal_in_sg(algebra, a, bpp, blk):
                continue
            bp = terms.evaluate(h_term, algebra, (bpp, a, a))
            if terms.evaluate(h_term, algebra, (bp, a, a)) != bp:
                raise PostconditionFailed(
                    "h(h(x,y,y),y,y) = h(x,y,y) fails; the supplied operation "
                    "does not satisfy its normalization")
            if not _minimal_in_sg(algebra, a, bp, blk):
                raise PostconditionFailed(
                    f"the shifted pair ({a}, {bp}) does not inherit minimality")
            key = (a, bp)
            if key not in out:
                out[key] = ThinEdge(
                    algebra, a, bp, THIN_AFFINE,
                    (("via", f"{algebra.label(bpp)}"),
                     ("theta", _blocks_str(algebra, witness))))
    if not out:
        raise EmptyResult(
            f"affine witness for pair {witness.pair} produced no thin edge")
    return [out[k] for k in sorted(out)]


def _blocks_str(algebra: FiniteAlgebra, witness: EdgeWitness) -> str:
    return "{" + "|".join(
        ",".join(algebra.label(x) for x in blk)
        for blk in witness.theta_parent_blocks()) + "}"


def check_thin_necessary(algebra: FiniteAlgebra, a: int, b: int, kind: str,
                         ops) -> bool:
    """Necessary-condition verdict for a thin edge, instantiated at the
    distinguished operations: the subalgebra containments for the majority
    kind, the two Mal'tsev-shift conditions for the affine kind.  True is
    necessary but not sufficient for the fully quantified definition."""
    if kind == SPECIAL_THIN_MAJORITY:
        g = ops.g
        for args in ((a, b, b), (b, a, b), (b, b, a)):
            v = terms.evaluate(g, algebra, args)
            if b not in subuniverse(algebra, [a, v]):
                return False
        return True
    if kind == THIN_AFFINE:
        h = ops.h
        if terms.evaluate(h, algebra, (b, a, a)) != b:
            return False
        v = terms.evaluate(h, algebra, (a, a, b))
        return b in subuniverse(algebra, [a, v])
    raise ValueError(f"no necessary condition defined for kind {kind!r}")


# --------------------------------------------------------------------------
# the thin graph
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ThinGraph:
    algebra: FiniteAlgebra
    arcs: tuple[ThinEdge, ...]

    def by_kind(self, kind: str) -> list[ThinEdge]:
        return [e for e in self.arcs if e.kind == kind]


def thin_graph(algebra: FiniteAlgebra, ops) -> ThinGraph:
    """All thin semilattice arcs under ops.f, all special thin majority arcs
    from majority witnesses, all thin affine arcs from affine witnesses;
    majority/affine arcs carry their necessary-condition verdict."""
    arcs: dict[tuple[int, int, str], ThinEdge] = {}
    for a, b in thin_semilattice_order(algebra, ops.f):
        arcs[(a, b, THIN_SEMILATTICE)] = ThinEdge(
            algebra, a, b, THIN_SEMILATTICE,
            (("equations", "a.b=b.a=b"),), necessary=True)
    for rep in structure_graph(algebra).reports:
        for w in rep.witnesses:
            if w.label == MAJORITY:
                found = find_special_thin_majority(algebra, w)
            elif w.label == AFFINE:
                found = find_thin_affine(algebra, w, ops.h)
            else:
                continue
            for e in found:
                key = (e.a, e.b, e.kind)
                if key not in arcs:
                    verdict = check_thin_necessary(algebra, e.a, e.b, e.kind, ops)
                    arcs[key] = ThinEdge(algebra, e.a, e.b, e.kind, e.info,
                                         necessary=verdict)
    ordered = sorted(arcs.values(), key=lambda e: (e.kind, e.a, e.b))
    return ThinGraph(algebra, tuple(ordered))


_ARC_STYLE = {
    THIN_SEMILATTICE: 'style=solid, color=black',
    SPECIAL_THIN_MAJORITY: 'style=dashed, color=blue',
    THIN_AFFINE: 'style=dotted, color=red',
}


def thin_graph_to_dot(tg: ThinGraph, name: str = "thin") -> str:
    alg = tg.algebra
    lines = [f'digraph "{name}" {{', '  node [shape=circle];']
    for x in range(alg.size):
        lines.append(f'  "{alg.label(x)}";')
    for e in tg.arcs:
        cert = "; ".join(f"{k}={v}" for k, v in e.info)
        nec = "" if e.necessary is None else f" nec={'y' if e.necessary else 'n'}"
        lines.append(f'  "{alg.label(e.a)}" -> "{alg.label(e.b)}" '
                     f'[{_ARC_STYLE[e.kind]}, label="{e.kind}{nec}"];'
                     + (f'  // {cert}' if cert else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"
