"""Term synthesis: the unified operations f, g, h and the combination terms.

The binary operation is assembled by chaining the per-edge semilattice
witnesses, straightening its behaviour on module quotients by idempotent
powers, forcing the first projection, normalizing the absorption identity
and finally refining to the shift condition.  The ternary majority
operation is chained from per-edge witnesses after each has been separated
from the module quotients; a variable permutation is read off the chain's
restriction type on each edge.  The ternary Mal'tsev operation is
found in one shot as a simultaneous subpower query across all module
quotients and then steered off majority and semilattice edges by
composition.  Every constructed operation is re-verified exhaustively on
every edge of the inventory; nothing is trusted from the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .algebra import FiniteAlgebra, align_signatures, current_limits, first_index, restrict
from .congruence import Congruence
from .edges import (
    AFFINE,
    MAJORITY,
    SEMILATTICE,
    UNARY,
    EdgeWitness,
    is_smooth,
    structure_graph,
)
from .errors import (
    CapExceededError,
    CaseNotRecognized,
    NotSmooth,
    PostconditionFailed,
    PreconditionViolated,
    SynthesisError,
    UnsupportedCombination,
    VerificationFailed,
    WitnessNotFound,
)
from .generate import (
    Absent,
    CapExceeded,
    SubpowerQuery,
    generate_subalgebra,
    maltsev_query,
    subpower_membership,
    witness_term,
)
from .terms import (
    Identity,
    Term,
    check_identity,
    evaluate,
    power,
    proj,
    realize_table,
    substitute,
)
from .thin import ThinEdge, THIN_AFFINE, SPECIAL_THIN_MAJORITY, THIN_SEMILATTICE, sls_chain, satisfies_sls

# the five normalization equations
F_ABSORPTION = "f-absorption"    # f(x, f(x,y)) = f(x,y)
F_EXCHANGE = "f-exchange"        # f(f(x,y), f(y,x)) = f(x,y)
M_ABSORPTION = "m-absorption"    # m(x, m(x,y,y), m(x,y,y)) = m(x,y,y)
M_CYCLE = "m-cycle"              # m(m(x,y,z), m(y,z,x), m(z,x,y)) = m(x,y,z)
H_SHIFT = "h-shift"              # h(h(x,y,y), y, y) = h(x,y,y)

_X2, _Y2 = proj(0, 2), proj(1, 2)
_X3, _Y3, _Z3 = proj(0, 3), proj(1, 3), proj(2, 3)


# --------------------------------------------------------------------------
# inventory
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ThickEdge:
    """One deduplicated thick edge of a class member, with everything the
    constructions need: the quotient, the two blocks, the 2-element edge
    algebra for semilattice/majority types, and the witness term."""

    algebra: FiniteAlgebra
    algebra_index: int
    pair: tuple[int, int]
    label: str
    subuniverse: tuple[int, ...]
    theta: Congruence
    quotient: FiniteAlgebra
    block_a: tuple[int, ...]     # parent ids
    block_b: tuple[int, ...]
    edge_algebra: FiniteAlgebra  # 2-element restriction for sl/maj, quotient for affine
    witness: Term

    def describe(self) -> str:
        return (f"{self.algebra.name}:{self.pair} {self.label} "
                f"blocks {self.block_a}|{self.block_b}")


@dataclass(frozen=True)
class EdgeInventory:
    algebras: tuple[FiniteAlgebra, ...]
    semilattice: tuple[ThickEdge, ...]
    majority: tuple[ThickEdge, ...]
    affine: tuple[ThickEdge, ...]
    unary: tuple[ThickEdge, ...]


def build_edge_inventory(algebras: Sequence[FiniteAlgebra]) -> EdgeInventory:
    """Classify every pair of every member, check smoothness, and collect
    the thick edges with their witness terms, deduplicated (semilattice and
    majority edges by their block pair, affine edges by subalgebra and
    congruence)."""
    sig = algebras[0].signature
    for alg in algebras:
        if alg.signature != sig:
            raise PreconditionViolated(
                "class members must be similar; run align_signatures first")
    found: dict[str, dict] = {label: {} for label in (SEMILATTICE, MAJORITY, AFFINE, UNARY)}
    for ai, alg in enumerate(algebras):
        graph = structure_graph(alg)
        unknown = graph.unknown_pairs()
        if unknown:
            raise CapExceededError(current_limits().cap,
                                   f"classification of {unknown} in {alg.name} is "
                                   f"inconclusive; the inventory would be unsound")
        smooth = is_smooth(alg)
        if smooth is not True:
            pair, label, union = smooth
            raise NotSmooth(alg.name, (pair, label, union))
        for rep in graph.reports:
            for w in rep.witnesses:
                edge = _thick_edge(alg, ai, rep.pair, w)
                if w.label in (SEMILATTICE, MAJORITY):
                    key = (ai, frozenset((frozenset(edge.block_a),
                                          frozenset(edge.block_b))))
                else:
                    key = (ai, edge.subuniverse, edge.theta.blocks)
                found[w.label].setdefault(key, edge)
    order = lambda e: (e.algebra_index, e.pair, e.block_a, e.block_b)
    return EdgeInventory(tuple(algebras), *(tuple(sorted(by_key.values(), key=order))
                                            for by_key in found.values()))


def _thick_edge(alg: FiniteAlgebra, ai: int, pair: tuple[int, int],
                w: EdgeWitness) -> ThickEdge:
    edge_alg = restrict(w.quotient, [w.a_block, w.b_block])[0] \
        if w.label in (SEMILATTICE, MAJORITY) else w.quotient
    return ThickEdge(alg, ai, pair, w.label, w.subuniverse, w.theta, w.quotient,
                     w.parent_block(w.a_block), w.parent_block(w.b_block),
                     edge_alg, w.witness)


# --------------------------------------------------------------------------
# transformation exponents and the five normalizations
# --------------------------------------------------------------------------


def _index_period(t: Sequence[int]) -> tuple[int, int]:
    """Tail length and cycle lcm of one transformation's functional graph.
    The image of t^i shrinks until i is the tail length, and is then the
    set of points on cycles."""
    idx, image = 0, set(range(len(t)))
    while (smaller := {t[x] for x in image}) != image:
        idx, image = idx + 1, smaller
    per = 1
    while image:
        start = x = image.pop()
        clen = 1
        while (x := t[x]) != start:
            image.discard(x)
            clen += 1
        per = math.lcm(per, clen)
    return idx, per


def idempotent_exponent(maps: Iterable[Sequence[int]]) -> int:
    """Smallest e >= 1 with t^(2e) = t^e for every given transformation."""
    lcm_per, max_idx = 1, 1
    for t in maps:
        idx, per = _index_period(t)
        lcm_per = math.lcm(lcm_per, per)
        max_idx = max(max_idx, idx)
    return lcm_per * -(-max_idx // lcm_per)


def _maps(algebras: Sequence[FiniteAlgebra], op: Term, view) -> list[tuple[int, ...]]:
    """The unary maps driving a normalization: the rows of view(array) for
    the realized table of op on every member."""
    return [tuple(row) for alg in algebras
            for row in view(realize_table(op, alg).array).tolist()]


def normalization_identity(op: Term, which: str) -> Identity:
    if which == F_ABSORPTION:
        return Identity(substitute(op, [_X2, op]), op)
    if which == F_EXCHANGE:
        return Identity(substitute(op, [op, substitute(op, [_Y2, _X2])]), op)
    if which == M_ABSORPTION:
        oyy = substitute(op, [_X3, _Y3, _Y3])
        return Identity(substitute(op, [_X3, oyy, oyy]), oyy)
    if which == M_CYCLE:
        rot1 = substitute(op, [_Y3, _Z3, _X3])
        rot2 = substitute(op, [_Z3, _X3, _Y3])
        return Identity(substitute(op, [op, rot1, rot2]), op)
    if which == H_SHIFT:
        oyy = substitute(op, [_X3, _Y3, _Y3])
        return Identity(substitute(op, [oyy, _Y3, _Y3]), oyy)
    raise ValueError(f"unknown normalization {which!r}")


#: the largest exponent the exchange and cycle normalizations unroll
_MAX_LEVELS = 4096


def normalize_identities(algebras: Sequence[FiniteAlgebra], op: Term,
                         which: str) -> Term:
    """Iterated-composition normalization making one of the five equations
    hold on every member; exponents are computed from the realized tables.
    The result is verified before being returned."""
    algebras = list(algebras)
    if which == F_ABSORPTION:     # x -> the map y |-> op(x, y)
        e = idempotent_exponent(_maps(algebras, op, np.asarray))
        result = power(op, 1, e)
    elif which == H_SHIFT:        # y -> the map x |-> op(x, y, y)
        e = idempotent_exponent(_maps(algebras, op, lambda a: np.diagonal(a, 0, 1, 2).T))
        body = substitute(op, [_X3, _Y3, _Y3])
        shifted = power(body, 0, e - 1) if e > 1 else _X3
        result = substitute(op, [shifted, _Y3, _Z3])
    elif which == M_ABSORPTION:   # x -> the map y |-> op(x, y, y)
        e = idempotent_exponent(_maps(algebras, op, lambda a: np.diagonal(a, 0, 1, 2)))
        body = substitute(op, [_X3, _Y3, _Y3])
        stepper = power(body, 1, e - 1) if e > 1 else _Y3
        result = substitute(stepper, [_X3, op, _Z3])
    elif which == F_EXCHANGE:
        # the one map (x, y) |-> (op(x, y), op(y, x)) on pairs coded x*n + y
        e = idempotent_exponent(_maps(algebras, op, lambda a: (a * len(a) + a.T).reshape(1, -1)))
        if e > _MAX_LEVELS:
            raise CapExceededError(_MAX_LEVELS, "exchange normalization depth")
        u, v = _X2, _Y2
        for _ in range(e):
            u, v = substitute(op, [u, v]), substitute(op, [v, u])
        result = u
    elif which == M_CYCLE:
        # the one map (x, y, z) |-> (op(x, y, z), op(y, z, x), op(z, x, y)) on
        # triples coded (x*n + y)*n + z; op(y, z, x) is a[y, z, x], op(z, x, y) a[z, x, y]
        e = idempotent_exponent(_maps(algebras, op, lambda a: (
            (a * len(a) + a.transpose(2, 0, 1)) * len(a) + a.transpose(1, 2, 0)).reshape(1, -1)))
        if e > _MAX_LEVELS:
            raise CapExceededError(_MAX_LEVELS, "cycle normalization depth")
        u, v, w = _X3, _Y3, _Z3
        for _ in range(e):
            u, v, w = (substitute(op, [u, v, w]), substitute(op, [v, w, u]),
                       substitute(op, [w, u, v]))
        result = u
    else:
        raise ValueError(f"unknown normalization {which!r}")
    ident = normalization_identity(result, which)
    for alg in algebras:
        cx = check_identity(alg, ident)
        if cx is not None:
            raise PostconditionFailed(
                f"normalization {which} failed on {alg.name} at {cx}")
    return result


# --------------------------------------------------------------------------
# restriction typing on two-element edges
# --------------------------------------------------------------------------


#: the six points of _ternary_on_edge, one (2, 3) index array per axis:
#: _LONE[:, 0, k] has a lone 0 at position k, _LONE[:, 1, k] a lone 1
_LONE = np.stack([1 - np.eye(3, dtype=np.intp), np.eye(3, dtype=np.intp)], axis=1)


def _ternary_on_edge(term: Term, edge: ThickEdge) -> str:
    """Restriction type of a ternary term on a 2-element edge algebra, as
    the pattern (t(x,y,y), t(y,x,y), t(y,y,x)) written with x for 'the lone
    argument wins' and y for 'the pair wins'."""
    lone0, lone1 = realize_table(term, edge.edge_algebra).array[tuple(_LONE)]
    if (lone0 == lone1).any():
        raise CaseNotRecognized(
            f"a binary identification of the term is not a projection on the "
            f"edge {edge.describe()}; the edge cannot be of the majority type")
    return "".join("xy"[v] for v in lone0.tolist())


_TERNARY_KINDS = {
    "xyy": "proj1", "yxy": "proj2", "yyx": "proj3",
    "yyy": "majority", "xxx": "minority",
    "yxx": "two-thirds-first", "xyx": "two-thirds-middle",
    "xxy": "two-thirds-last",
}


def _projection_index(term: Term, algebra: FiniteAlgebra) -> Optional[int]:
    return realize_table(term, algebra).is_projection(algebra.size)


def _equals(term: Term, algebra: FiniteAlgebra, table: np.ndarray) -> bool:
    return bool((realize_table(term, algebra).array == table).all())


#: the majority operation on {0, 1}
_MAJORITY = (np.indices((2, 2, 2)).sum(axis=0) >= 2).astype(np.intp)


# --------------------------------------------------------------------------
# module projection fixes
# --------------------------------------------------------------------------


def module_projection_fix(algebras: Sequence[FiniteAlgebra], op: Term,
                          module_quotient: FiniteAlgebra, which: str,
                          edge: Optional[ThickEdge] = None,
                          h_term: Optional[Term] = None) -> Term:
    """Rebuild a binary (which='f') or ternary majority (which='m') term to
    become the first projection on a module quotient while keeping its
    behaviour on the defining thick edge.

    The binary case iterates the operation in its first slot until the
    leading coefficient is idempotent, then composes once more.  The ternary
    case routes through a separating binary term built from the Mal'tsev
    operation by the case analysis of its restriction to the edge."""
    if which == "f":
        e = idempotent_exponent(_maps(list(algebras) + [module_quotient], op, np.transpose))
        fprime = power(op, 0, e)
        fixed = substitute(fprime, [fprime, _X2])
        if _projection_index(fixed, module_quotient) != 0:
            raise PostconditionFailed(
                "binary module fix did not produce the first projection; "
                "the quotient is not a module")
        if edge is not None:
            _must_agree(op, fixed, edge.edge_algebra, "binary module fix")
        return fixed
    if which == "m":
        if edge is None or h_term is None:
            raise PreconditionViolated(
                "the ternary fix needs the majority edge and a Mal'tsev term")
        p = separating_term(edge, [module_quotient], h_term, op)
        fixed = substitute(p, [op, _X3])
        _must_agree(op, fixed, edge.edge_algebra, "ternary module fix")
        if _projection_index(fixed, module_quotient) != 0:
            raise PostconditionFailed(
                "ternary module fix did not produce the first projection")
        return fixed
    raise ValueError(f"which must be 'f' or 'm', got {which!r}")


def _must_agree(before: Term, after: Term, algebra: FiniteAlgebra,
                what: str) -> None:
    tb = realize_table(before, algebra)
    ta = realize_table(after, algebra)
    if tb.table != ta.table:
        raise PostconditionFailed(f"{what} changed the operation on the edge")


def separating_term(edge: ThickEdge, module_quotients: Sequence[FiniteAlgebra],
                    h_term: Term, majority_witness: Term) -> Term:
    """A binary term equal to the first projection on the 2-element majority
    edge and to the second projection on every listed module quotient,
    built by cases on what the Mal'tsev term does on the edge."""
    kind = _TERNARY_KINDS[_ternary_on_edge(h_term, edge)]
    h = h_term
    x, y = _X2, _Y2
    if kind in ("proj1", "proj2", "majority", "two-thirds-last"):
        p = substitute(h, [x, x, y])
    elif kind in ("proj3", "two-thirds-first"):
        p = substitute(h, [y, x, x])
    elif kind == "two-thirds-middle":
        p = substitute(h, [x, substitute(h, [x, y, x]), x])
    elif kind == "minority":
        gi = majority_witness
        s1 = substitute(h, [substitute(gi, [x, y, y]), y,
                            substitute(gi, [y, y, x])])
        s2 = substitute(gi, [x, y, x])
        p = substitute(h, [s1, s2, y])
    else:
        raise CaseNotRecognized(kind)
    if _projection_index(p, edge.edge_algebra) != 0:
        raise CaseNotRecognized(
            f"separating term is not the first projection on {edge.describe()}")
    for quo in module_quotients:
        if _projection_index(p, quo) != 1:
            raise PostconditionFailed(
                f"separating term is not the second projection on {quo.name}")
    return p


# --------------------------------------------------------------------------
# the unified operations
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionCheck:
    condition: str
    edge: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[ConditionCheck, ...]

    @property
    def all_green(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[ConditionCheck]:
        return [c for c in self.checks if not c.ok]

    def render(self) -> str:
        lines = []
        for c in self.checks:
            mark = "ok  " if c.ok else "FAIL"
            det = f"  ({c.detail})" if c.detail else ""
            lines.append(f"  [{mark}] {c.condition} on {c.edge}{det}")
        return "\n".join(lines)


@dataclass(frozen=True)
class DistinguishedOps:
    """The unified binary/majority/Mal'tsev triple with its provenance."""

    f: Term
    g: Term
    h: Term
    inventory: EdgeInventory
    report: VerificationReport


def _swap2(t: Term) -> Term:
    return substitute(t, [_Y2, _X2])


def build_f(algebras: Sequence[FiniteAlgebra], inventory: EdgeInventory) -> Term:
    """The binary operation: semilattice on every thick semilattice edge,
    first projection on every other thick edge, absorption identity, shift
    condition."""
    sl = inventory.semilattice
    if sl:
        fcur = sl[0].witness
        for edge in sl[1:]:
            fcur = substitute(edge.witness, [fcur, _swap2(fcur)])
    else:
        fcur = _X2
    needs_fix = [e for e in inventory.affine
                 if _projection_index(fcur, e.quotient) is None]
    if needs_fix:
        e = idempotent_exponent(_maps(algebras, fcur, np.transpose))
        fcur = power(fcur, 0, e)
    fcur = substitute(fcur, [fcur, _X2])
    fcur = normalize_identities(algebras, fcur, F_ABSORPTION)
    fcur, _ = sls_chain(algebras, fcur)
    for alg in algebras:
        bad = satisfies_sls(alg, fcur)
        if bad is not None:
            raise PostconditionFailed(
                f"shift condition fails on {alg.name} at {bad}")
    return fcur


def build_maltsev_core(inventory: EdgeInventory) -> Term:
    """One term that is Mal'tsev on every affine-edge quotient at once,
    found as a single subpower query with one coordinate block per
    quotient."""
    if not inventory.affine:
        return _X3
    cap = current_limits().cap
    parts = [maltsev_query(edge.quotient) for edge in inventory.affine]
    query = SubpowerQuery(sum((q.columns for q in parts), ()),
                          tuple(sum(g, ()) for g in zip(*(q.generators for q in parts))),
                          sum((q.target for q in parts), ()), cap)
    ans = subpower_membership(query)
    if isinstance(ans, CapExceeded):
        raise CapExceededError(cap, "simultaneous Mal'tsev search")
    if isinstance(ans, Absent):
        raise SynthesisError(
            "no term is Mal'tsev on all affine quotients simultaneously; "
            "this contradicts smoothness of the class")
    return ans.witness


#: by the first position k where the lone argument wins, the first variable
#: permutation (in itertools order) that moves position k to the front
_STRAIGHTEN = ((0, 1, 2), (1, 0, 2), (1, 2, 0))


def build_g_core(algebras: Sequence[FiniteAlgebra], inventory: EdgeInventory,
                 h_core: Term) -> Term:
    """Chain the majority witnesses into one term that is majority on every
    thick majority edge and the first projection on every affine quotient."""
    maj = inventory.majority
    if not maj:
        return _X3
    module_quotients = [e.quotient for e in inventory.affine]
    gcur: Optional[Term] = None
    for edge in maj:
        gi = edge.witness
        if module_quotients and any(_projection_index(gi, quo) != 0
                                    for quo in module_quotients):
            p = separating_term(edge, module_quotients, h_core, gi)
            gi = substitute(p, [gi, _X3])
        if gcur is None:
            gcur = gi
            continue
        pattern = _ternary_on_edge(gcur, edge)
        if pattern == "yyy":
            continue
        fixed = substitute(gcur, [proj(i, 3) for i in _STRAIGHTEN[pattern.index("x")]])
        p = substitute(fixed, [_X2, _Y2, _Y2])     # binary: fixed(x, y, y)
        gcur = substitute(p, [gi, fixed])
    if module_quotients:
        idx = _projection_index(gcur, module_quotients[0])
        if idx is None:
            raise PostconditionFailed(
                "majority chain is not a projection on the module quotients")
        if idx != 0:
            vars_ = [_X3, _Y3, _Z3]
            vars_[0], vars_[idx] = vars_[idx], vars_[0]
            gcur = substitute(gcur, vars_)
    return gcur


def _compose_with_f(core: Term, f: Term) -> Term:
    """core(f(x, f(y,z)), f(y, f(z,x)), f(z, f(x,y)))."""
    def fxy(a: Term, b: Term) -> Term:
        return substitute(f, [a, b])
    a1 = fxy(_X3, fxy(_Y3, _Z3))
    a2 = fxy(_Y3, fxy(_Z3, _X3))
    a3 = fxy(_Z3, fxy(_X3, _Y3))
    return substitute(core, [a1, a2, a3])


def uniform_ops(members: Sequence[FiniteAlgebra]) -> DistinguishedOps:
    """The full pipeline: align signatures, build the inventory (requires
    smooth members without unary edges), construct f, g, h and verify every
    condition exhaustively."""
    algebras = align_signatures(members)
    inventory = build_edge_inventory(algebras)
    if inventory.unary:
        raise PreconditionViolated(
            f"class has unary edges: {[e.describe() for e in inventory.unary]}")
    f = build_f(algebras, inventory)
    h_core = build_maltsev_core(inventory)
    g_core = build_g_core(algebras, inventory, h_core)
    g = _compose_with_f(g_core, f)
    g = normalize_identities(algebras, g, M_ABSORPTION)
    p = substitute(g, [_X2, _Y2, _Y2])          # binary: g(x, y, y)
    hbar = substitute(p, [h_core, _X3])
    h = _compose_with_f(hbar, f)
    h = normalize_identities(algebras, h, H_SHIFT)
    report = verify_uniform(inventory, f, g, h)
    if not report.all_green:
        first = report.failures()[0]
        raise VerificationFailed(first.condition, first.edge, first.detail)
    return DistinguishedOps(f, g, h, inventory, report)


def verify_uniform(inventory: EdgeInventory, f: Term, g: Term, h: Term
                   ) -> VerificationReport:
    """Exhaustively recheck conditions (i)-(iii) on every thick edge, plus
    the three normalization identities on every member."""
    checks: list[ConditionCheck] = []

    def add(cond: str, edge: str, ok: bool, detail: str = "") -> None:
        checks.append(ConditionCheck(cond, edge, ok, detail))

    for e in inventory.semilattice:
        ea = e.edge_algebra
        ft = realize_table(f, ea).array
        add("f semilattice", e.describe(), bool((ft == ft.T).all()))
        want = ft[np.arange(2)[:, None, None], ft]      # f(x, f(y, z))
        add("g = f(x,f(y,z)) on semilattice edge", e.describe(), _equals(g, ea, want))
        add("h = f(x,f(y,z)) on semilattice edge", e.describe(), _equals(h, ea, want))
    for e in inventory.majority:
        ea = e.edge_algebra
        add("f first projection", e.describe(), _projection_index(f, ea) == 0)
        add("g majority", e.describe(), _equals(g, ea, _MAJORITY))
        add("h first projection", e.describe(), _projection_index(h, ea) == 0)
    for e in inventory.affine:
        quo = e.quotient
        add("f first projection", e.describe(), _projection_index(f, quo) == 0)
        add("g first projection", e.describe(), _projection_index(g, quo) == 0)
        ht = realize_table(h, quo).array
        z = np.arange(quo.size)[:, None]
        # diagonal(ht, 0, 0, 1)[z, x] = h(x, x, z), diagonal(ht, 0, 1, 2)[z, x] = h(z, x, x)
        add("h Mal'tsev on quotient", e.describe(),
            bool((np.diagonal(ht, 0, 0, 1) == z).all() and (np.diagonal(ht, 0, 1, 2) == z).all()))
    for alg in inventory.algebras:
        for which, opterm in ((F_ABSORPTION, f), (M_ABSORPTION, g), (H_SHIFT, h)):
            cx = check_identity(alg, normalization_identity(opterm, which))
            add(f"identity {which}", alg.name, cx is None,
                "" if cx is None else f"counterexample {cx}")
    return VerificationReport(tuple(checks))


# --------------------------------------------------------------------------
# the majority condition
# --------------------------------------------------------------------------


def satisfies_majority_condition(ops_g: Term, inventory: EdgeInventory) -> bool:
    """Majority on every thick majority edge plus the m-absorption identity
    on every member."""
    for alg in inventory.algebras:
        if check_identity(alg, normalization_identity(ops_g, M_ABSORPTION)) is not None:
            return False
    return all(_equals(ops_g, e.edge_algebra, _MAJORITY) for e in inventory.majority)


def _certify(term: Term, what: str, *checks, majority: Optional[EdgeInventory] = None):
    """Raise PostconditionFailed, also under `python -O`, unless term sends args to
    want in alg for every (alg, args, want) and satisfies the majority condition."""
    bad = [(alg.name, args, want) for alg, args, want in checks
           if evaluate(term, alg, args) != want]
    if bad or (majority is not None and not satisfies_majority_condition(term, majority)):
        raise PostconditionFailed(f"{what} = {term.text()} fails at "
                                  f"{bad or 'the majority condition'}")


# --------------------------------------------------------------------------
# combination terms over thin edges
# --------------------------------------------------------------------------


def _gen_witness(algebra: FiniteAlgebra, a: int, v: int, target: int) -> Term:
    """Binary term t with t(a, v) = target, from the generation trace of
    {a, v}."""
    trace = generate_subalgebra(algebra, [a, v])
    if target not in trace.subuniverse:
        raise WitnessNotFound(
            f"{algebra.name}: {target} is not generated by {{{a},{v}}}; the "
            f"thin-edge certificate does not license this construction")
    return witness_term(trace, target)


def majority_triple(ops: DistinguishedOps, e1: ThinEdge, e2: ThinEdge,
                    e3: ThinEdge) -> Term:
    """A term satisfying the majority condition with g(a1,b1,b1) = b1,
    g(b2,a2,b2) = b2, g(b3,b3,a3) = b3, built by three successive fixups
    with witness terms extracted from generation."""
    for e in (e1, e2, e3):
        if e.kind != SPECIAL_THIN_MAJORITY:
            raise PreconditionViolated("all three edges must be thin majority")
    g0 = ops.g
    a1, b1 = e1.a, e1.b
    v = evaluate(g0, e1.algebra, (a1, b1, b1))
    t = _gen_witness(e1.algebra, a1, v, b1)
    g1 = substitute(g0, [substitute(t, [_X3, g0]), _Y3, _Z3])
    _certify(g1, "g1", (e1.algebra, (a1, b1, b1), b1), majority=ops.inventory)

    a2, b2 = e2.a, e2.b
    v = evaluate(g1, e2.algebra, (b2, a2, b2))
    s = _gen_witness(e2.algebra, a2, v, b2)
    g2 = substitute(g1, [_X3, substitute(s, [_Y3, g1]), _Z3])
    _certify(g2, "g2", (e2.algebra, (b2, a2, b2), b2), (e1.algebra, (a1, b1, b1), b1),
             majority=ops.inventory)

    a3, b3 = e3.a, e3.b
    v = evaluate(g2, e3.algebra, (b3, b3, a3))
    q = _gen_witness(e3.algebra, a3, v, b3)
    g3 = substitute(g2, [_X3, _Y3, substitute(q, [_Z3, g2])])
    _certify(g3, "g3", (e3.algebra, (b3, b3, a3), b3), (e1.algebra, (a1, b1, b1), b1),
             (e2.algebra, (b2, a2, b2), b2), majority=ops.inventory)
    return g3


def affine_pair(ops: DistinguishedOps, e1: ThinEdge, e2: ThinEdge) -> Term:
    """A term with h'(b,a,a) = b on the first thin affine edge and
    h'(c,c,d) = d on the second."""
    for e in (e1, e2):
        if e.kind != THIN_AFFINE:
            raise PreconditionViolated("both edges must be thin affine")
    h = ops.h
    a, b = e1.a, e1.b
    c, d = e2.a, e2.b
    dprime = evaluate(h, e2.algebra, (c, c, d))
    r = _gen_witness(e2.algebra, c, dprime, d)
    hprime = substitute(r, [_X3, h])
    _certify(hprime, "h'", (e1.algebra, (b, a, a), b), (e2.algebra, (c, c, d), d))
    return hprime


def mixed_pair(ops: DistinguishedOps, e1: ThinEdge, e2: ThinEdge) -> Term:
    """A binary term with p(b,a) = b and p(c,d) = d for thin edges of two
    different types (e1 = (a,b), e2 = (c,d))."""
    if e1.kind == e2.kind:
        raise UnsupportedCombination(
            f"edges share the type {e1.kind}; use the dedicated construction")
    kinds = (e1.kind, e2.kind)
    if kinds == (SPECIAL_THIN_MAJORITY, THIN_SEMILATTICE):
        g = ops.g
        a, b = e1.a, e1.b
        v = evaluate(g, e1.algebra, (a, b, b))
        r = _gen_witness(e1.algebra, a, v, b)
        # p(x, y) = r(y, g(y, x, x))
        gyxx = substitute(g, [_Y2, _X2, _X2])
        p = substitute(r, [_Y2, gyxx])
    elif kinds == (THIN_AFFINE, THIN_SEMILATTICE):
        p = substitute(ops.h, [_X2, _Y2, _Y2])
    elif kinds == (THIN_AFFINE, SPECIAL_THIN_MAJORITY):
        g, h = ops.g, ops.h
        a, b = e1.a, e1.b
        c, d = e2.a, e2.b
        v = evaluate(h, e1.algebra, (a, a, b))
        r = _gen_witness(e1.algebra, a, v, b)
        rxh = substitute(r, [_X3, h])
        ryh = substitute(r, [_Y3, substitute(h, [_Y3, _X3, _Z3])])
        gprime = substitute(g, [rxh, ryh, _Z3])
        _certify(gprime, "g'", (e1.algebra, (a, a, b), b), majority=ops.inventory)
        w = evaluate(gprime, e2.algebra, (d, d, c))
        s = _gen_witness(e2.algebra, c, w, d)
        # p(x, y) = s(x, g'(y, y, x))
        gyyx = substitute(gprime, [_Y2, _Y2, _X2])
        p = substitute(s, [_X2, gyyx])
    else:
        # the construction for the swapped edges, its arguments swapped back
        p = substitute(mixed_pair(ops, e2, e1), [_Y2, _X2])
    _certify(p, "p", (e1.algebra, (e1.b, e1.a), e1.b), (e2.algebra, (e2.a, e2.b), e2.b))
    return p


def affine_stable_ops(ops: DistinguishedOps, edge: ThinEdge, kind: str) -> Term:
    """Terms that realize the thin edge while collapsing to congruence
    classes on every affine edge of the class.

    kind 't_ab' (edge thin majority): t(a,b) = b and t(c,d) = c modulo the
    witnessing congruence on every affine edge.  kind 'h_ab' (edge thin
    affine): h(a,a,b) = b, h(d,c,c) = d modulo the congruence, and
    x -> h(x, c', d') permutes the quotient for all c', d'."""
    if kind == "t_ab":
        if edge.kind != SPECIAL_THIN_MAJORITY:
            raise PreconditionViolated("t_ab needs a thin majority edge")
        g = ops.g
        a, b = edge.a, edge.b
        v = evaluate(g, edge.algebra, (a, b, b))
        r = _gen_witness(edge.algebra, a, v, b)
        gxyy = substitute(g, [_X2, _Y2, _Y2])
        t = substitute(r, [_X2, gxyy])
        _certify(t, "t_ab", (edge.algebra, (a, b), b))
        for aff in ops.inventory.affine:
            block = _block_of(aff)
            c, d = aff.pair
            if block[realize_table(t, aff.algebra).array[c, d]] != block[c]:
                raise PostconditionFailed(
                    f"t_ab drifts off the block on {aff.describe()}")
        return t
    if kind == "h_ab":
        if edge.kind != THIN_AFFINE:
            raise PreconditionViolated("h_ab needs a thin affine edge")
        h = ops.h
        a, b = edge.a, edge.b
        v = evaluate(h, edge.algebra, (a, a, b))
        s = _gen_witness(edge.algebra, a, v, b)
        t = substitute(s, [_X3, h])
        _certify(t, "h_ab", (edge.algebra, (a, a, b), b))
        for aff in ops.inventory.affine:
            sub, block = aff.subuniverse, _block_of(aff)
            tab = realize_table(t, aff.algebra).array
            c, d = aff.pair
            if block[tab[d, c, c]] != block[d]:
                raise PostconditionFailed(
                    f"h_ab drifts off the block on {aff.describe()}")
            # hit[k, cp, dp]: some x in sub has h_ab(x, cp, dp) in block k
            images = block[tab[np.ix_(sub, sub, sub)]]
            hit = (images == np.arange(len(aff.theta.blocks))[:, None, None, None]).any(axis=1)
            if not hit.all():
                cp, dp = (sub[i] for i in first_index(~hit.all(axis=0)))
                raise PostconditionFailed(
                    f"h_ab(x, {cp}, {dp}) is not a permutation of the "
                    f"quotient on {aff.describe()}")
        return t
    raise ValueError(f"kind must be 't_ab' or 'h_ab', got {kind!r}")


def _block_of(aff: ThickEdge) -> np.ndarray:
    """Element -> its block under the edge's congruence (-1 off its subuniverse)."""
    block = np.full(aff.algebra.size, -1)
    block[list(aff.subuniverse)] = aff.theta.block_index
    return block
