"""Term synthesis: the unified operations f, g, h and the combination terms.

The binary operation is assembled by chaining the per-edge semilattice
witnesses, straightening its behaviour on module quotients by idempotent
powers, forcing the first projection, normalizing the absorption identity
and finally refining to the shift condition.  The ternary majority
operation is chained from per-edge witnesses after each has been separated
from the module quotients; variable permutations are resolved by trying all
six and taking the first that verifies.  The ternary Mal'tsev operation is
found in one shot as a simultaneous subpower query across all module
quotients and then steered off majority and semilattice edges by
composition.  Every constructed operation is re-verified exhaustively on
every edge of the inventory; nothing is trusted from the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Optional, Sequence

import numpy as np

from .algebra import DEFAULT_LIMITS, FiniteAlgebra, Limits, align_signatures, restrict
from .congruence import Congruence
from .edges import (
    AFFINE,
    MAJORITY,
    SEMILATTICE,
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

NORMALIZATIONS = (F_ABSORPTION, F_EXCHANGE, M_ABSORPTION, M_CYCLE, H_SHIFT)

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
    qa: int
    qb: int
    block_a: tuple[int, ...]     # parent ids
    block_b: tuple[int, ...]
    edge_algebra: FiniteAlgebra  # 2-element restriction for sl/maj, quotient for affine
    ea_a: int                    # local id of the a-block inside edge_algebra
    ea_b: int
    witness: Term
    absorber: Optional[int]

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


def build_edge_inventory(algebras: Sequence[FiniteAlgebra],
                         limits: Limits = DEFAULT_LIMITS) -> EdgeInventory:
    """Classify every pair of every member, check smoothness, and collect
    the thick edges with their witness terms, deduplicated (semilattice and
    majority edges by their block pair, affine edges by subalgebra and
    congruence)."""
    sig = algebras[0].signature
    for alg in algebras:
        if alg.signature != sig:
            raise PreconditionViolated(
                "class members must be similar; run align_signatures first")
    sl: dict = {}
    mj: dict = {}
    af: dict = {}
    un: dict = {}
    for ai, alg in enumerate(algebras):
        graph = structure_graph(alg, limits)
        unknown = graph.unknown_pairs()
        if unknown:
            raise CapExceededError(
                limits.cap, f"classification of {unknown} in {alg.name} is "
                     f"inconclusive; the inventory would be unsound")
        smooth = is_smooth(alg, limits)
        if smooth is not True:
            pair, label, union = smooth
            raise NotSmooth(alg.name, (pair, label, union))
        for rep in graph.reports:
            for w in rep.witnesses:
                edge = _thick_edge(alg, ai, rep.pair, w)
                if w.label == SEMILATTICE:
                    key = (ai, frozenset((frozenset(edge.block_a),
                                          frozenset(edge.block_b))))
                    sl.setdefault(key, edge)
                elif w.label == MAJORITY:
                    key = (ai, frozenset((frozenset(edge.block_a),
                                          frozenset(edge.block_b))))
                    mj.setdefault(key, edge)
                elif w.label == AFFINE:
                    key = (ai, edge.subuniverse, edge.theta.blocks)
                    af.setdefault(key, edge)
                else:
                    key = (ai, edge.subuniverse, edge.theta.blocks)
                    un.setdefault(key, edge)
    order = lambda e: (e.algebra_index, e.pair, e.block_a, e.block_b)
    return EdgeInventory(tuple(algebras),
                         tuple(sorted(sl.values(), key=order)),
                         tuple(sorted(mj.values(), key=order)),
                         tuple(sorted(af.values(), key=order)),
                         tuple(sorted(un.values(), key=order)))


def _thick_edge(alg: FiniteAlgebra, ai: int, pair: tuple[int, int],
                w: EdgeWitness) -> ThickEdge:
    block_a = w.parent_block(w.a_block)
    block_b = w.parent_block(w.b_block)
    if w.label in (SEMILATTICE, MAJORITY):
        edge_alg, emb = restrict(w.quotient, [w.a_block, w.b_block])
        ea_a, ea_b = emb.index(w.a_block), emb.index(w.b_block)
    else:
        edge_alg, ea_a, ea_b = w.quotient, w.a_block, w.b_block
    return ThickEdge(alg, ai, pair, w.label, w.subuniverse, w.theta,
                     w.quotient, w.a_block, w.b_block, block_a, block_b,
                     edge_alg, ea_a, ea_b, w.witness, w.absorber)


# --------------------------------------------------------------------------
# transformation exponents and the five normalizations
# --------------------------------------------------------------------------


def _index_period(t: Sequence[int]) -> tuple[int, int]:
    """Tail length and cycle lcm of one transformation's functional graph."""
    m = len(t)
    state = [0] * m
    incycle = [False] * m
    for s in range(m):
        if state[s]:
            continue
        path, pos = [], {}
        x = s
        while state[x] == 0:
            state[x] = 1
            pos[x] = len(path)
            path.append(x)
            x = t[x]
        if state[x] == 1:
            for node in path[pos[x]:]:
                incycle[node] = True
        for node in path:
            state[node] = 2
    per = 1
    seen: set[int] = set()
    for s in range(m):
        if incycle[s] and s not in seen:
            clen, x = 0, s
            while True:
                seen.add(x)
                clen += 1
                x = t[x]
                if x == s:
                    break
            per = math.lcm(per, clen)
    idx = 0
    for s in range(m):
        d, x = 0, s
        while not incycle[x]:
            d += 1
            x = t[x]
        idx = max(idx, d)
    return idx, per


def idempotent_exponent(maps: Iterable[Sequence[int]]) -> int:
    """Smallest e >= 1 with t^(2e) = t^e for every given transformation."""
    lcm_per, max_idx = 1, 1
    for t in maps:
        idx, per = _index_period(t)
        lcm_per = math.lcm(lcm_per, per)
        max_idx = max(max_idx, idx)
    return lcm_per * -(-max_idx // lcm_per)


def _unary_slices(algebras: Sequence[FiniteAlgebra], op: Term,
                  shape: str) -> list[tuple[int, ...]]:
    """The families of unary maps driving each normalization."""
    out = []
    for alg in algebras:
        arr = realize_table(op, alg).array
        if shape == "fix-first":         # y -> map x |-> op(x, y)
            maps = arr.T
        elif shape == "fix-second":      # x -> map y |-> op(x, y)
            maps = arr
        elif shape == "collapse23":      # x -> map y |-> op(x, y, y)
            maps = np.diagonal(arr, axis1=1, axis2=2)
        elif shape == "collapse23-first":  # y -> map x |-> op(x, y, y)
            maps = np.diagonal(arr, axis1=1, axis2=2).T
        else:
            raise ValueError(shape)
        out.extend(map(tuple, maps.tolist()))
    return out


def _pair_exchange_maps(algebras: Sequence[FiniteAlgebra], op: Term) -> list[tuple[int, ...]]:
    """Per algebra, the map (x, y) |-> (op(x, y), op(y, x)) on pairs coded
    x*n + y."""
    out = []
    for alg in algebras:
        arr = realize_table(op, alg).array
        out.append(tuple((arr * alg.size + arr.T).ravel().tolist()))
    return out


def _triple_cycle_maps(algebras: Sequence[FiniteAlgebra], op: Term) -> list[tuple[int, ...]]:
    """Per algebra, the map (x, y, z) |-> (op(x, y, z), op(y, z, x),
    op(z, x, y)) on triples coded (x*n + y)*n + z."""
    out = []
    for alg in algebras:
        n = alg.size
        arr = realize_table(op, alg).array
        # axes (x, y, z): op(y, z, x) is arr[y, z, x], op(z, x, y) is arr[z, x, y]
        rot1 = np.transpose(arr, (2, 0, 1))
        rot2 = np.transpose(arr, (1, 2, 0))
        out.append(tuple(((arr * n + rot1) * n + rot2).ravel().tolist()))
    return out


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


def normalize_identities(algebras: Sequence[FiniteAlgebra], op: Term,
                         which: str, max_levels: int = 4096) -> Term:
    """Iterated-composition normalization making one of the five equations
    hold on every member; exponents are computed from the realized tables.
    The result is verified before being returned."""
    algebras = list(algebras)
    if which == F_ABSORPTION:
        e = idempotent_exponent(_unary_slices(algebras, op, "fix-second"))
        result = power(op, 1, e)
    elif which == H_SHIFT:
        e = idempotent_exponent(_unary_slices(algebras, op, "collapse23-first"))
        body = substitute(op, [_X3, _Y3, _Y3])
        shifted = power(body, 0, e - 1) if e > 1 else _X3
        result = substitute(op, [shifted, _Y3, _Z3])
    elif which == M_ABSORPTION:
        e = idempotent_exponent(_unary_slices(algebras, op, "collapse23"))
        body = substitute(op, [_X3, _Y3, _Y3])
        stepper = power(body, 1, e - 1) if e > 1 else _Y3
        result = substitute(stepper, [_X3, op, _Z3])
    elif which == F_EXCHANGE:
        e = idempotent_exponent(_pair_exchange_maps(algebras, op))
        if e > max_levels:
            raise CapExceededError(max_levels, "exchange normalization depth")
        u, v = _X2, _Y2
        for _ in range(e):
            u, v = substitute(op, [u, v]), substitute(op, [v, u])
        result = u
    elif which == M_CYCLE:
        e = idempotent_exponent(_triple_cycle_maps(algebras, op))
        if e > max_levels:
            raise CapExceededError(max_levels, "cycle normalization depth")
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


def _binary_on_edge(term: Term, edge: ThickEdge) -> str:
    """Restriction type of a binary term on a 2-element edge algebra:
    'proj1', 'proj2', or 'sl:<absorber local id>'."""
    tab = realize_table(term, edge.edge_algebra)
    v01 = tab.apply((0, 1), 2)
    v10 = tab.apply((1, 0), 2)
    if (v01, v10) == (0, 1):
        return "proj1"
    if (v01, v10) == (1, 0):
        return "proj2"
    if v01 != v10:
        raise PostconditionFailed(f"{term.text()} is no binary operation on {edge.describe()}")
    return f"sl:{v01}"


def _ternary_on_edge(term: Term, edge: ThickEdge) -> str:
    """Restriction type of a ternary term on a 2-element edge algebra, as
    the pattern (t(x,y,y), t(y,x,y), t(y,y,x)) written with x for 'the lone
    argument wins' and y for 'the pair wins'."""
    tab = realize_table(term, edge.edge_algebra)

    def pat(args01, args10) -> str:
        a, b = tab.apply(args01, 2), tab.apply(args10, 2)
        if (a, b) == (0, 1):
            return "x"
        if (a, b) == (1, 0):
            return "y"
        raise CaseNotRecognized(
            f"a binary identification of the term is not a projection on the "
            f"edge {edge.describe()}; the edge cannot be of the majority type")

    return pat((0, 1, 1), (1, 0, 0)) + pat((1, 0, 1), (0, 1, 0)) \
        + pat((1, 1, 0), (0, 0, 1))


_TERNARY_KINDS = {
    "xyy": "proj1", "yxy": "proj2", "yyx": "proj3",
    "yyy": "majority", "xxx": "minority",
    "yxx": "two-thirds-first", "xyx": "two-thirds-middle",
    "xxy": "two-thirds-last",
}


def _is_first_projection(term: Term, algebra: FiniteAlgebra) -> bool:
    tab = realize_table(term, algebra)
    return tab.is_projection(algebra.size) == 0


def _projection_index(term: Term, algebra: FiniteAlgebra) -> Optional[int]:
    return realize_table(term, algebra).is_projection(algebra.size)


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
        maps = _unary_slices(list(algebras) + [module_quotient], op, "fix-first")
        e = idempotent_exponent(maps)
        fprime = power(op, 0, e)
        fixed = substitute(fprime, [fprime, _X2])
        if not _is_first_projection(fixed, module_quotient):
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
        if not _is_first_projection(fixed, module_quotient):
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
    if _binary_on_edge(p, edge) != "proj1":
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
        maps = _unary_slices(list(algebras), fcur, "fix-first")
        e = idempotent_exponent(maps)
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


def build_maltsev_core(inventory: EdgeInventory,
                       limits: Limits = DEFAULT_LIMITS) -> Term:
    """One term that is Mal'tsev on every affine-edge quotient at once,
    found as a single subpower query with one coordinate block per
    quotient."""
    aff = inventory.affine
    if not aff:
        return _X3
    columns: list[FiniteAlgebra] = []
    gens: list[list[int]] = [[], [], []]
    target: list[int] = []
    for edge in aff:
        quo = edge.quotient
        pairs = [(x, y) for x in quo.elements() for y in quo.elements() if x != y]
        for x, y in pairs:
            columns.append(quo)
            for gi, v in enumerate((x, x, y)):
                gens[gi].append(v)
            target.append(y)
        for x, y in pairs:
            columns.append(quo)
            for gi, v in enumerate((y, x, x)):
                gens[gi].append(v)
            target.append(y)
    query = SubpowerQuery(tuple(columns), tuple(tuple(g) for g in gens),
                          tuple(target), limits.cap)
    ans = subpower_membership(query)
    if isinstance(ans, CapExceeded):
        raise CapExceededError(limits.cap, "simultaneous Mal'tsev search")
    if isinstance(ans, Absent):
        raise SynthesisError(
            "no term is Mal'tsev on all affine quotients simultaneously; "
            "this contradicts smoothness of the class")
    return ans.witness


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
        if _ternary_on_edge(gcur, edge) == "yyy":
            continue
        fixed = None
        for perm in permutations(range(3)):
            gs = substitute(gcur, [proj(perm[0], 3), proj(perm[1], 3),
                                   proj(perm[2], 3)])
            tab = realize_table(gs, edge.edge_algebra)
            if tab.apply((0, 1, 1), 2) == 0 and tab.apply((1, 0, 0), 2) == 1:
                fixed = gs
                break
        if fixed is None:
            raise CaseNotRecognized(
                f"no variable permutation straightens the chain on "
                f"{edge.describe()}")
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


def uniform_ops(members: Sequence[FiniteAlgebra],
                limits: Limits = DEFAULT_LIMITS) -> DistinguishedOps:
    """The full pipeline: align signatures, build the inventory (requires
    smooth members without unary edges), construct f, g, h and verify every
    condition exhaustively."""
    algebras = align_signatures(members)
    inventory = build_edge_inventory(algebras, limits)
    if inventory.unary:
        raise PreconditionViolated(
            f"class has unary edges: {[e.describe() for e in inventory.unary]}")
    f = build_f(algebras, inventory)
    h_core = build_maltsev_core(inventory, limits)
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
        ft = realize_table(f, ea)
        ok = ft.apply((0, 1), 2) == ft.apply((1, 0), 2)
        add("f semilattice", e.describe(), ok)
        gt = realize_table(g, ea)
        ht = realize_table(h, ea)
        patt = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
        want = {p: ft.apply((p[0], ft.apply((p[1], p[2]), 2)), 2) for p in patt}
        add("g = f(x,f(y,z)) on semilattice edge", e.describe(),
            all(gt.apply(p, 2) == want[p] for p in patt))
        add("h = f(x,f(y,z)) on semilattice edge", e.describe(),
            all(ht.apply(p, 2) == want[p] for p in patt))
    for e in inventory.majority:
        ea = e.edge_algebra
        add("f first projection", e.describe(),
            _projection_index(f, ea) == 0)
        gt = realize_table(g, ea)
        ok = all(gt.apply((x, y, z), 2) == (1 if x + y + z >= 2 else 0)
                 for x in range(2) for y in range(2) for z in range(2))
        add("g majority", e.describe(), ok)
        add("h first projection", e.describe(),
            _projection_index(h, ea) == 0)
    for e in inventory.affine:
        quo = e.quotient
        add("f first projection", e.describe(),
            _projection_index(f, quo) == 0)
        add("g first projection", e.describe(),
            _projection_index(g, quo) == 0)
        ht = realize_table(h, quo)
        n = quo.size
        ok = all(ht.apply((x, x, y), n) == y and ht.apply((y, x, x), n) == y
                 for x in range(n) for y in range(n))
        add("h Mal'tsev on quotient", e.describe(), ok)
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
    for e in inventory.majority:
        gt = realize_table(ops_g, e.edge_algebra)
        if not all(gt.apply((x, y, z), 2) == (1 if x + y + z >= 2 else 0)
                   for x in range(2) for y in range(2) for z in range(2)):
            return False
    return True


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
            alg = aff.algebra
            sub = aff.subuniverse
            blocks = [frozenset(sub[i] for i in blk) for blk in aff.theta.blocks]

            def same_block(u: int, v2: int) -> bool:
                return any(u in blk and v2 in blk for blk in blocks)

            c, d = aff.pair
            if not same_block(evaluate(t, alg, (c, d)), c):
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
            alg = aff.algebra
            sub = aff.subuniverse
            blocks = [frozenset(sub[i] for i in blk) for blk in aff.theta.blocks]

            def block_of(u: int) -> int:
                for bi, blk in enumerate(blocks):
                    if u in blk:
                        return bi
                raise KeyError(u)

            c, d = aff.pair
            if block_of(evaluate(t, alg, (d, c, c))) != block_of(d):
                raise PostconditionFailed(
                    f"h_ab drifts off the block on {aff.describe()}")
            nblocks = len(blocks)
            for cp in sub:
                for dp in sub:
                    image = {block_of(evaluate(t, alg, (x, cp, dp)))
                             for x in sub}
                    if len(image) != nblocks:
                        raise PostconditionFailed(
                            f"h_ab(x, {cp}, {dp}) is not a permutation of the "
                            f"quotient on {aff.describe()}")
        return t
    raise ValueError(f"kind must be 't_ab' or 'h_ab', got {kind!r}")
