"""Hash-consed term DAGs over an operation signature.

Nodes are interned: structurally equal terms are the same object, so
identity doubles as structural equality.  Besides projections and symbol
applications there is a power node iterating a unary context, which keeps
the lcm-exponent constructions small; it is never expanded literally: a
point evaluates by cycle shortcutting, a table (one array per node) by
repeated squaring.  An explicit composition node carries substitutions
whose target position is a power hole (a power node iterates one of its own
variable slots, so that slot cannot be rewritten structurally).

Terms serialize to a parenthesized prefix form, e.g. ``f(p0, g(p1, p0, p1))``
with ``pK`` for projections, ``pow(times, hole, body)`` for power nodes and
``comp(outer, in1, ..., inm)`` for compositions; parse/print round-trips
are bit-exact given the arity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import FiniteAlgebra, OperationTable, coordinate
from .errors import ArityMismatch, TermSyntaxError, UnknownSymbol

_INTERN: dict[tuple, "Term"] = {}


class Term:
    """One interned node of a term DAG.  Do not construct directly; use
    proj(), app() and power()."""

    __slots__ = ("kind", "arity", "index", "op", "children", "hole", "times")

    def __init__(self, kind, arity, index=None, op=None, children=None,
                 hole=None, times=None):
        self.kind = kind
        self.arity = arity
        self.index = index
        self.op = op
        self.children = children
        self.hole = hole
        self.times = times

    def __repr__(self) -> str:
        return f"Term({self.text()})"

    def text(self) -> str:
        """The prefix form, built bottom-up over `nodes`: no recursion limit."""
        done: dict[int, str] = {}
        for node in self.nodes():
            args = ", ".join(done[id(c)] for c in node.operands())
            done[id(node)] = (f"p{node.index}" if node.kind == "proj" else
                              f"pow({node.times}, {node.hole}, {args})" if node.kind == "pow"
                              else f"{node.op if node.kind == 'app' else 'comp'}({args})")
        return done[id(self)]

    def operands(self, outers: bool = True, bodies: bool = True) -> tuple["Term", ...]:
        """The children, without the outer term of a composition or the body
        of a power unless asked."""
        kids = self.children or ()
        if self.kind == "comp" and not outers:
            return kids[1:]
        return () if self.kind == "pow" and not bodies else kids

    def nodes(self, outers: bool = True, bodies: bool = True) -> list["Term"]:
        """All distinct nodes of the DAG, children before parents (post-order,
        children left to right), by an explicit stack: no recursion limit.
        outers=False leaves out what only composition outers reach (they have
        variables of their own), bodies=False what only power bodies reach
        (they are evaluated at other values)."""
        seen: dict[int, Term] = {}
        stack = [(self, iter(self.operands(outers, bodies)))]
        while stack:
            node, pending = stack[-1]
            child = next(pending, None)
            if child is None:
                seen[id(node)] = node
                stack.pop()
            elif id(child) not in seen:
                stack.append((child, iter(child.operands(outers, bodies))))
        return list(seen.values())


def proj(index: int, arity: int) -> Term:
    if not 0 <= index < arity:
        raise ArityMismatch(f"projection index {index} out of range for arity {arity}")
    key = ("p", index, arity)
    t = _INTERN.get(key)
    if t is None:
        t = _INTERN[key] = Term("proj", arity, index=index)
    return t


def app(op: str, children: Sequence[Term]) -> Term:
    children = tuple(children)
    if not children:
        raise ArityMismatch(f"application of {op!r} needs arguments")
    arity = children[0].arity
    if any(c.arity != arity for c in children):
        raise ArityMismatch(f"children of {op!r} disagree on arity")
    key = ("a", op, tuple(id(c) for c in children))
    t = _INTERN.get(key)
    if t is None:
        t = _INTERN[key] = Term("app", arity, op=op, children=children)
    return t


def power(body: Term, hole: int, times: int) -> Term:
    """Iterate the unary context u |-> body(args with args[hole] := u),
    `times` times, starting from args[hole]."""
    if not 0 <= hole < body.arity:
        raise ArityMismatch(f"hole {hole} out of range for arity {body.arity}")
    if times < 0:
        raise ArityMismatch("power count must be >= 0")
    if times == 0:
        return proj(hole, body.arity)
    if times == 1:
        return body
    key = ("w", id(body), hole, times)
    t = _INTERN.get(key)
    if t is None:
        t = _INTERN[key] = Term("pow", body.arity, children=(body,),
                                hole=hole, times=times)
    return t


def compose(outer: Term, inners: Sequence[Term]) -> Term:
    """Explicit composition node outer(in_1, ..., in_m)."""
    inners = tuple(inners)
    if len(inners) != outer.arity:
        raise ArityMismatch(f"outer term has arity {outer.arity}, "
                            f"got {len(inners)} arguments")
    arity = inners[0].arity
    if any(c.arity != arity for c in inners):
        raise ArityMismatch("composition arguments disagree on arity")
    key = ("c", id(outer), tuple(id(c) for c in inners))
    t = _INTERN.get(key)
    if t is None:
        t = _INTERN[key] = Term("comp", arity, children=(outer,) + inners)
    return t


def uses_variable(t: Term, index: int) -> bool:
    """Whether t reads variable `index` (composition outers read their own)."""
    for node in t.nodes(outers=False):
        if node.kind == "proj" and node.index == index:
            return True
        if node.kind == "pow" and node.hole == index:
            return True
    return False


_TREE_SIZE_CAP = 1 << 20
_TREE_SIZE: dict[int, int] = {}


def tree_size(t: Term) -> int:
    """Size of the fully expanded tree (what text() would print), capped.
    Nodes are interned and immortal, so caching by identity is sound."""
    known = _TREE_SIZE.get(id(t))
    if known is not None:
        return known
    for node in t.nodes():
        if id(node) in _TREE_SIZE:
            continue
        if node.kind == "proj":
            s = 1
        else:
            s = 1 + sum(_TREE_SIZE[id(c)] for c in node.children)
        _TREE_SIZE[id(node)] = min(s, _TREE_SIZE_CAP)
    return _TREE_SIZE[id(t)]


#: structural substitution above this expanded-tree size switches to an
#: explicit composition node, whose printed form shares subterms
_SUBSTITUTE_COMPACT = 4096


def substitute(t: Term, replacements: Sequence[Term]) -> Term:
    """Compose: plug replacement terms (all of one arity) into t's variables.

    Rewrites structurally where possible.  The substitution becomes an
    explicit composition node when a compound replacement aims at a power
    node's iteration slot, or when the rewritten tree would print too large
    (composition arguments appear once in the text, structural copies once
    per variable occurrence)."""
    if len(replacements) != t.arity:
        raise ArityMismatch(f"need {t.arity} replacements, got {len(replacements)}")
    if all(r.kind == "proj" and r.index == i for i, r in enumerate(replacements)) \
            and all(r.arity == t.arity for r in replacements):
        return t
    if any(r.kind != "proj" for r in replacements) and \
            tree_size(t) * max(tree_size(r) for r in replacements) \
            > _SUBSTITUTE_COMPACT:
        return compose(t, replacements)
    try:
        return _rewrite(t, replacements)
    except _Blocked:
        return compose(t, replacements)


class _Blocked(Exception):
    """A power node's iteration slot cannot be rewritten structurally."""


def _rewrite(t: Term, replacements: Sequence[Term]) -> Term:
    """The structural substitution of `substitute`, bottom-up over the nodes
    outside composition outers (an outer keeps its own variables)."""
    done: dict[int, Term] = {}
    for node in t.nodes(outers=False):
        new = [done[id(c)] for c in node.operands(outers=False)]
        if node.kind == "proj":
            done[id(node)] = replacements[node.index]
        elif node.kind == "app":
            done[id(node)] = app(node.op, new)
        elif node.kind == "comp":
            done[id(node)] = compose(node.children[0], new)
        else:
            # rewriting inside a power node is sound only if the iteration
            # slot maps to a plain variable nothing else touches
            rep = replacements[node.hole]
            if rep.kind != "proj" or any(
                    uses_variable(replacements[c], rep.index)
                    for c in range(len(replacements)) if c != node.hole):
                raise _Blocked()
            done[id(node)] = power(new[0], rep.index, node.times)
    return done[id(t)]


#: per term (by identity: nodes are interned and immortal), the nodes other
#: than projections evaluated at its own values; a projection, itself
_CONTEXT_NODES: dict[int, list[Term]] = {}


def evaluate(t: Term, algebra: FiniteAlgebra, args: Sequence[int]) -> int:
    """Value of the induced term operation at args, memoized by (node,
    values), on an explicit stack of contexts.  A context is a term at some
    values; its nodes at those values (`nodes(outers=False, bodies=False)`,
    projections read off the values) are evaluated bottom-up, each once.  A
    composition outer or a power body missing at other values suspends the
    context below a new one for it."""
    if len(args) != t.arity:
        raise ArityMismatch(f"term has arity {t.arity}, got {len(args)} arguments")
    args = tuple(args)
    memo: dict[tuple[int, tuple[int, ...]], int] = {}
    size, stack = algebra.size, [(t, args, 0)]
    while stack:
        term, vals, start = stack.pop()
        if (nodes := _CONTEXT_NODES.get(id(term))) is None:
            nodes = _CONTEXT_NODES[id(term)] = [
                n for n in term.nodes(outers=False, bodies=False) if n.kind != "proj"] or [term]
        for i in range(start, len(nodes)):
            node = nodes[i]
            if (key := (id(node), vals)) in memo:
                continue
            if node.kind == "app":
                r = 0
                for c in node.children:
                    r = r * size + (vals[c.index] if c.kind == "proj" else memo[id(c), vals])
                r = _op_of(node, algebra).table[r]
            elif node.kind == "proj":
                r = vals[node.index]
            else:
                if node.kind == "pow":
                    r, pending = _power_at(node, vals, memo)
                else:
                    outer = node.children[0]
                    inner = tuple([vals[c.index] if c.kind == "proj" else memo[id(c), vals]
                                   for c in node.children[1:]])
                    r, pending = memo.get((id(outer), inner)), (outer, inner)
                if r is None:
                    stack += [(term, vals, i), (*pending, 0)]
                    break
            memo[key] = r
    return memo[id(t), args]


def _power_at(node: Term, vals: tuple[int, ...], memo: dict
              ) -> tuple[Optional[int], Optional[tuple]]:
    """The value of a power node at vals from memoized values of its body,
    iterating its unary context with a shortcut through the cycle; or None
    and the first (body, values) pair still missing."""
    body, hole, times = node.children[0], node.hole, node.times
    seq, seen = [vals[hole]], {vals[hole]: 0}
    while len(seq) <= times:
        at = vals[:hole] + (seq[-1],) + vals[hole + 1:]
        if (v := memo.get((id(body), at))) is None:
            return None, (body, at)
        if v in seen:   # seq[first:] repeats with period len(seq) - first
            first = seen[v]
            return seq[first + (times - first) % (len(seq) - first)], None
        seen[v] = len(seq)
        seq.append(v)
    return seq[times], None


def _op_of(node: Term, algebra: FiniteAlgebra) -> OperationTable:
    """The algebra's operation that an application node applies."""
    op = algebra.by_name.get(node.op)
    if op is None:
        raise UnknownSymbol(node.op)
    if op.arity != len(node.children):
        raise ArityMismatch(f"{node.op!r} has arity {op.arity}, term applies it to "
                            f"{len(node.children)} arguments")
    return op


def realize_table(t: Term, algebra: FiniteAlgebra, name: str = "t") -> OperationTable:
    """Full table of the induced operation, computed bottom-up over the DAG,
    one array per node.  Nodes realize at their own arity (composition
    outers differ from the root)."""
    n = algebra.size
    arrays: dict[int, np.ndarray] = {}
    for node in t.nodes():
        if node.kind == "proj":
            arr = coordinate(n, node.arity, node.index)
        elif node.kind == "app":
            arr = _op_of(node, algebra).array[tuple(arrays[id(c)] for c in node.children)]
        elif node.kind == "comp":
            outer, *inners = (arrays[id(c)] for c in node.children)
            arr = outer[tuple(inners)]
        else:
            # the unary map u |-> body(.., u at hole, ..) of every context,
            # on the last axis, raised to `times` by repeated squaring
            step = np.moveaxis(arrays[id(node.children[0])], node.hole, -1)
            result = np.broadcast_to(np.arange(n), step.shape)
            times = node.times
            while times:
                if times & 1:
                    result = np.take_along_axis(step, result, axis=-1)
                step = np.take_along_axis(step, step, axis=-1)
                times >>= 1
            arr = np.moveaxis(result, -1, node.hole)
        arrays[id(node)] = arr
    return OperationTable.from_array(name, arrays[id(t)])


@dataclass(frozen=True)
class Identity:
    """An equation between two terms of the same arity."""

    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.left.arity != self.right.arity:
            raise ArityMismatch("identity sides have different arities")

    @property
    def arity(self) -> int:
        return self.left.arity

    def __str__(self) -> str:
        return f"{self.left.text()} = {self.right.text()}"


def check_identity(algebra: FiniteAlgebra, ident: Identity
                   ) -> Optional[tuple[int, ...]]:
    """Exhaustive check; returns the lexicographically first counterexample,
    or None if the identity holds."""
    differ = realize_table(ident.left, algebra).array \
        != realize_table(ident.right, algebra).array
    return tuple(np.argwhere(differ)[0].tolist()) if differ.any() else None


# --- parsing ---

def parse_term(text: str, arity: Optional[int] = None) -> Term:
    """Parse the prefix form produced by Term.text().

    If arity is omitted it is inferred as max projection index + 1."""
    pos = 0
    s = text

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(s) and s[pos] in " \t\n":
            pos += 1

    def ident() -> str:
        nonlocal pos
        start = pos
        while pos < len(s) and (s[pos].isalnum() or s[pos] == "_"):
            pos += 1
        if start == pos:
            raise TermSyntaxError(f"expected a name at position {pos} in {s!r}")
        return s[start:pos]

    def expect(ch: str) -> None:
        nonlocal pos
        skip_ws()
        if pos >= len(s) or s[pos] != ch:
            raise TermSyntaxError(f"expected {ch!r} at position {pos} in {s!r}")
        pos += 1

    def number() -> int:
        nonlocal pos
        skip_ws()
        start = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if start == pos:
            raise TermSyntaxError(f"expected a number at position {pos} in {s!r}")
        return int(s[start:pos])

    # the parse lists the nodes in post-order, as (tag, value, extra, child
    # positions); an explicit stack holds the open ones, so no recursion limit
    nodes: list[tuple] = []
    stack: list[tuple] = []   # open nodes: (tag, value, extra, children so far)
    while True:
        skip_ws()
        name = ident()
        if name.startswith("p") and name[1:].isdigit():
            nodes.append(("p", int(name[1:]), None, ()))
        elif name == "pow":
            expect("(")
            times = number()
            expect(",")
            hole = number()
            expect(",")
            stack.append(("w", times, hole, []))
            continue
        else:
            expect("(")
            stack.append(("c" if name == "comp" else "a", name, None, []))
            continue
        # close every open node that the node just parsed completes
        while stack:
            tag, value, extra, children = stack[-1]
            children.append(len(nodes) - 1)
            skip_ws()
            if tag != "w" and pos < len(s) and s[pos] == ",":
                pos += 1
                break
            expect(")")
            stack.pop()
            if tag == "c" and len(children) < 2:
                raise TermSyntaxError("comp needs an outer term and arguments")
            nodes.append((tag, value, extra, tuple(children)))
        else:
            break
    skip_ws()
    if pos != len(s):
        raise TermSyntaxError(f"trailing input at position {pos} in {s!r}")

    if arity is None:
        # the largest variable read outside composition outers (they have
        # variables of their own), children before parents
        top: list[int] = []
        for tag, value, extra, kids in nodes:
            reach = [top[c] for c in kids[tag == "c":]]
            top.append(value if tag == "p" else max(reach + [extra] * (tag == "w")))
        arity = top[-1] + 1
    # arities from the root down: a composition outer takes its own
    arities = [arity] * len(nodes)
    for i in reversed(range(len(nodes))):
        tag, _, _, kids = nodes[i]
        for j, c in enumerate(kids):
            arities[c] = len(kids) - 1 if tag == "c" and j == 0 else arities[i]
    built: list[Term] = []
    for (tag, value, extra, kids), k in zip(nodes, arities):
        args = [built[c] for c in kids]
        built.append(proj(value, k) if tag == "p" else
                     power(args[0], extra, value) if tag == "w" else
                     compose(args[0], args[1:]) if tag == "c" else app(value, args))
    return built[-1]
