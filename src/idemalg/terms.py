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
        if self.kind == "proj":
            return f"p{self.index}"
        if self.kind == "app":
            return f"{self.op}({', '.join(c.text() for c in self.children)})"
        if self.kind == "comp":
            return f"comp({', '.join(c.text() for c in self.children)})"
        return f"pow({self.times}, {self.hole}, {self.children[0].text()})"

    def nodes(self) -> list["Term"]:
        """All distinct nodes of the DAG, children before parents (post-order,
        children left to right), by an explicit stack: no recursion limit."""
        seen: dict[int, Term] = {}
        stack = [(self, iter(self.children or ()))]
        while stack:
            node, pending = stack[-1]
            child = next(pending, None)
            if child is None:
                seen[id(node)] = node
                stack.pop()
            elif id(child) not in seen:
                stack.append((child, iter(child.children or ())))
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
    for node in t.nodes():
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
        return _rewrite(t, replacements, {})
    except _Blocked:
        return compose(t, replacements)


class _Blocked(Exception):
    """A power node's iteration slot cannot be rewritten structurally."""


def _rewrite(node: Term, replacements: Sequence[Term], memo: dict[int, Term]) -> Term:
    """The structural substitution of `substitute`, memoized by node.  A
    module function, not a closure over itself, so no call leaves a
    reference cycle behind."""
    r = memo.get(id(node))
    if r is not None:
        return r
    if node.kind == "proj":
        r = replacements[node.index]
    elif node.kind == "app":
        r = app(node.op, [_rewrite(c, replacements, memo) for c in node.children])
    elif node.kind == "comp":
        r = compose(node.children[0],
                    [_rewrite(c, replacements, memo) for c in node.children[1:]])
    else:
        # rewriting inside a power node is sound only if the iteration
        # slot maps to a plain variable nothing else touches
        rep = replacements[node.hole]
        if rep.kind != "proj" or any(
                uses_variable(replacements[c], rep.index)
                for c in range(len(replacements)) if c != node.hole):
            raise _Blocked()
        r = power(_rewrite(node.children[0], replacements, memo), rep.index, node.times)
    memo[id(node)] = r
    return r


def _iterate(start: int, step, times: int) -> int:
    """Apply `step` to `start` `times` times, shortcutting through the cycle."""
    if times <= 0:
        return start
    seen = {start: 0}
    seq = [start]
    v = start
    for i in range(1, times + 1):
        v = step(v)
        if v in seen:
            first = seen[v]
            period = i - first
            rest = (times - first) % period
            return seq[first + rest]
        seen[v] = i
        seq.append(v)
    return v


def evaluate(t: Term, algebra: FiniteAlgebra, args: Sequence[int]) -> int:
    """Value of the induced term operation at args."""
    if len(args) != t.arity:
        raise ArityMismatch(f"term has arity {t.arity}, got {len(args)} arguments")
    return _evaluate(t, tuple(args), algebra, {})


def _evaluate(node: Term, vals: tuple[int, ...], algebra: FiniteAlgebra,
              memo: dict[tuple[int, tuple[int, ...]], int]) -> int:
    """evaluate, memoized by (node, values).  A module function, not a
    closure over itself, so no call leaves a reference cycle behind."""
    key = (id(node), vals)
    r = memo.get(key)
    if r is not None:
        return r
    if node.kind == "proj":
        r = vals[node.index]
    elif node.kind == "app":
        op = algebra.by_name.get(node.op)
        if op is None:
            raise UnknownSymbol(node.op)
        if op.arity != len(node.children):
            raise ArityMismatch(
                f"{node.op!r} has arity {op.arity}, term applies it to "
                f"{len(node.children)} arguments")
        r = op.apply([_evaluate(c, vals, algebra, memo) for c in node.children],
                     algebra.size)
    elif node.kind == "comp":
        inner = tuple(_evaluate(c, vals, algebra, memo) for c in node.children[1:])
        r = _evaluate(node.children[0], inner, algebra, memo)
    else:
        body, hole = node.children[0], node.hole

        def step(u: int) -> int:
            return _evaluate(body, vals[:hole] + (u,) + vals[hole + 1:], algebra, memo)

        r = _iterate(vals[hole], step, node.times)
    memo[key] = r
    return r


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
            op = algebra.by_name.get(node.op)
            if op is None:
                raise UnknownSymbol(node.op)
            if op.arity != len(node.children):
                raise ArityMismatch(
                    f"{node.op!r} has arity {op.arity}, term applies it to "
                    f"{len(node.children)} arguments")
            arr = op.array[tuple(arrays[id(c)] for c in node.children)]
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

    # first pass builds a nested structure; arities are fixed afterwards
    def node():
        nonlocal pos
        skip_ws()
        name = ident()
        if name.startswith("p") and name[1:].isdigit():
            return ("p", int(name[1:]))
        if name == "pow":
            expect("(")
            times = number()
            expect(",")
            hole = number()
            expect(",")
            body = node()
            expect(")")
            return ("w", times, hole, body)
        expect("(")
        children = [node()]
        skip_ws()
        while pos < len(s) and s[pos] == ",":
            pos += 1
            children.append(node())
            skip_ws()
        expect(")")
        if name == "comp":
            if len(children) < 2:
                raise TermSyntaxError("comp needs an outer term and arguments")
            return ("c", children[0], children[1:])
        return ("a", name, children)

    tree = node()
    skip_ws()
    if pos != len(s):
        raise TermSyntaxError(f"trailing input at position {pos} in {s!r}")

    def max_index(nd) -> int:
        if nd[0] == "p":
            return nd[1]
        if nd[0] == "w":
            return max(nd[2], max_index(nd[3]))
        if nd[0] == "c":
            return max(max_index(c) for c in nd[2])
        return max(max_index(c) for c in nd[2])

    k = arity if arity is not None else max_index(tree) + 1

    def build(nd, k: int) -> Term:
        if nd[0] == "p":
            return proj(nd[1], k)
        if nd[0] == "w":
            return power(build(nd[3], k), nd[2], nd[1])
        if nd[0] == "c":
            inners = [build(c, k) for c in nd[2]]
            return compose(build(nd[1], len(inners)), inners)
        return app(nd[1], [build(c, k) for c in nd[2]])

    return build(tree, k)
