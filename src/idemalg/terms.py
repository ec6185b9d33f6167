"""Hash-consed term DAGs over an operation signature.

Nodes are interned: structurally equal terms are the same object, so
identity doubles as structural equality, and a pure function of terms is
computed once per input: `substitute` keeps its results on the term it
rewrites, for the life of the process, and `realize_table` keeps one table
per node on the algebra, for the life of that algebra object.  Besides
projections and symbol applications there is a power node iterating a
unary context, which keeps the lcm-exponent constructions small; it is
never expanded literally: its table is computed by repeated squaring, and
a point that needs it reads that table.  An explicit composition node
carries substitutions whose target position is a power hole (a power node
iterates one of its own variable slots, so that slot cannot be rewritten
structurally).

Terms serialize to a parenthesized prefix form, e.g. ``f(p0, g(p1, p0, p1))``
with ``pK`` for projections, ``pow(times, hole, body)`` for power nodes and
``comp(outer, in1, ..., inm)`` for compositions; parse/print round-trips
are bit-exact given the arity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import FiniteAlgebra, OperationTable, coordinate, first_index
from .errors import ArityMismatch, TermSyntaxError, UnknownSymbol

_INTERN: dict[tuple, "Term"] = {}

_TREE_SIZE_CAP = 1 << 20
# a term's tokens: a name (\w is str.isalnum or "_"), or one character but " \t\n"
_TOKEN = re.compile(r"\w+|[^ \t\n]")


class Term:
    """One interned node of a term DAG.  Do not construct directly; use
    proj(), app() and power().  `tree_size` is the size of the fully
    expanded tree (what text() would print), capped at _TREE_SIZE_CAP.
    `evaluate` keeps the nodes it walks in `_evaluated`, filled on the term
    it is called on, never on its subterms, so a deep chain keeps one list;
    `substitute` keeps its results in `_substituted`."""

    __slots__ = ("kind", "arity", "index", "op", "children", "hole", "times",
                 "tree_size", "_evaluated", "_substituted")

    def __init__(self, kind, arity, index=None, op=None, children=None,
                 hole=None, times=None):
        self.kind = kind
        self.arity = arity
        self.index = index
        self.op = op
        self.children = children
        self.hole = hole
        self.times = times
        self.tree_size = 1 if children is None else min(
            1 + sum(c.tree_size for c in children), _TREE_SIZE_CAP)
        self._evaluated: Optional[list[Term]] = None
        self._substituted: Optional[dict[tuple[Term, ...], object]] = None

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


#: structural substitution above this expanded-tree size switches to an
#: explicit composition node, whose printed form shares subterms
_SUBSTITUTE_COMPACT = 4096


def substitute(t: Term, replacements: Sequence[Term]) -> Term:
    """Compose: plug replacement terms (all of one arity) into t's variables.

    Rewrites structurally where possible.  The substitution becomes an
    explicit composition node when a compound replacement aims at a power
    node's iteration slot, or when the rewritten tree would print too large
    (composition arguments appear once in the text, structural copies once
    per variable occurrence).  The result is kept on t, by the replacements
    (interned, so their identities are the key); a composition is kept as
    a marker and built again by `compose`, an intern hit, so that t's cache
    never holds the node whose outer is t itself."""
    replacements = tuple(replacements)
    if len(replacements) != t.arity:
        raise ArityMismatch(f"need {t.arity} replacements, got {len(replacements)}")
    if all(r.kind == "proj" and r.index == i for i, r in enumerate(replacements)) \
            and all(r.arity == t.arity for r in replacements):
        return t
    if t._substituted is None:
        t._substituted = {}
    done = t._substituted.get(replacements)
    if done is None:
        done = t._substituted[replacements] = _substitute(t, replacements)
    return compose(t, replacements) if done is _COMPOSED else done


def _substitute(t: Term, replacements: tuple[Term, ...]) -> object:
    """The structural rewrite of `substitute`, or _COMPOSED where it
    composes instead."""
    if any(r.kind != "proj" for r in replacements) and \
            t.tree_size * max(r.tree_size for r in replacements) \
            > _SUBSTITUTE_COMPACT:
        return _COMPOSED
    try:
        return _rewrite(t, replacements)
    except _Blocked:
        return _COMPOSED


class _Blocked(Exception):
    """A power node's iteration slot cannot be rewritten structurally."""


#: what `substitute` keeps for a substitution that becomes a composition node
_COMPOSED = object()


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


def evaluate(t: Term, algebra: FiniteAlgebra, args: Sequence[int]) -> int:
    """Value of the induced term operation at args, bottom-up over the nodes
    evaluated at args (`nodes(outers=False, bodies=False)`, kept on t): a
    projection reads args, an application one flat table entry.  The first composition
    or power node met sends the whole term to its realized table, which
    costs one n**arity table per algebra (memoized there); only the
    arity-2/3 synthesis and thin-edge terms have such nodes, provenance
    witnesses have projection and application nodes only."""
    if len(args) != t.arity:
        raise ArityMismatch(f"term has arity {t.arity}, got {len(args)} arguments")
    algebra.check_elements(args)
    if t._evaluated is None:
        t._evaluated = t.nodes(outers=False, bodies=False)
    size, values = algebra.size, {}
    for node in t._evaluated:
        if node.kind == "proj":
            r = args[node.index]
        elif node.kind == "app":
            r = 0
            for c in node.children:
                r = r * size + values[id(c)]
            r = _op_of(node, algebra).table[r]
        else:
            return int(realize_table(t, algebra).array[tuple(args)])
        values[id(node)] = r
    return values[id(t)]


def _op_of(node: Term, algebra: FiniteAlgebra) -> OperationTable:
    """The algebra's operation that an application node applies."""
    op = algebra.by_name.get(node.op)
    if op is None:
        raise UnknownSymbol(node.op)
    if op.arity != len(node.children):
        raise ArityMismatch(f"{node.op!r} has arity {op.arity}, term applies it to "
                            f"{len(node.children)} arguments")
    return op


def realize_table(t: Term, algebra: FiniteAlgebra) -> OperationTable:
    """Full table of the induced operation.  The algebra's memo keeps the
    read-only table of t and of every node below it but projections, under
    the node itself (terms are interned, so a node is its own key), for
    the life of the algebra object; an explicit stack computes
    the nodes missing from it, children first, and does not descend below
    a node it holds.  A node realizes at its own arity (composition outers
    differ from the root), a projection as its shared `coordinate` view, a
    power node by repeated squaring.  `evaluate` reads this table for a
    term with a composition or power node at its own variables: the
    arity-2/3 synthesis and thin-edge terms."""
    memo, n = algebra._memo, algebra.size

    def array(node: Term) -> np.ndarray:
        return coordinate(n, node.arity, node.index) if node.kind == "proj" \
            else memo[node].array

    stack = [t]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        missing = [c for c in node.children or () if c.kind != "proj" and c not in memo]
        if missing:
            stack += reversed(missing)
            continue
        stack.pop()
        if node.kind == "proj":
            arr = array(node)
        elif node.kind == "app":
            arr = _op_of(node, algebra).array[tuple(map(array, node.children))]
        elif node.kind == "comp":
            outer, *inners = map(array, node.children)
            arr = outer[tuple(inners)]
        else:
            # the unary map u |-> body(.., u at hole, ..) of every context,
            # on the last axis, raised to `times` by repeated squaring
            step = np.moveaxis(array(node.children[0]), node.hole, -1)
            result = np.broadcast_to(np.arange(n), step.shape)
            times = node.times
            while times:
                if times & 1:
                    result = np.take_along_axis(step, result, axis=-1)
                step = np.take_along_axis(step, step, axis=-1)
                times >>= 1
            arr = np.moveaxis(result, -1, node.hole)
        memo[node] = OperationTable.from_array("t", arr)
    return memo[t]


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
    return first_index(differ) if differ.any() else None


# --- parsing ---

def parse_term(text: str, arity: Optional[int] = None) -> Term:
    """Parse the prefix form produced by Term.text().

    If arity is omitted it is inferred as max projection index + 1."""
    # one pass lists the tokens with their positions, then an empty end token
    tokens = [(m.start(), m.group()) for m in _TOKEN.finditer(text)] + [(len(text), "")]
    at = 0

    def take(kind: str) -> tuple[str, Optional[int]]:
        """The next token, which must be "(", ")" or "," as asked, a name or a
        digit run ("a name", "a number"), and the number of a digit run or pK."""
        nonlocal at
        pos, tok = tokens[at]
        if not (tok.isdigit() if kind == "a number" else
                tok[:1].isalnum() or tok[:1] == "_" if kind == "a name" else tok == kind):
            raise TermSyntaxError(f"expected {kind if len(kind) > 1 else repr(kind)} "
                                  f"at position {pos} in {text!r}")
        at += 1
        digits = tok.removeprefix("p")
        try:
            return tok, int(digits) if digits.isdigit() else None
        except ValueError:      # past int()'s digit limit, or a digit like "\u00b2"
            raise TermSyntaxError(f"unreadable number at position {pos} in {text!r}") from None

    # the parse lists the nodes in post-order, as (tag, value, extra, child
    # positions); an explicit stack holds the open ones, so no recursion limit
    nodes: list[tuple] = []
    stack: list[tuple] = []   # open nodes: (tag, value, extra, children so far)
    while True:
        name, number = take("a name")
        if name.startswith("p") and number is not None:
            nodes.append(("p", number, None, ()))
        else:
            take("(")
            if name == "pow":
                times = take("a number")[1]
                take(",")
                hole = take("a number")[1]
                take(",")
                stack.append(("w", times, hole, []))
            else:
                stack.append(("c" if name == "comp" else "a", name, None, []))
            continue
        # close every open node that the node just parsed completes
        while stack:
            tag, value, extra, children = stack[-1]
            children.append(len(nodes) - 1)
            if tag != "w" and tokens[at][1] == ",":
                at += 1
                break
            take(")")
            stack.pop()
            if tag == "c" and len(children) < 2:
                raise TermSyntaxError("comp needs an outer term and arguments")
            nodes.append((tag, value, extra, tuple(children)))
        else:
            break
    if at != len(tokens) - 1:
        raise TermSyntaxError(f"trailing input at position {tokens[at][0]} in {text!r}")

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
