"""Reference code the benchmark checks answers against.

Nothing here imports idemalg: a witness is checked from its printed text
with the parser and evaluator below, and an absence or cap answer is
checked with a plain semi-naive closure over integer-coded rows.  The
closure enumerates every argument combination; it shares no signature
deduplication or prefix registration with the code under test.
"""

from __future__ import annotations

import re

import numpy as np

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([(),]))")
_PROJ = re.compile(r"p(\d+)$")

_CHUNK = 1 << 20   # argument combinations per numpy batch


class Algebra:
    """Operation tables by name over the universe 0..size-1; a table is
    flat and row-major, the first argument most significant."""

    def __init__(self, size: int, ops: dict[str, tuple[int, list[int]]]):
        self.size = size
        self.ops = {name: (arity, np.asarray(table, dtype=np.int64))
                    for name, (arity, table) in ops.items()}


# --------------------------------------------------------------------------
# witness terms
# --------------------------------------------------------------------------


def parse_term(text: str):
    """Parse the prefix form ``pK``, ``op(t, ...)``, ``pow(times, hole,
    body)`` and ``comp(outer, in1, ...)`` into hash-consed tuples:
    ("p", k), ("app", op, children), ("pow", times, hole, body) and
    ("comp", outer, inners).  Iterative, so deep terms parse."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"bad term text at {pos}")
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    interned: dict = {}

    def intern(node):
        return interned.setdefault(node, node)

    # each frame: [head name, collected arguments]
    stack: list[list] = []
    result = None
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok in "(),":
            raise ValueError(f"unexpected {tok!r} in term text")
        if tok.isdigit():
            value = int(tok)
        elif i + 1 < len(tokens) and tokens[i + 1] == "(":
            stack.append([tok, []])
            i += 2
            continue
        else:
            m = _PROJ.match(tok)
            if m is None:
                raise ValueError(f"bad leaf {tok!r}")
            value = intern(("p", int(m.group(1))))
        i += 1
        # close every application that this value completes
        while True:
            if not stack:
                if i != len(tokens):
                    raise ValueError("trailing text after term")
                result = value
                break
            stack[-1][1].append(value)
            sep = tokens[i] if i < len(tokens) else None
            if sep == ",":
                i += 1
                break
            if sep != ")":
                raise ValueError("expected ',' or ')' in term text")
            i += 1
            head, args = stack.pop()
            if head == "pow":
                times, hole, body = args
                value = intern(("pow", times, hole, body))
            elif head == "comp":
                value = intern(("comp", args[0], tuple(args[1:])))
            else:
                value = intern(("app", head, tuple(args)))
        if result is not None:
            break
    if result is None or stack:
        raise ValueError("unbalanced term text")
    return result


def evaluate(term, algebra: Algebra, env: list[np.ndarray]) -> np.ndarray:
    """Values of the term with variable pK bound to env[K]; all arrays have
    one entry per evaluation point."""
    memo: dict[int, np.ndarray] = {}
    stack = [term]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        kind = node[0]
        if kind == "p":
            memo[id(node)] = env[node[1]]
            stack.pop()
        elif kind == "app":
            pending = [c for c in node[2] if id(c) not in memo]
            if pending:
                stack.extend(pending)
                continue
            arity, table = algebra.ops[node[1]]
            if arity != len(node[2]):
                raise ValueError(f"{node[1]} applied to {len(node[2])} arguments")
            idx = np.zeros_like(env[0])
            for c in node[2]:
                idx = idx * algebra.size + memo[id(c)]
            memo[id(node)] = table[idx]
            stack.pop()
        elif kind == "comp":
            _, outer, inners = node
            pending = [c for c in inners if id(c) not in memo]
            if pending:
                stack.extend(pending)
                continue
            memo[id(node)] = evaluate(outer, algebra, [memo[id(c)] for c in inners])
            stack.pop()
        else:
            memo[id(node)] = _power(node, algebra, env)
            stack.pop()
    return memo[id(term)]


def _power(node, algebra: Algebra, env: list[np.ndarray]) -> np.ndarray:
    """pow(times, hole, body): iterate u -> body(env with slot hole := u)
    `times` times from env[hole].  The unary map at every evaluation point
    is tabulated once and raised to the power by repeated squaring."""
    _, times, hole, body = node
    n = algebra.size
    points = len(env[0])
    step = np.empty((points, n), dtype=np.int64)
    for u in range(n):
        sub = list(env)
        sub[hole] = np.full(points, u, dtype=np.int64)
        step[:, u] = evaluate(body, algebra, sub)
    rows = np.arange(points)[:, None]
    result = np.tile(np.arange(n, dtype=np.int64), (points, 1))
    while times:
        if times & 1:
            result = step[rows, result]
        step = step[rows, step]
        times >>= 1
    return result[np.arange(points), env[hole]]


def term_table(text: str, algebra: Algebra, arity: int) -> list[int]:
    """The operation table the term text induces, row-major."""
    n = algebra.size
    codes = np.arange(n ** arity, dtype=np.int64)
    env = [(codes // n ** (arity - 1 - i)) % n for i in range(arity)]
    return evaluate(parse_term(text), algebra, env).tolist()


def term_values(text: str, algebra: Algebra,
                points: list[tuple[int, ...]]) -> list[int]:
    """The term's values at each argument tuple of `points`."""
    cols = np.asarray(points, dtype=np.int64).reshape(len(points), -1)
    return evaluate(parse_term(text), algebra,
                    [cols[:, i] for i in range(cols.shape[1])]).tolist()


# --------------------------------------------------------------------------
# subpower closure
# --------------------------------------------------------------------------


def closure(algebra: Algebra, generators: list[tuple[int, ...]],
            cap: int) -> tuple[set[tuple[int, ...]], bool]:
    """Close the generator tuples under the coordinatewise operations.
    Returns (rows, complete); stops incomplete as soon as there are more
    than `cap` rows.  Rows are coded as base-n integers; each round applies
    every operation to every argument combination that uses at least one
    row new in the previous round."""
    n = algebra.size
    k = len(generators[0])
    weights = n ** np.arange(k, dtype=np.int64)
    known = np.unique(np.asarray(generators, dtype=np.int64) @ weights)
    old = 0
    complete = True
    while old < len(known) and complete:
        rows = _decode(known, n, k)
        cur = len(known)
        for arity, table in algebra.ops.values():
            for combo in _new_combinations(old, cur, arity):
                idx = np.zeros((len(combo[0]), k), dtype=np.int64)
                for arg in combo:
                    idx = idx * n + rows[arg]
                codes = np.unique(table[idx] @ weights)
                known = np.union1d(known, codes)
                if len(known) > cap:
                    complete = False
                    break
            if not complete:
                break
        # keep the rows of earlier rounds first so the next round can tell
        # new rows from old ones by position
        fresh = np.setdiff1d(known, rows @ weights)
        known = np.concatenate([rows @ weights, fresh])
        old = cur
    return {tuple(r) for r in _decode(known, n, k).tolist()}, complete


def _decode(codes: np.ndarray, n: int, k: int) -> np.ndarray:
    return (codes[:, None] // n ** np.arange(k, dtype=np.int64)) % n


def _new_combinations(old: int, cur: int, arity: int):
    """Index arrays of every combination over rows[:cur] with at least one
    index in [old, cur), in chunks: the first new index sits at position p,
    earlier positions range over old rows, later ones over all rows."""
    for p in range(arity):
        ranges = [(0, old)] * p + [(old, cur)] + [(0, cur)] * (arity - 1 - p)
        sizes = [hi - lo for lo, hi in ranges]
        total = int(np.prod(sizes))
        for lo in range(0, total, _CHUNK):
            flat = np.arange(lo, min(total, lo + _CHUNK), dtype=np.int64)
            combo = []
            for j in range(arity):
                stride = int(np.prod(sizes[j + 1:]))
                combo.append(ranges[j][0] + (flat // stride) % sizes[j])
            yield combo
