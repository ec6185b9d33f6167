"""Reference implementations the tests compare the runtime package against.

Plain Python loops over `itertools.product`, sharing no code with the
numpy kernels they check: each takes an algebra and reads only its
operation tables through `OperationTable.apply`.
"""

from itertools import product


def naive_tolerance_generated(algebra, pairs):
    """Least compatible reflexive symmetric relation containing the pairs,
    as a frozenset of ordered pairs: every round applies every operation to
    every tuple of related pairs, until a round adds nothing."""
    n = algebra.size
    rel: set[tuple[int, int]] = {(x, x) for x in range(n)}
    for x, y in pairs:
        rel.add((x, y))
        rel.add((y, x))
    changed = True
    while changed:
        changed = False
        current = sorted(rel)
        for op in algebra.operations:
            for combo in product(current, repeat=op.arity):
                u = op.apply([p[0] for p in combo], n)
                v = op.apply([p[1] for p in combo], n)
                if (u, v) not in rel:
                    rel.add((u, v))
                    rel.add((v, u))
                    changed = True
    return frozenset(rel)


def naive_relation_compatible(algebra, pairs):
    """Is the binary relation (a set of ordered pairs) closed under every
    operation applied coordinatewise?"""
    pairs = frozenset(pairs)
    current = sorted(pairs)
    for op in algebra.operations:
        for combo in product(current, repeat=op.arity):
            u = op.apply([p[0] for p in combo], algebra.size)
            v = op.apply([p[1] for p in combo], algebra.size)
            if (u, v) not in pairs:
                return False
    return True
