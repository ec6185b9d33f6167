"""Built-in example algebras.

All fixtures are constructed from closed-form rules and validated on
construction.  `no-edge-factor` is the product of the two padded factors,
so its tables are derived, not transcribed.
"""

from __future__ import annotations

from itertools import product
from typing import Callable

from .algebra import FiniteAlgebra, product_algebra, validate_algebra


def _tbl(n: int, arity: int, fn: Callable[..., int]) -> list[int]:
    return [fn(*args) for args in product(range(n), repeat=arity)]


def no_edge() -> FiniteAlgebra:
    """Three elements a, b, c with two 'almost semilattice' joins toward c:
    both operations join anything with c to c, but on {a, b} the first
    operation favours b's row and the second favours a's, leaving the pair
    without any semilattice, majority or affine behaviour."""
    def f(x: int, y: int) -> int:
        if x == y:
            return x
        if 2 in (x, y):
            return 2
        return 2 if (x, y) == (0, 1) else 1     # f(a,b)=c, f(b,a)=b

    def g(x: int, y: int) -> int:
        if x == y:
            return x
        if 2 in (x, y):
            return 2
        return 0 if (x, y) == (0, 1) else 2     # g(a,b)=a, g(b,a)=c

    return validate_algebra("no-edge", 3,
                            [("f", 2, _tbl(3, 2, f)), ("g", 2, _tbl(3, 2, g))],
                            labels=("a", "b", "c"))


def sl2() -> FiniteAlgebra:
    """Two-element meet semilattice; 0 absorbs."""
    return validate_algebra("sl2", 2, [("meet", 2, [0, 0, 0, 1])])


def mj2() -> FiniteAlgebra:
    """Two-element majority algebra."""
    def m(x: int, y: int, z: int) -> int:
        return 1 if x + y + z >= 2 else 0
    return validate_algebra("mj2", 2, [("maj", 3, _tbl(2, 3, m))])


def z3_affine() -> FiniteAlgebra:
    """Idempotent reduct of the 3-element cyclic group: x - y + z mod 3."""
    return validate_algebra("z3-affine", 3,
                            [("h", 3, _tbl(3, 3, lambda x, y, z: (x - y + z) % 3))])


def no_majority_symmetry() -> FiniteAlgebra:
    """Four elements in two blocks {0,2}, {1,3} (block of x is x mod 2).

    maj: first projection shifted by +1 into the majority block whenever the
    first argument's block is the minority one; so maj is majority between
    blocks, the first projection inside each block, but never majority on a
    cross-block pair.  mnr: x - y + z plus a correction determined by the
    block pattern, making it minority inside blocks and the third projection
    between them.  Both commute with x -> x+1 (mod 4); every cross-block
    pair is a majority edge witnessed by the block congruence while no term
    is majority on the pair itself, and the blocks carry affine edges."""
    def blk(x: int) -> int:
        return x % 2

    def maj(x: int, y: int, z: int) -> int:
        majority_block = 1 if blk(x) + blk(y) + blk(z) >= 2 else 0
        return x if blk(x) == majority_block else (x + 1) % 4

    def mnr(x: int, y: int, z: int) -> int:
        return (x - y + z + (blk(x) ^ blk(y)) + 2 * (blk(x) ^ blk(z))) % 4

    return validate_algebra("no-majority-symmetry", 4,
                            [("maj", 3, _tbl(4, 3, maj)), ("mnr", 3, _tbl(4, 3, mnr))])


def no_edge_factor() -> FiniteAlgebra:
    """Product of the no-edge algebra and a majority pair, each padded with
    the other's operations as first projections.  Elements are (x, y) with
    x from no-edge and y in {0,1}, encoded x*2 + y."""
    c = product_algebra(*factors_of_no_edge_factor())
    return FiniteAlgebra("no-edge-factor", c.size, c.operations, c.labels)


def factors_of_no_edge_factor() -> tuple[FiniteAlgebra, FiniteAlgebra]:
    """The two padded factors used to build no-edge-factor."""
    ne = no_edge()
    m_first = _tbl(3, 3, lambda x, y, z: x)
    a_prime = validate_algebra(
        "no-edge+m", 3,
        [("f", 2, ne.op("f").table), ("g", 2, ne.op("g").table), ("m", 3, m_first)],
        labels=("a", "b", "c"))
    b_prime = validate_algebra(
        "pair+m", 2,
        [("f", 2, _tbl(2, 2, lambda x, y: x)), ("g", 2, _tbl(2, 2, lambda x, y: x)),
         ("m", 3, _tbl(2, 3, lambda x, y, z: 1 if x + y + z >= 2 else 0))],
        labels=("0", "1"))
    return a_prime, b_prime


FIXTURES: dict[str, Callable[[], FiniteAlgebra]] = {
    "no-edge": no_edge,
    "no-edge-factor": no_edge_factor,
    "no-majority-symmetry": no_majority_symmetry,
    "z3-affine": z3_affine,
    "sl2": sl2,
    "mj2": mj2,
}


def fixture(name: str) -> FiniteAlgebra:
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; available: "
                       f"{', '.join(sorted(FIXTURES))}")
    return FIXTURES[name]()

