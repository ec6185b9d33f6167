"""The fixed cost of a tuple closure, in µs per closure.  Gates nothing.

    PYTHONPATH=src python tests/closure_cost.py [--repeats N]

Times two small closures over one seeded 4-element algebra with two binary
operations, each as the minimum of N repeats (after one untimed run, which
fills the per-algebra caches): the 6-row closure of (0, 1) and (1, 0) on 2
coordinates, and a 4-coordinate member closure.  Prints a markdown table,
appended to `$GITHUB_STEP_SUMMARY` when that is set.  Not collected by
pytest (the name does not start with `test_`).
"""

from __future__ import annotations

import argparse
import os
import random
import time
from itertools import product

from idemalg.algebra import validate_algebra
from idemalg.generate import TupleClosure


def algebra():
    """Two idempotent binary operations on 4 elements, drawn from Random(3)."""
    rng = random.Random(3)
    ops = [(name, 2, [x if x == y else rng.randrange(4) for x, y in product(range(4), repeat=2)])
           for name in ("o0", "o1")]
    return validate_algebra("cost", 4, ops)


def cost_us(make, repeats: int) -> tuple[float, int]:
    """The least time of `make()` over the repeats, in µs, and its row count."""
    rows = len(make())
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        make()
        best = min(best, time.perf_counter() - start)
    return best * 1e6, rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=200)
    repeats = parser.parse_args().repeats
    a = algebra()
    cases = [
        ("2 columns, gens (0, 1), (1, 0)",
         lambda: TupleClosure((a, a), ((0, 1), (1, 0)), 2000, (1, 1))),
        ("4 columns, gens (0, 1, 2, 3), (1, 2, 3, 0)",
         lambda: TupleClosure((a,) * 4, ((0, 1, 2, 3), (1, 2, 3, 0)), 2000, (3, 3, 2, 2))),
    ]
    lines = ["| closure | rows | µs (min of %d) |" % repeats, "|---|---|---|"]
    for label, make in cases:
        us, rows = cost_us(make, repeats)
        lines.append(f"| {label} | {rows} | {us:.0f} |")
    text = "\n".join(["### Tuple closure fixed cost", ""] + lines) + "\n"
    print(text, end="")
    if summary := os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(text)


if __name__ == "__main__":
    main()
