"""The per-call cost of the table kernel on a wide signature, in µs.  Gates nothing.

    PYTHONPATH=src python tests/kernel_cost.py [--repeats N]

Builds the arity-3 reduct of the `no-majority-symmetry` fixture at its first
semilattice or majority edge (137 term operations of arities 1-3, as
`idemalg reduct --arity 3` does) and times, each as the minimum of N
repeats: `restrict` to the first proper subuniverse generated by a pair,
`quotient` by the proper congruence with the fewest blocks,
`product_algebra` of those two (which share the reduct's signature) and
the reduct's translations, `generate_subalgebra` of that pair, `is_set`
on the reduct, the reduct's algebra built from its stacks (`from_stacks`,
as `bounded_reduct` builds it, unchecked) and the pair-search key of the
majority search on that pair, built and hashed (`_search_key`, over the
table bytes kept on the algebra).  The memo of the reduct is cleared
before every call, so each call computes.
Prints a markdown table, appended to `$GITHUB_STEP_SUMMARY` when that is
set.  Not collected by pytest (the name does not start with `test_`).
"""

from __future__ import annotations

import argparse
import os
import time
from itertools import combinations

from idemalg.algebra import from_stacks, is_set, product_algebra, quotient, restrict
from idemalg.congruence import _translations, congruence_lattice
from idemalg.edges import MAJORITY, SEMILATTICE, structure_graph
from idemalg.fixtures import no_majority_symmetry
from idemalg.generate import _search_key, generate_subalgebra, pair_search, subuniverse
from idemalg.reduct import bounded_reduct


def reduct():
    """The arity-3 reduct of no-majority-symmetry, as `idemalg reduct` takes it."""
    base = no_majority_symmetry()
    witness = next(w for rep in structure_graph(base).reports for w in rep.witnesses
                   if w.label in (SEMILATTICE, MAJORITY))
    return bounded_reduct(base, witness, 3)


def cost_us(algebra, call, repeats: int) -> float:
    """The least time of `call()` over the repeats, in µs, each after the
    algebra's memo is cleared."""
    best = float("inf")
    for _ in range(repeats):
        algebra._memo.clear()
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=200)
    repeats = parser.parse_args().repeats
    a = reduct().algebra
    pair, subset = next(((x, y), s) for x, y in combinations(range(a.size), 2)
                        if len(s := sorted(subuniverse(a, (x, y)))) < a.size)
    theta = min((c for c in congruence_lattice(a) if len(c.blocks) > 1),
                key=lambda c: len(c.blocks))
    sub, quo = restrict(a, subset)[0], quotient(a, theta.blocks)[0]
    names = [op.name for op in a.operations]
    search = pair_search(a, MAJORITY, *pair)
    cases = [
        (f"restrict to {{{','.join(map(str, subset))}}}", lambda: restrict(a, subset)),
        (f"quotient by {theta}", lambda: quotient(a, theta.blocks)),
        (f"product_algebra, {sub.size} x {quo.size} elements", lambda: product_algebra(sub, quo)),
        ("translations", lambda: _translations(a)),
        (f"generate_subalgebra of {pair}", lambda: generate_subalgebra(a, pair)),
        ("is_set", lambda: is_set(a)),
        ("reduct algebra from its stacks",
         lambda: from_stacks(a.name, a.size, names, a.stacks, a.labels)),
        (f"search key of the majority search on {pair}",
         lambda: hash(_search_key(a, MAJORITY, search, 1000))),
    ]
    lines = [f"{len(a.operations)} operations on {a.size} elements",
             "", "| call | µs (min of %d) |" % repeats, "|---|---|"]
    for label, call in cases:
        lines.append(f"| {label} | {cost_us(a, call, repeats):.0f} |")
    text = "\n".join(["### Table kernel cost", ""] + lines) + "\n"
    print(text, end="")
    if summary := os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(text)


if __name__ == "__main__":
    main()
