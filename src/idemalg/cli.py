"""Command-line interface.

    idemalg analyze --fixture no-edge
    idemalg edges   --fixture no-edge --json edges.json
    idemalg graph   --fixture z3-affine --dot g.dot --hyper-dot h.dot
    idemalg thin    --fixture no-majority-symmetry --dot thin.dot
    idemalg synth   --fixture sl2 --fixture mj2 --fixture z3-affine
    idemalg reduct  --fixture no-edge --pair 0 2 --arity 2
    idemalg verify  --fixture no-edge --seed 7

Exit codes: 0 success, 1 verification failure, 2 input error, 3 node cap
exceeded, 4 internal error (a bug: one line names the exception and where it
was raised).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from typing import Optional, Sequence

from . import algfile, checks, synthesis, thin
from .algebra import DEFAULT_LIMITS, FiniteAlgebra, Limits, current_limits, request_scope
from .congruence import (
    TERM_SEARCH_CAP,
    absorbing_elements,
    congruence_lattice,
    is_abelian,
    maximal_congruences,
)
from .edges import (
    MAJORITY,
    SEMILATTICE,
    graph_to_dot,
    hypergraph,
    hypergraph_connected,
    hypergraph_to_dot,
    is_connected,
    is_smooth,
    structure_graph,
)
from .errors import CapExceededError, IdemalgError, TooLarge, ValidationError
from .fixtures import FIXTURES, fixture
from .reduct import DEFAULT_MAX_ARITY, bounded_reduct, reduct_edge_report
from .terms import realize_table

REPORT_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def positive_int(text: str) -> int:
    """The argparse type of --cap and --arity: below 1 exits 2 before any output."""
    if (value := int(text)) < 1:
        raise ValueError(text)
    return value


def _load_algebras(args: argparse.Namespace) -> list[FiniteAlgebra]:
    """The input algebras, each within the request's size limit."""
    out: list[FiniteAlgebra] = []
    for name in args.fixture or []:
        out.append(fixture(name))
    for path in args.file or []:
        out.append(algfile.load(path))
    if not out:
        raise ValidationError("no input: pass --fixture NAME or --file PATH")
    for alg in out:
        current_limits().check(alg)
    return out


def _load_one(args: argparse.Namespace) -> FiniteAlgebra:
    """The input of a command that analyses one algebra."""
    algebras = _load_algebras(args)
    if len(algebras) > 1:
        raise ValidationError(
            f"{args.command} analyses one algebra, got {len(algebras)} inputs")
    return algebras[0]


def _check_outputs(args: argparse.Namespace) -> None:
    """Open every output path for writing before any analysis runs, so a
    path that cannot be written fails first.  The reports are written at
    the end; a file this check creates is removed again, so a command that
    fails later leaves none behind."""
    for attr in ("json", "dot", "hyper_dot"):
        if path := getattr(args, attr, None):
            existed = os.path.lexists(path)
            open(path, "a", encoding="utf-8").close()
            if not existed:
                os.remove(path)


def _pair_line(algebra: FiniteAlgebra, rep) -> str:
    a, b = rep.pair
    names = f"{algebra.label(a)}{algebra.label(b)}"
    if rep.is_unknown:
        return f"  {names}: unknown (cap exceeded on every congruence)"
    if not rep.is_edge:
        return f"  {names}: not an edge"
    parts = []
    for w in rep.witnesses:
        wtxt = f" witness {w.witness.text()}" if w.witness is not None else ""
        parts.append(f"{w.label} via theta={w.theta}{wtxt}")
    return f"  {names}: " + "; ".join(parts)


def _graph_json(algebra: FiniteAlgebra, graph) -> dict:
    return {
        "algebra": algebra.name,
        "pairs": [
            {
                "pair": list(rep.pair),
                "labels": sorted(rep.labels),
                "edge": rep.is_edge,
                "unknown": rep.is_unknown,
                "subalgebra": list(rep.subuniverse),
                "witnesses": [
                    {
                        "label": w.label,
                        "theta": str(w.theta),
                        "blocks": [list(w.parent_block(w.a_block)),
                                   list(w.parent_block(w.b_block))],
                        "term": w.witness.text() if w.witness else None,
                    }
                    for w in rep.witnesses
                ],
            }
            for rep in graph.reports
        ],
    }


def _write_json(path: str, payload: dict) -> None:
    payload = {"report_version": REPORT_VERSION, **payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_or_print(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")


def cmd_analyze(args: argparse.Namespace) -> int:
    algebra = _load_one(args)
    print(f"algebra {algebra.name}: {algebra.size} elements, "
          f"operations {', '.join(f'{o.name}/{o.arity}' for o in algebra.operations)}")
    lattice = congruence_lattice(algebra)
    print(f"congruences ({len(lattice)}): " + ", ".join(str(c) for c in lattice))
    print("maximal: " + ", ".join(str(c) for c in maximal_congruences(algebra)))
    print(f"abelian: {is_abelian(algebra)}")
    absorbing, reached = absorbing_elements(algebra, min(current_limits().cap, TERM_SEARCH_CAP))
    print(f"absorbing up to arity {reached}: "
          f"{[algebra.label(x) for x in absorbing] or 'none'}")
    graph = structure_graph(algebra)
    print("pair classification:")
    for rep in graph.reports:
        print(_pair_line(algebra, rep))
    print(f"graph connected: {is_connected(graph)}")
    hg = hypergraph(algebra)
    print(f"hypergraph connected: {hypergraph_connected(hg)}")
    smooth = is_smooth(algebra)
    print(f"smooth: {smooth if smooth is not True else True}")
    rows = checks.check_synthesis(algebra)
    for row in rows:
        print(row.line())
    if args.json:
        _write_json(args.json, _graph_json(algebra, graph))
    return EXIT_OK if all(r.ok for r in rows) else EXIT_VERIFICATION


def cmd_edges(args: argparse.Namespace) -> int:
    algebra = _load_one(args)
    graph = structure_graph(algebra)
    for rep in graph.reports:
        print(_pair_line(algebra, rep))
    if args.json:
        _write_json(args.json, _graph_json(algebra, graph))
    return EXIT_CAP if graph.unknown_pairs() else EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    algebra = _load_one(args)
    graph = structure_graph(algebra)
    _write_or_print(graph_to_dot(graph, algebra.name), args.dot)
    hg = hypergraph(algebra)
    if args.hyper_dot or not args.dot:
        _write_or_print(hypergraph_to_dot(hg, algebra, f"{algebra.name}-hyper"),
                        args.hyper_dot)
    return EXIT_OK


def cmd_thin(args: argparse.Namespace) -> int:
    ops = synthesis.uniform_ops(_load_algebras(args))
    target = ops.inventory.algebras[0]
    tg = thin.thin_graph(target, ops)
    _write_or_print(thin.thin_graph_to_dot(tg, target.name), args.dot)
    for e in tg.arcs:
        print("  " + e.describe() + ("" if e.necessary else "  [necessary-condition FAILED]"))
    return EXIT_OK if all(e.necessary is not False for e in tg.arcs) \
        else EXIT_VERIFICATION


def cmd_synth(args: argparse.Namespace) -> int:
    ops = synthesis.uniform_ops(_load_algebras(args))
    print("f =", ops.f.text())
    print("g =", ops.g.text())
    print("h =", ops.h.text())
    for alg in ops.inventory.algebras:
        print(f"tables on {alg.name}:")
        for nm, term in (("f", ops.f), ("g", ops.g), ("h", ops.h)):
            tab = realize_table(term, alg)
            print(f"  {nm}: {' '.join(str(v) for v in tab.table)}")
    print("verification:")
    print(ops.report.render())
    if args.json:
        payload = {
            "class": [alg.name for alg in ops.inventory.algebras],
            "f": ops.f.text(),
            "g": ops.g.text(),
            "h": ops.h.text(),
            "tables": {
                alg.name: {nm: list(realize_table(term, alg).table)
                           for nm, term in (("f", ops.f), ("g", ops.g),
                                            ("h", ops.h))}
                for alg in ops.inventory.algebras
            },
            "checks": [{"condition": c.condition, "edge": c.edge, "ok": c.ok}
                       for c in ops.report.checks],
        }
        _write_json(args.json, payload)
    return EXIT_OK if ops.report.all_green else EXIT_VERIFICATION


def cmd_reduct(args: argparse.Namespace) -> int:
    algebra = _load_one(args)
    graph = structure_graph(algebra)
    reports = graph.reports
    if args.pair:
        a, b = args.pair
        if a == b or not (0 <= a < algebra.size and 0 <= b < algebra.size):
            raise ValidationError(
                f"--pair needs two distinct elements in 0..{algebra.size - 1}, "
                f"got {a} {b}")
        reports = [graph.report(a, b)]
    witness = next((w for rep in reports for w in rep.witnesses
                    if w.label in (SEMILATTICE, MAJORITY)), None)
    if witness is None:
        raise ValidationError(
            f"pair {tuple(args.pair)} has no semilattice or majority witness"
            if args.pair else "no semilattice or majority edge to reduce at")
    red = bounded_reduct(algebra, witness, args.arity)
    print(red.describe())
    diff = reduct_edge_report(red)
    changed = diff.changed_pairs()
    if not changed:
        print(f"pair classification unchanged at arity <= {args.arity}")
    for pair, old, new in changed:
        print(f"  {pair}: {sorted(old)} -> {sorted(new)}")
    if diff.new_unary_pairs():
        print(f"  new unary pairs: {diff.new_unary_pairs()}")
    if diff.new_affine_pairs():
        print(f"  new affine pairs: {diff.new_affine_pairs()}")
    if args.json:
        payload = {
            "base": algebra.name,
            "pair": list(red.pair),
            "max_arity": red.max_arity,
            "preserved_set": list(red.r_ab),
            "operations": [
                {"name": op.name, "arity": op.arity, "table": list(op.table),
                 "term": term.text()}
                for op, term in red.operations
            ],
            "changed_pairs": [
                {"pair": list(p), "before": sorted(o), "after": sorted(n)}
                for p, o, n in changed
            ],
        }
        _write_json(args.json, payload)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    all_ok = True
    for algebra in _load_algebras(args):
        print(f"verifying {algebra.name}:")
        rows = checks.verify_algebra(algebra, args.seed)
        for row in rows:
            print("  " + row.line())
        all_ok &= all(r.ok for r in rows)
    return EXIT_OK if all_ok else EXIT_VERIFICATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idemalg",
        description="Local structure analysis of finite idempotent algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "analyze": (cmd_analyze, "full analysis of one algebra"),
        "edges": (cmd_edges, "classify every pair"),
        "graph": (cmd_graph, "DOT export of the pair graph and hypergraph"),
        "thin": (cmd_thin, "DOT export of the thin graph"),
        "synth": (cmd_synth, "synthesize the unified operations f, g, h"),
        "reduct": (cmd_reduct, "bounded-arity reduct at an edge"),
        "verify": (cmd_verify, "run the invariant suites"),
    }
    for name, (fn, help_) in commands.items():
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=fn)
        p.add_argument("--fixture", action="append",
                       choices=sorted(FIXTURES), help="built-in algebra")
        p.add_argument("--file", action="append", help="algebra file")
        p.add_argument("--cap", type=positive_int, default=DEFAULT_LIMITS.cap,
                       help="node cap for closures")
        p.add_argument("--max-size", type=int, default=DEFAULT_LIMITS.max_size,
                       help="largest universe any analysis step accepts "
                            "without --force")
        p.add_argument("--force", action="store_true",
                       help="lift --max-size from every analysis step")
        p.add_argument("--json", help="write a machine-readable report")
        if name == "graph":
            p.add_argument("--dot", help="write the pair graph DOT here")
            p.add_argument("--hyper-dot", help="write the hypergraph DOT here")
        if name == "thin":
            p.add_argument("--dot", help="write the thin graph DOT here")
        if name == "reduct":
            p.add_argument("--pair", type=int, nargs=2,
                           help="edge pair (default: first usable edge)")
            p.add_argument("--arity", type=positive_int, default=DEFAULT_MAX_ARITY)
        if name == "verify":
            p.add_argument("--seed", type=int, default=0,
                           help="seed for randomized property checks")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        with request_scope(Limits(args.cap, None if args.force else args.max_size)):
            return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValidationError, TooLarge, OSError) as exc:   # OSError: a path given to read or write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except IdemalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except Exception as exc:   # a bug: neither bad input nor a failed verification
        where = traceback.extract_tb(exc.__traceback__)[-1]
        message = " ".join(str(exc).splitlines())
        print(f"error: internal error: {type(exc).__name__}: {message} "
              f"({os.path.basename(where.filename)}:{where.lineno})", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
