"""Outside-in tracer: spans around the public functions of each idemalg
layer, installed from the benchmark's own files.

Every module of the package that holds a reference to a traced function
gets the wrapper (``checks.structure_graph`` as well as
``edges.structure_graph``), so calls through any import path are seen.  A
name that no longer exists is reported as a missing metric; nothing here
fails when the package is refactored.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute) pairs it wraps; a span is missing only
# when none of its attributes exists
SPANS: dict[str, list[tuple[str, str]]] = {
    "algebra.restrict": [("idemalg.algebra", "restrict")],
    "algebra.quotient": [("idemalg.algebra", "quotient")],
    "algebra.product_algebra": [("idemalg.algebra", "product_algebra")],
    "generate.generate_subalgebra": [("idemalg.generate", "generate_subalgebra")],
    "generate.all_subalgebras": [("idemalg.generate", "all_subalgebras")],
    "generate.term_operations": [("idemalg.generate", "term_operations")],
    "congruence.cg": [("idemalg.congruence", "cg")],
    "congruence.congruence_lattice": [("idemalg.congruence", "congruence_lattice")],
    "congruence.is_abelian": [("idemalg.congruence", "is_abelian")],
    "congruence.tolerance": [("idemalg.congruence", "tolerance_generated"),
                             ("idemalg.congruence", "tolerance_ops"),
                             ("idemalg.congruence", "link_tolerance")],
    "edges.classify_pair": [("idemalg.edges", "classify_pair")],
    "edges.structure_graph": [("idemalg.edges", "structure_graph")],
    "edges.x_connected": [("idemalg.edges", "x_connected")],
    "edges.hypergraph": [("idemalg.edges", "hypergraph")],
    "synthesis.uniform_ops": [("idemalg.synthesis", "uniform_ops")],
    "synthesis.normalize_identities": [("idemalg.synthesis", "normalize_identities")],
    "terms.evaluate": [("idemalg.terms", "evaluate")],
    "terms.realize_table": [("idemalg.terms", "realize_table")],
    "thin.thin_graph": [("idemalg.thin", "thin_graph")],
    "reduct.bounded_reduct": [("idemalg.reduct", "bounded_reduct")],
    "reduct.reduct_edge_report": [("idemalg.reduct", "reduct_edge_report")],
    "checks.generation": [("idemalg.checks", "check_generation")],
    "checks.hypergraph": [("idemalg.checks", "check_hypergraph")],
    "checks.connectedness": [("idemalg.checks", "check_connectedness")],
    "checks.tolerance_classes": [("idemalg.checks", "check_tolerance_classes")],
    "checks.many_edges": [("idemalg.checks", "check_many_edges")],
    "checks.edge_subalgebra": [("idemalg.checks", "check_edge_subalgebra")],
    "checks.edge_factor": [("idemalg.checks", "check_edge_factor")],
    "checks.majority_requires_no_semilattice": [
        ("idemalg.checks", "check_majority_requires_no_semilattice")],
    "checks.synthesis": [("idemalg.checks", "check_synthesis")],
    "cli": [("idemalg.cli", "main")],
}

# closures are traced through the TupleClosure constructor, which runs
# them; more than this many coordinates is the wide path
CLOSURE = ("idemalg.generate", "TupleClosure")
NARROW_MAX_COLUMNS = 7
CLOSURE_SPANS = ("generate.closure.narrow", "generate.closure.wide")

# span name -> integer arguments after the algebra that, with its
# operation tables, make one distinct input
DISTINCT = {
    "edges.classify_pair": 2,
    "edges.structure_graph": 0,
    "congruence.congruence_lattice": 0,
}


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "idemalg" or name.startswith("idemalg."))]


class Tracer:
    """Span and counter store.  A span is [name, start, end, parent index,
    request id]; a request's spans share its id."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.missing: set[str] = set()
        self._open: list[int] = []
        self._undo: list = []
        self._keys: dict[int, tuple] = {}

    # -- spans --

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def self_times(self) -> Counter:
        """Span duration minus the time its child spans cover, summed by
        name.  Spans nest, so children never overlap."""
        child: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def _input_key(self, args: tuple, extra: int) -> tuple:
        """Operation names and tables of the algebra argument, plus `extra`
        further arguments: equal keys make every layer do the same work.
        Keys are memoized by identity; the held algebra keeps its id from
        being reused."""
        algebra = args[0]
        hit = self._keys.get(id(algebra))
        if hit is None or hit[0] is not algebra:
            key = (algebra.size,) + tuple(
                (op.name, op.arity, tuple(int(v) for v in op.table))
                for op in algebra.operations)
            hit = self._keys[id(algebra)] = (algebra, key)
        return (hit[1],) + tuple(args[1:1 + extra])

    # -- installation --

    def install(self) -> None:
        for module in {m for targets in SPANS.values() for m, _ in targets} | {CLOSURE[0]}:
            _module(module)
        namespaces = _namespaces()
        for name, targets in SPANS.items():
            found = False
            for module, attr in targets:
                orig = getattr(_module(module), attr, None)
                if orig is None:
                    continue
                found = True
                wrapper = self._wrap(name, orig)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, key, wrapper)
                            self._undo.append((ns, key, orig))
            if not found:
                self.missing.add(name)
        cls = getattr(_module(CLOSURE[0]), CLOSURE[1], None)
        if cls is None:
            self.missing.update(CLOSURE_SPANS)
        else:
            orig_init = cls.__init__
            cls.__init__ = self._wrap_closure(orig_init)
            self._undo.append((cls, "__init__", orig_init))

    def uninstall(self) -> None:
        for ns, key, orig in reversed(self._undo):
            setattr(ns, key, orig)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        extra = DISTINCT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            if extra is not None:
                tracer.distinct[name].add(
                    tracer._input_key(args + tuple(kwargs.values()), extra))
            index = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        return traced

    def _wrap_closure(self, init):
        tracer = self

        @functools.wraps(init)
        def traced_init(closure, columns, *args, **kwargs):
            name = CLOSURE_SPANS[len(columns) > NARROW_MAX_COLUMNS]
            tracer.counts[name + ".calls"] += 1
            index = tracer.begin(name)
            try:
                init(closure, columns, *args, **kwargs)
            finally:
                tracer.end(index)
            tracer.counts[name + ".rows"] += len(closure)
            if not closure.complete:
                tracer.counts["generate.closure.cap_hits"] += 1

        return traced_init

    # -- results --

    def summary(self) -> dict:
        return {"counts": dict(self.counts),
                "distinct": {k: len(v) for k, v in self.distinct.items()},
                "self_s": dict(self.self_times()),
                "missing": sorted(self.missing),
                "spans": len(self.spans)}

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
