"""The benchmark's workloads: their inputs, made from the seed alone, and
the checks on their answers.

A workload is a list of requests.  A request is a call into idemalg; its
answer is reduced to a JSON-able summary after the timed pass, and the
summary is checked against expected values stored with the benchmark
(`expected.json`) or recomputed by the reference code in `reference.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from itertools import combinations, product

import reference

HERE = os.path.dirname(os.path.abspath(__file__))

# fixtures-verify verifies each fixture with this many verify seeds drawn
# from the run's seed.  The seeded tolerance checks make the cost of one
# verification depend on the seed (no-edge-factor: 1.4-2.1 s over ten
# seeds), and the percentiles sit on single requests, so with one seed per
# fixture the draw would decide them
VERIFY_SEEDS = 6

# reduct-clone takes the reduct of no-edge-factor at arity 2: at arity 3
# that one request (a 216-coordinate term-operation closure, then pair
# classification on its 283-operation reduct) takes about 40 s, longer than
# a run, so its time would rest on a single sample
REDUCT_ARITY = {"no-edge-factor": 2}

# node cap of every subpower-random closure
CAP = 2000

# subpower-random: every group draws one algebra of each class, as (size,
# two variants of operation arities, queries as (kind, coordinates, asked
# in every how many groups)); a semilattice query is made on every pair of
# every algebra.  Queries whose cost varies most between random
# algebras (majority, and binary closures on 5-6 coordinates of a 4-element
# algebra) are asked in fewer groups so that they do not set wall_s alone.
# Ternary member queries stop at 4 coordinates: on 5, one closure of up to
# 243 rows takes 0.3-2.3 s.
GROUPS = 30
CLASSES = (
    (3, ((2,), (2, 2)), (("majority", 6, 2), ("member", 4, 1), ("member", 5, 1),
                         ("member", 6, 2), ("absent", 5, 1))),
    (4, ((2,), (2, 2)), (("majority", 6, 3), ("member", 4, 1), ("member", 5, 6),
                         ("member", 6, 10), ("absent", 5, 1))),
    (3, ((3,), (2, 3)), (("member", 3, 1), ("member", 4, 1), ("member", 4, 1),
                         ("absent", 5, 1))),
    (4, ((3,), (2, 3)), (("member", 3, 1), ("member", 3, 1), ("absent", 3, 1))),
)


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """requests: (request id, zero-argument call) pairs in pass order."""

    def __init__(self, requests):
        self.requests = requests

    def input_problems(self) -> list[str]:
        return []

    def summarize(self, rid: str, raw):
        raise NotImplementedError

    def check(self, rid: str, summary) -> tuple[bool, bool, str]:
        """(correct, witness text changed, detail) for one summary."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# command-line workloads
# --------------------------------------------------------------------------


def _cli_call(cli, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()
    return call


def _ref_algebra(spec: dict) -> reference.Algebra:
    return reference.Algebra(spec["size"], {name: (arity, table)
                                            for name, arity, table in spec["operations"]})


class CliWorkload(Workload):
    """Requests are `idemalg` command lines run through `idemalg.cli.main`
    in this process; a summary is (exit code, stdout, stderr)."""

    def __init__(self, command: str, seed: int):
        import idemalg.cli as cli
        from idemalg.fixtures import fixture
        self.expected = load_expected()
        self.command = command
        names = sorted(self.expected["fixtures"])
        self.algebras = {name: fixture(name) for name in names}
        if command == "fixtures-verify":
            seeds = random.Random(f"fixtures-verify:{seed}").sample(range(1 << 20), VERIFY_SEEDS)
            argvs = [(f"verify:{name}:{s}", ["verify", "--seed", str(s), "--fixture", name])
                     for s in seeds for name in names]
            argvs += [(f"synth:{name}", ["synth", "--fixture", name]) for name in names]
        else:
            argvs = [(f"reduct:{name}", ["reduct", "--arity", str(REDUCT_ARITY.get(name, 3)),
                                         "--fixture", name]) for name in names]
        super().__init__([(rid, _cli_call(cli, argv)) for rid, argv in argvs])

    def input_problems(self) -> list[str]:
        out = []
        for name, alg in self.algebras.items():
            spec = self.expected["fixtures"][name]
            ops = [[op.name, op.arity, [int(v) for v in op.table]]
                   for op in alg.operations]
            if alg.size != spec["size"] or ops != spec["operations"]:
                out.append(f"fixture {name} differs from the stored tables")
        return out

    def summarize(self, rid: str, raw):
        return list(raw)

    def check(self, rid: str, summary) -> tuple[bool, bool, str]:
        cmd, name = rid.split(":")[:2]
        want = self.expected[cmd][name]
        code, out, err = summary
        if code != want["exit"]:
            return False, False, f"{rid}: exit {code}, expected {want['exit']}: {err.strip()}"
        lines = out.splitlines()
        if cmd != "synth":
            ok = lines == want["lines"]
            return ok, False, "" if ok else f"{rid}: output differs from expected"
        return self._check_synth(rid, name, lines, want)

    def _check_synth(self, rid, name, lines, want) -> tuple[bool, bool, str]:
        """Verification rows must match; term text may change, but every
        printed table must be what the printed term evaluates to."""
        try:
            verification = lines[lines.index("verification:") + 1:]
            terms = {line[0]: line[4:] for line in lines[:3]}
            tables = {}
            current = None
            for line in lines[3:lines.index("verification:")]:
                if line.startswith("tables on "):
                    current = tables.setdefault(line[len("tables on "):-1], {})
                else:
                    op, values = line.strip().split(":")
                    current[op] = [int(v) for v in values.split()]
        except (ValueError, KeyError, TypeError, IndexError):
            return False, False, f"{rid}: unparsable synth output"
        if verification != want["verification"]:
            return False, False, f"{rid}: verification rows differ"
        if set(tables) != {name}:
            return False, False, f"{rid}: tables printed for {sorted(tables)}"
        alg = _ref_algebra(self.expected["fixtures"][name])
        arity = {"f": 2, "g": 3, "h": 3}
        for op, text in terms.items():
            try:
                value = reference.term_table(text, alg, arity[op])
            except (ValueError, KeyError) as exc:
                return False, False, f"{rid}: term {op} does not evaluate: {exc}"
            if value != tables[name].get(op):
                return False, False, f"{rid}: printed table of {op} is not its term's"
        changed = terms != want["terms"] or tables[name] != want["tables"]
        return True, changed, ""


# --------------------------------------------------------------------------
# subpower-random
# --------------------------------------------------------------------------


def _random_algebra(rng: random.Random, size: int, arities) -> list:
    ops = []
    for j, arity in enumerate(arities):
        table = [args[0] if len(set(args)) == 1 else rng.randrange(size)
                 for args in product(range(size), repeat=arity)]
        ops.append((f"o{j}", arity, table))
    return ops


def _member_query(rng, size, k):
    """Two generators whose k coordinates are distinct non-constant
    columns, and a random target."""
    columns = rng.sample([c for c in product(range(size), repeat=2) if c[0] != c[1]], k)
    gens = tuple(tuple(c[i] for c in columns) for i in range(2))
    return gens, tuple(rng.randrange(size) for _ in range(k))


def _absence_probe(rng, size, k):
    """Coordinate k-1 repeats another column while the target differs
    there; closures keep equal coordinates equal, so the target is absent."""
    gens, target = _member_query(rng, size, k - 1)
    j = rng.randrange(k - 1)
    gens = tuple(g + (g[j],) for g in gens)
    return gens, target + ((target[j] + 1 + rng.randrange(size - 1)) % size,)


class SubpowerWorkload(Workload):
    """Subpower membership and pair-witness searches on seeded random
    idempotent algebras, called through the library."""

    def __init__(self, seed: int):
        from idemalg.algebra import validate_algebra
        from idemalg import generate
        self.generate = generate
        rng = random.Random(f"subpower-random:{seed}")
        self.queries = {}     # request id -> (kind, reference algebra, data)
        requests = []

        def add(rid, kind, alg, data, call):
            self.queries[rid] = (kind, alg, data)
            requests.append((rid, call))

        def algebra(size, arities, name):
            ops = _random_algebra(rng, size, arities)
            return (validate_algebra(name, size, ops),
                    reference.Algebra(size, {nm: (ar, t) for nm, ar, t in ops}))

        # apart from the semilattice queries, every query gets an algebra of
        # its own, so that one rich or poor random algebra does not make
        # several requests heavy or light
        for g in range(GROUPS):
            for ci, (size, variants, queries) in enumerate(CLASSES):
                tag = f"{g}.{ci}"
                alg, ref = algebra(size, variants[g % 2], f"r{tag}.sl")
                for a, b in combinations(range(size), 2):
                    add(f"sl{a}{b}:{tag}", "semilattice", ref, (a, b),
                        lambda alg=alg, a=a, b=b: generate.find_pair_witness(
                            alg, generate.SEMILATTICE, a, b, CAP))
                for qi, (kind, k, every) in enumerate(queries):
                    if g % every:
                        continue
                    # alternate the variants over the groups that ask
                    alg, ref = algebra(size, variants[g // every % 2], f"r{tag}.{qi}")
                    rid = f"{kind}{k}.{qi}:{tag}"
                    if kind == "majority":
                        a, b = rng.sample(range(size), 2)
                        add(rid, kind, ref, (a, b),
                            lambda alg=alg, a=a, b=b: generate.find_pair_witness(
                                alg, generate.MAJORITY, a, b, CAP))
                        continue
                    make = _member_query if kind == "member" else _absence_probe
                    gens, target = make(rng, size, k)
                    query = generate.SubpowerQuery((alg,) * k, gens, target, CAP)
                    add(rid, "subpower", ref, (gens, target),
                        lambda query=query: generate.subpower_membership(query))
        super().__init__(requests)

    def summarize(self, rid: str, raw):
        g = self.generate
        if isinstance(raw, g.PairWitness):
            return ["found", raw.closure_size, raw.term.text(), raw.absorber]
        if isinstance(raw, g.Found):
            return ["found", raw.closure_size, raw.witness.text(), None]
        if isinstance(raw, g.Absent):
            return ["absent", raw.closure_size]
        if isinstance(raw, g.CapExceeded):
            return ["cap_exceeded", raw.cap]
        return ["unexpected", repr(raw)]

    def check(self, rid: str, summary) -> tuple[bool, bool, str]:
        kind, alg, data = self.queries[rid]
        if kind == "semilattice":
            a, b = data
            points = [(a, b), (b, a)]
            gens = [(a, b), (b, a)]
            targets = [(a, a), (b, b)]
        elif kind == "majority":
            a, b = data
            points = [t for t in product((a, b), repeat=3) if len(set(t)) > 1]
            gens = [tuple(t[i] for t in points) for i in range(3)]
            targets = [tuple(max(set(t), key=t.count) for t in points)]
        else:
            gens, target = data
            points = [tuple(g[c] for g in gens) for c in range(len(target))]
            targets = [target]
        answer = summary[0]
        if answer == "found":
            _, size, text, absorber = summary
            try:
                values = tuple(reference.term_values(text, alg, points))
            except (ValueError, KeyError) as exc:
                return False, False, f"{rid}: witness does not evaluate: {exc}"
            if kind == "semilattice":
                ok = absorber in (a, b) and values == (absorber, absorber)
            else:
                ok = values == targets[0]
            return ok, False, "" if ok else f"{rid}: witness misses the target"
        if answer not in ("absent", "cap_exceeded"):
            return False, False, f"{rid}: unexpected answer {summary}"
        rows, complete = reference.closure(alg, list(gens), CAP)
        if answer == "cap_exceeded":
            ok = not complete
        else:
            ok = complete and len(rows) == summary[1] and \
                not any(t in rows for t in targets)
        return ok, False, "" if ok else \
            f"{rid}: {answer} but the reference closure has {len(rows)} rows " \
            f"({'complete' if complete else 'over the cap'})"


def build(name: str, seed: int) -> Workload:
    if name in ("fixtures-verify", "reduct-clone"):
        return CliWorkload(name, seed)
    if name == "subpower-random":
        return SubpowerWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fixtures-verify", "reduct-clone", "subpower-random")
