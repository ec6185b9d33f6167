"""The idemalg benchmark.

    python3 perfbench/run.py --workload NAME|all --seed S --seconds T --trace 0|1

Run from the root of a source checkout.  The workload runs in a fresh
process (worker.py) with the checkout's `src` on PYTHONPATH, one thread
per numeric library, a fixed hash seed and a fixed malloc mmap threshold;
set-up time is the median of further fresh processes that only set up.
With --trace 0 the last line of stdout carries the end-to-end metrics of
BENCHMARK.json, their times scaled by a speed probe run between requests
(README.md, "Noise"); with --trace 1 the per-layer metrics from a traced
pass.  Lines before it give the times as measured, say where the numbers
came from and why any answer failed.  `--workload all` runs every
workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_PROBES = 7
BUDGET_S = 170    # every worker of one run together
PERCENTILES = {"req_p50_ms": 0.5, "req_p90_ms": 0.9}
# the gated times are scaled to the speed at which worker.probe takes this
# long; see README.md, "Noise"
PROBE_REF_S = 1e-3


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # glibc raises its mmap threshold after large frees, so peak RSS would
    # follow the allocation history of numpy arrays rather than the memory
    # in use; pin the threshold at glibc's initial value
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and parse its last stdout line."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                          cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks, so q = 0.5 is the
    median of an even sample too."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def scaled(latencies: list[float], probes: list[list[float]]) -> list[float]:
    """Every latency scaled to the speed at which the probe takes
    PROBE_REF_S, by the median of the six probes nearest the request."""
    out = []
    per_pass = len(latencies) // len(probes)
    for p, times in enumerate(probes):
        for j in range(per_pass):
            near = statistics.median(times[max(0, j - 2):j + 4])
            out.append(latencies[p * per_pass + j] * PROBE_REF_S / near)
    return out


def reduce_times(latencies: list[float], passes: int) -> dict:
    """wall_s, req_p50_ms and req_p90_ms of a run's request latencies, given
    pass after pass with the same requests in the same order."""
    per_pass = len(latencies) // passes
    walls = [sum(latencies[p * per_pass:(p + 1) * per_pass]) for p in range(passes)]
    # a request's latency is its median over the run's passes
    request_ms = [statistics.median(latencies[i::per_pass]) * 1e3 for i in range(per_pass)]
    return {"wall_s": statistics.median(walls),
            **{name: percentile(request_ms, q) for name, q in PERCENTILES.items()}}


def provenance(seed: int) -> dict:
    """Where the numbers came from: source revision, versions, CPUs."""
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "idemalg")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"git_rev": rev, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "seed": seed}


def layer_value(name: str, trace: dict, result: dict):
    """One per-layer metric, or None when the traced name is missing."""
    kinds = result["answer_kinds"]
    special = {
        "trace.overhead_frac": lambda: result["walls"][1] / result["walls"][2] - 1,
        "answers.found": lambda: kinds.get("found", 0),
        "answers.absent": lambda: kinds.get("absent", 0),
        "answers.cap_exceeded": lambda: kinds.get("cap_exceeded", 0),
        "answers.witness_text_changed": lambda: result["witness_text_changed"],
    }
    if name in special:
        return special[name]()
    base, _, field = name.rpartition(".")
    if name == "generate.closure.cap_hits":
        base = "generate.closure.narrow"
    if base in trace["missing"]:
        return None
    if field == "self_s":
        return trace["self_s"].get(base, 0.0)
    if field == "distinct":
        return trace["distinct"].get(base, 0)
    return trace["counts"].get(name, 0)


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload, print where its numbers came from, and return its
    result line."""
    deadline = time.monotonic() + BUDGET_S
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    common = ["--workload", workload, "--seed", str(seed)]

    worker_args = common + ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        worker_args += ["--spans", os.path.join(OUT, f"{tag}.spans.jsonl")]
    result = run_worker(worker_args, deadline)
    expected_file = os.path.join(ROOT, "src", "idemalg", "__init__.py")
    if os.path.realpath(result["idemalg_file"]) != os.path.realpath(expected_file):
        raise SystemExit(f"imported idemalg from {result['idemalg_file']}, not the checkout")

    record = {"workload": workload, **provenance(seed),
              "attempted": result["attempted"], "failed": result["failed"],
              "failed_frac": result["failed"] / result["attempted"],
              "witness_text_changed": result["witness_text_changed"],
              "answer_kinds": result["answer_kinds"], "passes": len(result["walls"]),
              "details": result["details"]}
    metrics = {}
    if trace:
        record["spans"] = result["trace"]["spans"]
        for m in spec["per_layer"]:
            value = layer_value(m["name"], result["trace"], result)
            metrics[m["name"]] = {"value": value if value is not None else 0,
                                  "unit": m["unit"]}
            if value is None:
                metrics[m["name"]]["missing"] = True
    else:
        setups = [run_worker(common + ["--setup-only"], deadline)
                  for _ in range(SETUP_PROBES)]
        passes = len(result["walls"])
        values = reduce_times(scaled(result["latencies"], result["probes"]), passes)
        values["setup_s"] = statistics.median(
            s["setup_s"] * PROBE_REF_S / statistics.median(s["probes"]) for s in setups)
        values["peak_rss_mb"] = result["peak_rss_mb"]
        record["measured"] = {**reduce_times(result["latencies"], passes),
                              "setup_s": statistics.median(s["setup_s"] for s in setups)}
        record["probe_ms"] = statistics.median(
            x for probes in result["probes"] for x in probes) * 1e3
        record["latency_samples"] = len(result["latencies"]) // passes
        record["setup_probes_s"] = [s["setup_s"] for s in setups]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    record["metrics"] = metrics
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for key in ("workload", "seed", "git_rev", "src_sha256", "python", "numpy", "nproc",
                "passes", "attempted", "failed", "failed_frac", "witness_text_changed",
                "answer_kinds", "latency_samples", "probe_ms", "measured", "spans"):
        if key in record:
            print(f"{key}: {record[key]}")
    for detail in record["details"]:
        print(f"failure: {detail}")
    for name, m in metrics.items():
        note = " (missing)" if m.get("missing") else ""
        if name in PERCENTILES:
            note = (f" ({record['latency_samples']} requests, each the median of "
                    f"{record['passes']} passes)")
        print(f"{name}: {m['value']:.6g} {m['unit']}{note}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "idemalg", "__init__.py")):
        sys.stderr.write("no src/idemalg here: run from the root of an idemalg checkout\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        sys.stderr.write(f"unknown workload {args.workload}\n")
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(spec, args.workload, args.seed, args.seconds, args.trace)))
        return 0
    # every workload in turn, each in its own fresh process; the last line
    # keys the metrics by workload
    lines = {}
    for name in names:
        lines[name] = run_workload(spec, name, args.seed, args.seconds, args.trace)
        print()
    print(json.dumps({"correct": all(r["correct"] for r in lines.values()),
                      "attempted": sum(r["attempted"] for r in lines.values()),
                      "failed": sum(r["failed"] for r in lines.values()),
                      "metrics": {f"{name}/{m}": v for name, r in lines.items()
                                  for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
