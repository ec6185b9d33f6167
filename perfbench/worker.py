"""One workload in a fresh process: set up, run closed-loop passes, check
every answer, and print one JSON result line.

    python3 perfbench/worker.py --workload NAME --seed S --seconds T --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed S --setup-only

`run.py` starts this with `src` on PYTHONPATH; the timings it prints are
raw (every pass wall, every request latency, every probe) and run.py
reduces them.
"""

import time

_T0 = time.perf_counter()   # set-up time counts from here: before idemalg loads

import argparse
import json
import resource
import sys
import traceback

import workloads


class Raised:
    """The answer of a request that raised an exception."""

    def __init__(self, text: str):
        self.text = text


PROBE_LOOPS = 13000
SETUP_PROBE_RUNS = 25   # after set-up, in a --setup-only process


def probe() -> float:
    """Time of a fixed piece of pure-Python work, about a millisecond: how
    fast the machine runs this process just now."""
    t = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t


def run_pass(workload, tracer=None) -> tuple[float, list[float], list, list[float]]:
    """One closed-loop pass: each request is sent when the previous one has
    answered.  A probe runs before each request and after the last, outside
    the request's timing.  Answers are summarized after the pass, outside
    the timing."""
    latencies, raws, probes = [], [], []
    for rid, call in workload.requests:
        if tracer is not None:
            tracer.request = rid
        probes.append(probe())
        t = time.perf_counter()
        try:
            raw = call()
        except Exception:
            raw = Raised(traceback.format_exc(limit=3))
        latencies.append(time.perf_counter() - t)
        raws.append(raw)
    probes.append(probe())
    wall = sum(latencies)
    summaries = []
    for (rid, _), raw in zip(workload.requests, raws):
        if not isinstance(raw, Raised):
            try:
                summaries.append(workload.summarize(rid, raw))
                continue
            except Exception:     # printing the answer failed: the request did
                raw = Raised(traceback.format_exc(limit=3))
        summaries.append(["exception", raw.text])
    return wall, latencies, summaries, probes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced pass's spans here")
    args = ap.parse_args()

    workload = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    import idemalg
    result = {"setup_s": setup_s, "idemalg_file": idemalg.__file__}
    if args.setup_only:
        result["probes"] = [probe() for _ in range(SETUP_PROBE_RUNS)]
        print(json.dumps(result))
        return 0

    problems = workload.input_problems()
    passes = []
    start = time.perf_counter()
    if args.trace:
        # untraced, traced, untraced: the first pass warms up, the overhead
        # compares the traced pass with the last one
        import tracer as tracing
        passes.append(run_pass(workload))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            passes.append(run_pass(workload, tracer))
        finally:
            tracer.uninstall()
        passes.append(run_pass(workload))
    else:
        # whole passes while another one, as long as the slowest so far,
        # still ends within --seconds; at least one
        while not passes or (time.perf_counter() - start + max(p[0] for p in passes)
                             <= args.seconds):
            passes.append(run_pass(workload))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # the first pass is checked against expected values and the reference
    # code; every later pass (the traced one too) must repeat it exactly.
    # Each attempt of a request with a wrong answer counts as failed.
    first = passes[0][2]
    correct = []
    witness_changed = 0
    details = list(problems)
    for (rid, _), summary in zip(workload.requests, first):
        if summary[0] == "exception":
            ok, changed, detail = False, False, f"{rid}: {summary[1]}"
        else:
            ok, changed, detail = workload.check(rid, summary)
        correct.append(ok)
        witness_changed += changed
        if detail:
            details.append(detail)
    failed = 0
    for _, _, summaries, _ in passes:
        for (rid, _), ok, want, got in zip(workload.requests, correct, first, summaries):
            if got != want:
                details.append(f"{rid}: answer differs between passes")
            failed += not ok or got != want
    kinds: dict[str, int] = {}
    for summary in first:
        kinds[str(summary[0])] = kinds.get(str(summary[0]), 0) + 1

    result.update({
        "walls": [p[0] for p in passes],
        "latencies": [x for p in passes for x in p[1]],
        "probes": [p[3] for p in passes],
        "attempted": sum(len(p[1]) for p in passes),
        "failed": failed + (len(problems) > 0),
        "witness_text_changed": witness_changed,
        "answer_kinds": kinds,
        "peak_rss_mb": peak_rss_mb,
        "details": details[:20],
    })
    if args.trace:
        result["trace"] = tracer.summary()
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
