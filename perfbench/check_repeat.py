"""Check that the traced counts repeat exactly.

    python3 perfbench/check_repeat.py --workload NAME --seed S

Runs the traced benchmark twice with the same seed and compares every
count metric (calls, distinct inputs, closure rows, cap hits, answer
kinds).  Exits 1 when any differs or either run has a failed request.
"""

import argparse
import json
import os
import subprocess
import sys

COUNT_SUFFIXES = (".calls", ".distinct", ".rows", ".cap_hits")


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
                          "--workload", workload, "--seed", str(seed), "--seconds", "1",
                          "--trace", "1"], capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    first, second = (traced_run(args.workload, args.seed) for _ in range(2))
    counts = [name for name in first["metrics"]
              if name.endswith(COUNT_SUFFIXES) or name.startswith("answers.")]
    bad = [name for name in counts
           if first["metrics"][name]["value"] != second["metrics"][name]["value"]]
    for name in bad:
        print(f"differs: {name}: {first['metrics'][name]['value']} vs "
              f"{second['metrics'][name]['value']}")
    ok = not bad and first["correct"] and second["correct"]
    print(f"{args.workload} seed {args.seed}: {len(counts)} counts "
          f"{'repeat' if not bad else 'differ'}; "
          f"failed requests {first['failed']} and {second['failed']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
