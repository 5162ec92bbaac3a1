"""Steadiness check: run workloads repeatedly, one seed per run, and
report median, quartiles and spread (interquartile range over median)
of every end-to-end metric, plus the failed share of operations.

    python3 perfbench/steady.py --runs 10

Every workload in BENCHMARK.json runs with seeds 1..runs and its
run_seconds, sequentially, one workload process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main() -> int:
    bench = spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in [w["name"] for w in bench["workloads"]]:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add(Fraction(result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (k, m["value"]) for k, m in result["metrics"].items())),
                flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / bounds[name])
            print("  %-16s %-20s median %.4f  q1 %.4f  q3 %.4f  spread %.3f  bound %.2f"
                  % (workload, name, med, q1, q3, spread, bounds[name]), flush=True)
        print("  %-16s failed shares seen: %s" % (workload, sorted(map(str, shares))),
              flush=True)
    print("largest spread as a share of its bound: %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
