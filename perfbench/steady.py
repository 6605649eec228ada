#!/usr/bin/env python3
"""Steadiness check: runs every workload N times, with seeds 1..N and
BENCHMARK.json's run_seconds, and prints, for every end-to-end metric, the
median, quartiles, min, max and the quartile spread as a share of the
median, next to the metric's bound.

    python3 perfbench/steady.py [--runs 10]

Quartiles are statistics.quantiles(values, n=4). A spread above a third of
the bound is flagged "wide", above the bound "OVER". Exits non-zero when a
run fails or reports failed operations.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, seconds)
            results.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())),
                  flush=True)
            ok = ok and result["correct"] and result["failed"] == 0
        print(f"\n{workload}: {args.runs} runs of {seconds} s")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12}"
              f" {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            flag = "OVER" if spread > bound else ("wide" if spread > bound / 3 else "")
            print(f"  {name:<18} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} {min(values):>12.6g}"
                  f" {max(values):>12.6g} {spread:>8.4f} {bound:>6} {flag}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
