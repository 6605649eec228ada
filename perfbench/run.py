#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark program from the checkout's sources (CMake, Release,
into .bench_build/perfbench), runs it from the checkout root, checks its
result line against the metrics BENCHMARK.json lists for the mode (the
only list of them), and prints the program's output with the result line
completed. Exits non-zero, without a result line, when the sources are
missing, the build fails, the program fails or times out, or the result
does not match BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
# Relative to ROOT, so the unix socket path stays short wherever the
# checkout lives.
WORK_DIR = os.path.join(".bench_build", "perfbench-run")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not (ROOT / needed).exists():
            raise BenchError(f"{ROOT / needed} is missing; run from a full checkout")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return BUILD_DIR / "perfbench"


def run_program(exe, args):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK_DIR]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} exited with code {proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def complete_result(result, spec, trace):
    """Returns the result with its metrics in BENCHMARK.json's order for the
    mode. A metric the program reports must be listed there with the same
    unit. Every end-to-end metric must be reported, positive and finite; a
    per-layer metric the workload does not run is filled with 0."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"result keys {sorted(result)}")
    if result["attempted"] < 1:
        raise BenchError("no operation attempted")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    got = result["metrics"]
    for name, m in got.items():
        if units.get(name) != m["unit"]:
            raise BenchError(f"metric {name} [{m['unit']}] is not listed in BENCHMARK.json")
    metrics = {}
    for name, unit in units.items():
        if name in got:
            metrics[name] = got[name]
        elif trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            raise BenchError(f"end-to-end metric {name} is missing")
        value = metrics[name]["value"]
        if not math.isfinite(value) or (not trace and value <= 0):
            raise BenchError(f"metric {name} = {value}")
    return dict(result, metrics=metrics)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload}")
        exe = build()
        notes, result = run_program(exe, args)
        result = complete_result(result, spec, args.trace == 1)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(str(e))
        return 1
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
