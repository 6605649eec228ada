#!/usr/bin/env python3
"""Compare two Google Benchmark JSON files and flag regressions.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold 0.10] [--warn-only]
                     [--fail-on NAME_REGEX:METRIC:REL]...

Reads the JSON emitted by the bench_* binaries (see bench/bench_json.hpp) and
compares every benchmark present in both files, metric by metric:

  lower is better:  real_time, ns_per_* counters, *_us latency percentiles
  higher is better: GFLOPS, items_per_second, bytes_per_second, *_per_s

A metric regresses when it moves more than --threshold (default 10%) in the
bad direction relative to the baseline. Regressions print one line each; the
exit code is 1 if any were found, unless --warn-only is given, in which case
they print as GitHub ::warning:: annotations and the exit code stays 0 (the
mode CI uses: shared runners are not the baseline host, so a hard gate on
absolute numbers would flake).

Rows that only one file has, and rows that errored or were skipped (e.g. the
avx512 backend on a machine without VNNI), are reported as info and never
count as regressions. Aggregate rows (_mean/_median/_stddev/_cv from
--benchmark_repetitions) are ignored so a repetition run can be compared
against a plain one.

--fail-on NAME_REGEX:METRIC:REL (repeatable) adds a HARD gate on top: rows
whose name matches NAME_REGEX are checked on METRIC with the relative
threshold REL, and a violation exits 1 even under --warn-only. This is how
CI promotes a specific row/metric pair from advisory to enforced (e.g.
--fail-on 'bench_serve_batched/.*:p50_us:0.25') while everything else stays
warn-only on shared runners.

--assert-ratio / --warn-ratio NUM_NAME:DEN_NAME:METRIC:MIN (repeatable) gate
a ratio of two rows WITHIN the current file: current[NUM].METRIC /
current[DEN].METRIC must be >= MIN. Unlike the baseline comparison this is
host-relative — both rows ran on the same machine in the same process — so it
is stable on shared runners and suited to hard speedup contracts (e.g. the
planned FFT must beat the legacy radix-2 it replaced:
--assert-ratio 'bench_fft_legacy_radix2/1024/1:bench_fft_rfft_planned/1024/1:real_time:1.5').
A violated --assert-ratio exits 1 even under --warn-only; --warn-ratio prints
a ::warning:: annotation instead. A gate whose rows are missing or skipped
(e.g. the avx2 rows on a scalar-only host) reports a note and does not fail.

--normalize-by ROW makes the advisory comparison host-relative: every row's
metrics are divided by the same metrics of ROW from the same file (baseline
rows by the baseline's ROW, current rows by the current file's ROW) before
they are compared, so a host that runs everything slower or faster than the
baseline host flags nothing, while a row that moved against ROW still
does. Metrics ROW lacks are left out of the comparison. Its regressions only
ever warn; --fail-on and the ratio gates keep reading the absolute values.
"""

import argparse
import json
import re
import sys


def load_rows(path):
    """Return {name: benchmark-dict} for comparable rows of one JSON file."""
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    skipped = []
    for b in doc.get("benchmarks", []):
        if b.get("aggregate_name"):
            continue
        if b.get("error_occurred"):
            skipped.append(b["name"])
            continue
        rows[b["name"]] = b
    return rows, skipped, doc.get("context", {})


def metric_direction(key):
    """'down' if lower is better, 'up' if higher is better, None to ignore."""
    if key in ("real_time", "cpu_time") or key.startswith("ns_per_") or key.endswith("_us"):
        return "down"
    if key in ("GFLOPS", "items_per_second", "bytes_per_second") or key.endswith("_per_s"):
        return "up"
    return None  # iterations, axis echoes (workers/precision/avx2), etc.


def compare(base, cur, threshold):
    """Yield (name, metric, base_value, cur_value, rel_change) regressions."""
    for name in sorted(base.keys() & cur.keys()):
        for key, bval in base[name].items():
            direction = metric_direction(key)
            if direction is None or not isinstance(bval, (int, float)) or bval <= 0:
                continue
            cval = cur[name].get(key)
            if not isinstance(cval, (int, float)):
                continue
            rel = (cval - bval) / bval
            if (direction == "down" and rel > threshold) or (
                direction == "up" and rel < -threshold
            ):
                yield name, key, bval, cval, rel


def normalize(rows, ref_name):
    """Rows divided, metric by metric, by row ref_name of the same file;
    metrics the reference lacks (or holds as <= 0) are dropped."""
    ref = rows[ref_name]
    out = {}
    for name, row in rows.items():
        out[name] = {
            key: val / ref[key]
            for key, val in row.items()
            if isinstance(val, (int, float))
            and isinstance(ref.get(key), (int, float))
            and ref[key] > 0
        }
    return out


def parse_fail_on(spec):
    """'NAME_REGEX:METRIC:REL' -> (compiled_regex, metric, rel_threshold)."""
    try:
        pattern, metric, rel = spec.rsplit(":", 2)
        return re.compile(pattern), metric, float(rel)
    except (ValueError, re.error) as e:
        raise SystemExit(f"bad --fail-on spec {spec!r}: {e}")


def hard_failures(base, cur, gates):
    """Yield (name, metric, base_value, cur_value, rel, rel_threshold) for
    rows matching a --fail-on gate that regressed beyond its threshold."""
    for regex, metric, rel_threshold in gates:
        for name in sorted(base.keys() & cur.keys()):
            if not regex.fullmatch(name) and not regex.match(name):
                continue
            bval = base[name].get(metric)
            cval = cur[name].get(metric)
            if not isinstance(bval, (int, float)) or bval <= 0:
                continue
            if not isinstance(cval, (int, float)):
                continue
            direction = metric_direction(metric) or "down"
            rel = (cval - bval) / bval
            if (direction == "down" and rel > rel_threshold) or (
                direction == "up" and rel < -rel_threshold
            ):
                yield name, metric, bval, cval, rel, rel_threshold


def parse_ratio_gate(spec):
    """'NUM_NAME:DEN_NAME:METRIC:MIN' -> (num_name, den_name, metric, min_ratio)."""
    try:
        num, den, metric, minimum = spec.split(":")
        return num, den, metric, float(minimum)
    except ValueError as e:
        raise SystemExit(f"bad ratio gate spec {spec!r}: {e}")


def ratio_gate_results(cur, gates):
    """Yield (num, den, metric, min_ratio, ratio-or-None) per gate; ratio is
    None when either row/metric is missing (reported, never a failure)."""
    for num, den, metric, min_ratio in gates:
        nval = cur.get(num, {}).get(metric)
        dval = cur.get(den, {}).get(metric)
        if (
            not isinstance(nval, (int, float))
            or not isinstance(dval, (int, float))
            or dval <= 0
        ):
            yield num, den, metric, min_ratio, None
            continue
        yield num, den, metric, min_ratio, nval / dval


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="baseline BENCH_*.json")
    ap.add_argument("current", help="current BENCH_*.json")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="relative change that counts as a regression (default 0.10)",
    )
    ap.add_argument(
        "--warn-only",
        action="store_true",
        help="print ::warning:: annotations and exit 0 even on regressions",
    )
    ap.add_argument(
        "--fail-on",
        action="append",
        default=[],
        metavar="NAME_REGEX:METRIC:REL",
        help="hard gate: rows matching NAME_REGEX regressing beyond REL on "
        "METRIC exit 1 even under --warn-only (repeatable)",
    )
    ap.add_argument(
        "--assert-ratio",
        action="append",
        default=[],
        metavar="NUM_NAME:DEN_NAME:METRIC:MIN",
        help="hard gate on the CURRENT file: row NUM's METRIC divided by row "
        "DEN's METRIC must be >= MIN; violation exits 1 even under "
        "--warn-only (repeatable)",
    )
    ap.add_argument(
        "--warn-ratio",
        action="append",
        default=[],
        metavar="NUM_NAME:DEN_NAME:METRIC:MIN",
        help="like --assert-ratio but a violation only prints a ::warning:: "
        "annotation (repeatable)",
    )
    ap.add_argument(
        "--normalize-by",
        metavar="ROW",
        help="compare every row divided by ROW from the same file (host-relative); "
        "its regressions only warn",
    )
    args = ap.parse_args()
    gates = [parse_fail_on(spec) for spec in args.fail_on]
    assert_ratios = [parse_ratio_gate(spec) for spec in args.assert_ratio]
    warn_ratios = [parse_ratio_gate(spec) for spec in args.warn_ratio]

    base, base_skipped, base_ctx = load_rows(args.baseline)
    cur, cur_skipped, cur_ctx = load_rows(args.current)

    for key in ("dlpic_git_sha", "dlpic_build_type", "dlpic_avx512_available"):
        b, c = base_ctx.get(key), cur_ctx.get(key)
        if b != c:
            print(f"note: {key}: baseline={b} current={c}")
    for name in sorted(base.keys() - cur.keys()):
        print(f"note: only in baseline: {name}")
    for name in sorted(cur.keys() - base.keys()):
        print(f"note: only in current:  {name}")
    for name in sorted(set(base_skipped) | set(cur_skipped)):
        print(f"note: skipped/errored row not compared: {name}")

    warn_only = args.warn_only
    if args.normalize_by:
        warn_only = True
        if args.normalize_by in base and args.normalize_by in cur:
            print(f"note: advisory comparison normalized by {args.normalize_by}")
            regressions = list(
                compare(
                    normalize(base, args.normalize_by),
                    normalize(cur, args.normalize_by),
                    args.threshold,
                )
            )
        else:
            print(f"note: normalizing row {args.normalize_by} unavailable; advisory comparison skipped")
            regressions = []
    else:
        regressions = list(compare(base, cur, args.threshold))
    prefix = "::warning::" if warn_only else "REGRESSION: "
    unit = " (relative to the normalizing row)" if args.normalize_by else ""
    for name, key, bval, cval, rel in regressions:
        print(f"{prefix}{name} {key}{unit}: {bval:g} -> {cval:g} ({rel:+.1%})")
    failures = list(hard_failures(base, cur, gates))
    for name, key, bval, cval, rel, rel_threshold in failures:
        print(
            f"::error::HARD REGRESSION {name} {key}: {bval:g} -> {cval:g} "
            f"({rel:+.1%}, gate {rel_threshold:.0%})"
        )
    ratio_failures = 0
    for hard, gate_list in ((True, assert_ratios), (False, warn_ratios)):
        for num, den, metric, min_ratio, ratio in ratio_gate_results(cur, gate_list):
            if ratio is None:
                print(f"note: ratio gate rows unavailable, not checked: {num} / {den}")
            elif ratio < min_ratio:
                if hard:
                    ratio_failures += 1
                    print(
                        f"::error::RATIO GATE {num} / {den} {metric}: "
                        f"{ratio:.2f}x < required {min_ratio:g}x"
                    )
                else:
                    print(
                        f"::warning::ratio below target: {num} / {den} {metric}: "
                        f"{ratio:.2f}x < {min_ratio:g}x"
                    )
            else:
                print(f"ratio gate ok: {num} / {den} {metric}: {ratio:.2f}x >= {min_ratio:g}x")
    compared = len(base.keys() & cur.keys())
    print(
        f"{compared} benchmarks compared, {len(regressions)} metric regressions "
        f"beyond {args.threshold:.0%}, {len(failures)} hard gate failures, "
        f"{ratio_failures} ratio gate failures"
    )
    if failures or ratio_failures:
        return 1
    return 0 if (warn_only or not regressions) else 1


if __name__ == "__main__":
    sys.exit(main())
