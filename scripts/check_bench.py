#!/usr/bin/env python3
"""Bench regression gate: diff fresh BENCH_*.json against committed baselines.

Usage:
    scripts/check_bench.py --fresh-dir build --baseline-dir bench/baselines \
        [--max-regression 0.25]

Each known BENCH file carries a spec of gated metrics — a dotted key path
into the JSON plus the direction that counts as better. A fresh value more
than --max-regression worse than the committed baseline fails the check;
improvements and non-gated keys (environment echoes, sample counts) are
reported but never fail. Scaling gates print as skipped when the fresh
file's hardware_threads is narrower than the width they test. Missing
fresh files fail loudly: a bench that
silently stopped producing output is itself a regression. Baselines are
refreshed by running the bench binaries and copying their BENCH_*.json
over bench/baselines/ in the same commit that changes performance.

Exits 0 when every gated metric holds, 1 on any regression, 2 on usage or
malformed input. Stdlib only.
"""

import argparse
import json
import os
import sys

LOWER = "lower_is_better"
HIGHER = "higher_is_better"

# file -> {dotted.key.path: direction}
SPECS = {
    "BENCH_serve.json": {
        "single_source_seconds_per_query.scan_in_memory": LOWER,
        "single_source_seconds_per_query.inverted_in_memory": LOWER,
        "single_source_seconds_per_query.inverted_mmap": LOWER,
        "pair_seconds_per_query.exact": LOWER,
        "pair_seconds_per_query.index_cold": LOWER,
        "pair_seconds_per_query.index_warm": LOWER,
        "topk_seconds_per_query.cold": LOWER,
        "topk_seconds_per_query.warm": LOWER,
    },
    "BENCH_update.json": {
        "single_edge.patch_ms_per_batch": LOWER,
        "single_edge.speedup_vs_rebuild": HIGHER,
        "thread_scaling.speedup_8t_vs_serial": HIGHER,
    },
    "BENCH_trace.json": {
        "pair_p50_us_disabled": LOWER,
        "pair_p50_us_traced": LOWER,
        "overhead_bound_fraction": LOWER,
    },
    "BENCH_profile.json": {
        "pair_p50_us_disarmed": LOWER,
        "endpoint_simrank_fraction": HIGHER,
    },
}

# Scaling gates that only mean something on a box at least this wide:
# when the fresh file's hardware_threads is below the width (or absent),
# the metric prints as skipped instead of being gated.
MIN_HARDWARE_THREADS = {
    ("BENCH_update.json", "thread_scaling.speedup_8t_vs_serial"): 8,
}


def dig(obj, path):
    for part in path.split("."):
        if not isinstance(obj, dict) or part not in obj:
            return None
        obj = obj[part]
    return obj


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        return None


def main():
    parser = argparse.ArgumentParser(
        description="Fail when a fresh bench result regresses past its "
        "committed baseline.")
    parser.add_argument("--fresh-dir", required=True,
                        help="directory holding freshly produced BENCH_*.json")
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        help="directory of committed baseline BENCH_*.json")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional regression (default 0.25)")
    args = parser.parse_args()

    failures = []
    checked = 0
    for filename, spec in sorted(SPECS.items()):
        baseline_path = os.path.join(args.baseline_dir, filename)
        fresh_path = os.path.join(args.fresh_dir, filename)
        if not os.path.exists(baseline_path):
            # No baseline committed for this bench yet: nothing to gate.
            print(f"-- {filename}: no baseline, skipped")
            continue
        baseline = load(baseline_path)
        if baseline is None:
            return 2
        if not os.path.exists(fresh_path):
            failures.append(f"{filename}: fresh result missing from "
                            f"{args.fresh_dir} (bench not run or crashed)")
            continue
        fresh = load(fresh_path)
        if fresh is None:
            return 2

        gate = fresh.get("gate_passed")
        if gate is False:
            failures.append(f"{filename}: bench reports gate_passed=false")

        for path, direction in sorted(spec.items()):
            base_value = dig(baseline, path)
            fresh_value = dig(fresh, path)
            if not isinstance(base_value, (int, float)) or isinstance(
                    base_value, bool):
                print(f"-- {filename}:{path}: not in baseline, skipped")
                continue
            width = MIN_HARDWARE_THREADS.get((filename, path))
            threads = fresh.get("hardware_threads")
            if width is not None and (not isinstance(threads, int)
                                      or threads < width):
                print(f"-- {filename}:{path}: skipped ({threads} hardware "
                      f"threads, gate needs {width})")
                continue
            if not isinstance(fresh_value, (int, float)) or isinstance(
                    fresh_value, bool):
                failures.append(f"{filename}:{path}: missing from fresh "
                                "result")
                continue
            checked += 1
            if base_value == 0:
                print(f"   {filename}:{path}: baseline 0, skipped")
                continue
            if direction == LOWER:
                change = fresh_value / base_value - 1.0
            else:
                change = base_value / fresh_value - 1.0
            marker = "OK " if change <= args.max_regression else "REG"
            print(f"{marker} {filename}:{path}: baseline {base_value:.6g} "
                  f"fresh {fresh_value:.6g} "
                  f"({'+' if change >= 0 else ''}{change * 100.0:.1f}% "
                  f"{'worse' if change > 0 else 'better'})")
            if change > args.max_regression:
                failures.append(
                    f"{filename}:{path}: {change * 100.0:.1f}% worse than "
                    f"baseline (limit {args.max_regression * 100.0:.0f}%)")

    print(f"\nchecked {checked} gated metric(s), "
          f"{len(failures)} regression(s)")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
