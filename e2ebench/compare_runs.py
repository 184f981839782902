#!/usr/bin/env python3
"""Compares two sets of bench_e2e results, workload by workload.

    python3 e2ebench/compare_runs.py BASE_DIR CHANGE_DIR

Each directory holds bench_e2e output files (any name); every line that is
a JSON object with "workload" and "metrics" is one run. For each workload
found on both sides and each end-to-end metric of BENCHMARK.json, prints
each side's run count, median and quartiles (statistics.quantiles, n=4),
its spread (interquartile distance over median), and a verdict against the
metric's bound:

  ok          the change's median is not worse than the base's by more
              than the bound, and both spreads are within it
  worse       the change's median is worse by more than the bound
  unresolved  a spread exceeds the bound, unless every change run reads
              better than every base run ("better")

Rows are never combined into one score. The read tail and the write-ack
latencies, reported in each run's context, are printed too, marked
ungated. Exits 1 when any row is not ok or better.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNGATED = ("tail_ms", "write_p50_ms", "write_tail_ms")


def load_runs(directory):
    """{workload: [run, ...]} from every JSON line under `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    run = json.loads(line)
                except ValueError:
                    continue
                if "workload" in run and "metrics" in run:
                    runs.setdefault(run["workload"], []).append(run)
    return runs


def summary(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def verdict(base, change, better, bound):
    base_median, _, _, base_spread = summary(base)
    change_median, _, _, change_spread = summary(change)
    if better == "lower":
        worse_by = (change_median - base_median) / base_median
        always_better = max(change) < min(base)
    else:
        worse_by = (base_median - change_median) / base_median
        always_better = min(change) > max(base)
    if always_better:
        return "better"
    if base_spread > bound or change_spread > bound:
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    base_runs = load_runs(args.base)
    change_runs = load_runs(args.change)

    header = ("%-14s %-13s %-11s %3s %12s %12s %12s %6s | %3s %12s %12s %12s "
              "%6s  %s")
    print(header % ("workload", "metric", "bound", "n", "base q1",
                    "base median", "base q3", "spread", "n", "change q1",
                    "change med", "change q3", "spread", "verdict"))
    failed = False
    for workload in sorted(set(base_runs) & set(change_runs)):
        rows = [(m["name"], m["better"], m["bound"], "metrics")
                for m in metrics]
        rows += [(name, "lower", None, "context") for name in UNGATED]
        for name, better, bound, section in rows:
            base = [r[section][name]["value"] for r in base_runs[workload]
                    if name in r.get(section, {})]
            change = [r[section][name]["value"]
                      for r in change_runs[workload]
                      if name in r.get(section, {})]
            if not base or not change:
                continue
            b = summary(base)
            c = summary(change)
            if bound is None:
                result = "ungated"
            else:
                result = verdict(base, change, better, bound)
                failed = failed or result not in ("ok", "better")
            print(header % (workload, name,
                            "-" if bound is None else
                            "%s %.2f" % (better, bound),
                            len(base), "%.5g" % b[1], "%.5g" % b[0],
                            "%.5g" % b[2], "%.3f" % b[3], len(change),
                            "%.5g" % c[1], "%.5g" % c[0], "%.5g" % c[2],
                            "%.3f" % c[3], result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
