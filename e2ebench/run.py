#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds bench_e2e from the checkout's own
sources (CMake, Release) into $CARGO_TARGET_DIR, or .bench_build when that
is unset; the first run builds, later runs find it up to date. Then runs
the workload for S measured seconds on inputs drawn from seed N, and prints
as the last line of stdout one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1), each as {"value": ..., "unit": ...}. Build
output and bench_e2e's diagnostics go to stderr. Exits nonzero, printing
no result, when the build fails, bench_e2e crashes or runs out of time, or
its metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(command, timeout, stdout):
    """Runs `command` in its own process group and returns (exit code,
    stdout text). On timeout the whole group — compilers under make
    included — is killed and reaped before TimeoutExpired propagates."""
    proc = subprocess.Popen(command, stdout=stdout, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(build_dir):
    """Configures once, then builds bench_e2e (a no-op when up to date)."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "bench_e2e",
                  "-j", jobs])
    for step in steps:
        code, _ = run(step, BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            raise subprocess.CalledProcessError(code, step)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        print("build failed: %s" % error, file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(build_dir, "bench_e2e"),
               "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds, "--work-dir=" + work_dir]
    if args.trace:
        command.append("--traced")
    try:
        code, out = run(command, RUN_TIMEOUT_S, subprocess.PIPE)
    except subprocess.TimeoutExpired:
        print("bench_e2e ran past %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if not lines:
        print("bench_e2e exited %d without a result" % code, file=sys.stderr)
        return 1
    report = json.loads(lines[-1])

    metrics = report["metrics"]
    expected = expected_metrics(args.trace)
    if report["attempted"] < 1:
        print("bench_e2e attempted no operation: %s" %
              report.get("error", ""), file=sys.stderr)
        return 1
    if report["correct"] and (
            sorted(metrics) != sorted(expected) or
            any(not isinstance(m["value"], (int, float))
                for m in metrics.values())):
        print("bench_e2e metrics %s do not match BENCHMARK.json's %s" %
              (metrics, expected), file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: metrics[name] for name in expected
                    if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
