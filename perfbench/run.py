#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --selftest

The first form builds perfbench (the simulator libraries from src/ plus the
benchmark) into .bench_build/ and runs one workload. Its standard output
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 1 reports the per-layer metrics and writes the raw spans to
.bench_build/spans/. --seed defaults to 1, --seconds to 30 (BENCHMARK.json's
run_seconds) and --trace to 0. --selftest builds and runs the determinism
test. Build output goes to standard error. See perfbench/NOTES.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("stamp16", "counter256", "set1024", "stamp16_observed")
RUN_TIMEOUT_S = 175


def build(target):
    """Configures (unless a complete configuration exists; the build step
    re-runs CMake itself when a CMakeLists.txt changes) and builds `target`.
    Returns False on failure."""
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"run.py: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: '{' '.join(cmd)}' failed", file=sys.stderr)
            return False
    return True


def run(cmd, timeout):
    """Runs cmd, passing its output through; returns its exit code."""
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        if not build("perfbench_determinism_test"):
            return 1
        return run([os.path.join(BUILD, "perfbench_determinism_test")], None)

    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    if not build("perfbench"):
        return 1
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace == 1:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-s{args.seed}.jsonl")]
    sys.stdout.flush()
    return run(cmd, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
