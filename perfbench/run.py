#!/usr/bin/env python3
"""Runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

`--workload all` runs every workload in turn.

Run from the root of a checkout.  The first run configures and builds
perfbench/ (the library sources under src/ plus the load generator in
perfbench/src/) with CMake into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only
re-check the build.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  perfbench/README.md documents
the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("uniform-match", "churn-16q", "durable-multishare")
# A run must end within 180 s; leave room for start-up and teardown.
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "core", "engine.hpp")):
        print("perfbench: library sources not found under src/; run from "
              "the root of a checkout of the repository", file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        cmd = [os.path.join(build_dir, "perfbench"),
               "--workload", workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", os.path.join(build_dir, "work"),
               "--reference", os.path.join(HERE, "reference",
                                           "fingerprints.txt")]
        try:
            rc = subprocess.run(cmd, cwd=ROOT,
                                timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            rc = 1
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
