#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark (perfbench/bench.ml) is
built with dune into .bench_build/ under the release profile, then run
with the given arguments plus the number of usable cores and the build
profile, which it records.  Its standard output is passed through: the
last line is the JSON result.  The exit code is the benchmark's, or 1
when the build fails (for example in a directory without the library
sources) or the run overruns its time limit.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
PROFILE = "release"
TARGET = "./perfbench/bench.exe"
RUN_LIMIT_S = 175


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", PROFILE, TARGET],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    nproc = len(os.sched_getaffinity(0))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(nproc), "--profile", PROFILE]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
