#!/usr/bin/env python3
"""Builds the WATTER benchmark runner from source and runs one workload.

    python3 perfbench/run.py --workload cdc-online --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when
that is set, else to .bench_build; the first run configures and compiles
the libraries under src/ (a few minutes), later runs only check that the
build is current. Build output goes to stderr; stdout carries the runner's
output, whose last line is the result as one JSON object. Exits non-zero,
printing no result, when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "watter_perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        if not build(build_dir):
            print("perfbench: build failed", file=sys.stderr)
            return 1
        command = [os.path.join(build_dir, "watter_perfbench"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--work-dir", build_dir]
        done = subprocess.run(command, stdout=sys.stdout, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
