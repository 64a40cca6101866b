#!/usr/bin/env python3
"""Builds the discovery-plan benchmark from source and runs one workload.

    python3 perfbench/run.py --workload union_serving --seed 1 --seconds 30 --trace 0

The blend library and the perfbench binary are built with CMake into
.bench_build/perfbench (Release; incremental after the first run). The binary
then runs from the checkout root; its last stdout line is the JSON result.
Build output goes to stderr. Exit code: the binary's, or 1 if the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
# The binary stops itself after --seconds plus set-up; this only guards
# against a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; returns the CMake exit code."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        rc = subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return rc
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["union_serving", "feature_discovery", "mc_snapshot"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if build() != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", WORK]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
