#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload file-docs --seed 1 --seconds 10 --trace 0

The first run configures and builds the benchmark program (perfbench/main.cc
and the simulator libraries under src/) into .bench_build/perfbench, which
takes a few minutes; later runs only check that the build is up to date.
Build output goes to stderr. The program's output is passed through; its last
line is the JSON result. perfbench/README.md describes the workloads and the
metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD, "wpos_perfbench")
WORKLOADS = ("file-docs", "file-records", "desktop")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the program; returns True on success."""
    sources = [os.path.join(ROOT, "src", "CMakeLists.txt"),
               os.path.join(ROOT, "bench", "lib", "systems.cc")]
    missing = [p for p in sources if not os.path.isfile(p)]
    if missing:
        print("perfbench: the repository sources are missing: " + ", ".join(missing),
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        return 2
    sys.stdout.flush()
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the program and waits for it before raising.
        print("perfbench: the program did not finish in %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
