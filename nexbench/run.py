#!/usr/bin/env python3
"""Builds the nexbench binary from this checkout and runs one workload.

    python3 nexbench/run.py --workload olap_star --seed 1 --seconds 15 --trace 0

The build (CMake, Release) goes to .bench_build/nexbench at the root of the
checkout; the first run configures and compiles the library from src/, later
runs only re-check it. Build output goes to stderr, so the last line of
stdout is always the benchmark's JSON result. The exit code is the
benchmark's: non-zero when the build fails, an argument is bad, or any
operation fails or returns a wrong result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "nexbench")
BINARY = os.path.join(BUILD, "nexbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    if not build():
        print("nexbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
