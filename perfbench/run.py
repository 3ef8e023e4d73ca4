#!/usr/bin/env python3
"""Builds the platform benchmark from source and runs one workload.

    python3 perfbench/run.py --workload replay|steady|overload \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (and the src/ libraries it links) into .bench_build/perfbench;
later runs only re-check the build. Build output goes to stderr, so the
last line on stdout is the benchmark's JSON summary. The exit status is
the benchmark's: 0 when every output check passed.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: src/ not found next to perfbench/; "
                 "run from a full checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["replay", "steady", "overload"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    os.makedirs(WORK, exist_ok=True)
    result = subprocess.run(
        [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", args.trace, "--work-dir", WORK],
        cwd=ROOT)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
