#!/usr/bin/env python3
"""Builds the VO benchmark from the repository's sources and runs one
workload of perfbench/spec.json.

    python3 perfbench/run.py --workload paper_long --seed 7 --seconds 20 --trace 0

The build goes to .bench_build/perfbench under the repository root; its
output goes to stderr. The last line of stdout is the JSON result of
vo-bench (see vo_bench.cpp). The exit code is vo-bench's, or the build's
when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench")


def check_call(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(result.returncode)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        check_call(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"])
    check_call(["cmake", "--build", BUILD, "-j",
                str(min(4, os.cpu_count() or 1))])
    return os.path.join(BUILD, "vo-bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=0,
                        help="override the workload's job count")
    parser.add_argument("--tamper-digest", action="store_true",
                        help="corrupt one decision digest (self-test)")
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "run", "--spec", os.path.join(HERE, "spec.json"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--jobs", str(args.jobs)]
    if args.tamper_digest:
        cmd.append("--tamper-digest")
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
