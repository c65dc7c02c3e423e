#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
library and the benchmark (Release) under .bench_build/; later calls only
rebuild what changed. Build output goes to stderr, so the benchmark's last
stdout line is its JSON result. The exit code is the benchmark's: 0 only
when every output check passed. --selftest builds and runs the harness
tests and checks every printed metric name against BENCHMARK.json.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DATA = os.path.join(ROOT, ".bench_build", "data")
# One measured run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def build(targets):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def commit_id():
    """A digest of the sources that are built and run.

    Not the git HEAD: that ignores uncommitted changes, so a working tree
    would be labelled with its parent's commit.
    """
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def binary(name):
    return os.path.join(BUILD, name)


def run_benchmark(args):
    build(["perfbench"])
    cmd = [binary("perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--data-dir", DATA,
           "--commit", commit_id()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def run_selftest():
    build(["perfbench", "perfbench_selftest"])
    if subprocess.run([binary("perfbench_selftest")]).returncode:
        return 1
    check = os.path.join(HERE, "tests", "check_names.py")
    return subprocess.run([sys.executable, check, binary("perfbench"),
                           DATA]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return run_selftest()
    if not args.workload:
        parser.error("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
