#!/usr/bin/env python3
"""Checks that the benchmark prints exactly the metrics BENCHMARK.json names.

    python3 perfbench/tests/check_names.py <perfbench binary> <data dir>

Runs every workload BENCHMARK.json lists, and the two it leaves out (see
README.md), for a short while, untraced and traced, and compares the
result line's metric names and units with the declared end_to_end and
per_layer lists. Exits non-zero on any mismatch or on a run that fails
its own correctness check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SECONDS = "0.6"
# Built and kept correct, but not declared: their figures follow the host.
UNDECLARED = ["contended_rmw", "durable_commit"]


def main():
    binary, data_dir = sys.argv[1], sys.argv[2]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]] + UNDECLARED:
        for trace in (0, 1):
            run = subprocess.run(
                [binary, "--workload", workload, "--seed", "7",
                 "--seconds", SECONDS, "--trace", str(trace),
                 "--data-dir", data_dir],
                capture_output=True, text=True, timeout=170)
            where = "%s --trace %d" % (workload, trace)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                problems.append("%s: exit %d\n%s" % (where, run.returncode,
                                                     run.stderr[-2000:]))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correct=%s failed=%s" % (
                    where, result["correct"], result["failed"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                problems.append("%s: missing %s, undeclared %s, unit "
                                "mismatch %s" % (where, missing, extra, units))
            print("ok" if not problems else "..", where)
    for p in problems:
        print("FAIL", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
