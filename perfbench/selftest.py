#!/usr/bin/env python3
"""Self-test of the benchmark: its deterministic counts must repeat exactly.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

Runs every workload twice as a reduced-size traced run (one second of
traffic, a handful of predicts and searches replayed in-process) and checks
that both runs are correct and report exactly the same counts: trace ops
emulated, simulator events, unique-worker and cache-hit ratios after warm-up,
and trials executed by the replayed search seeds. Exits non-zero on any
difference.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["predict-repeat", "search"]
COUNTS = [
    "emulate.ops",
    "simulate.events",
    "collate.unique_worker_ratio",
    "estimate.hit_ratio",
    "simulate.hit_ratio",
    "search.executed",
    "search.executed_ratio",
]


def traced_run(workload):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", "1", "--replay", "6",
               "--searches", "2"]
    out = subprocess.run(command, stdout=subprocess.PIPE, check=False, text=True,
                         cwd=os.path.dirname(HERE))
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("%s: no result (exit %d)" % (workload, out.returncode))
    return json.loads(lines[-1])


def main():
    failures = 0
    for workload in WORKLOADS:
        first, second = traced_run(workload), traced_run(workload)
        for run in (first, second):
            if not run["correct"] or run["failed"] != 0:
                print("FAIL %s: run not correct" % workload)
                failures += 1
        for name in COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            status = "ok  " if a == b else "FAIL"
            failures += a != b
            print("%s %-15s %-28s %r vs %r" % (status, workload, name, a, b))
    print("selftest: %s" % ("passed" if failures == 0 else "%d failure(s)" % failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
