#!/usr/bin/env python3
"""Maya's end-to-end benchmark: build, then run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload predict-repeat --seed 1 --seconds 40 --trace 0

Builds the Maya library, the production maya_serve and the perfbench program
from this checkout's sources (CMake, into $CARGO_TARGET_DIR or .bench_build),
then runs it. Its last stdout line is the JSON result; build
output goes to stderr. Exits non-zero without a result when the sources are
missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["predict-repeat", "search"]
REQUIRED_SOURCES = ["src/core/pipeline.h", "src/net/frame_decoder.h", "tools/maya_serve.cc"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "perfbench", "maya_serve"],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--replay", type=int, default=0,
                        help="traced run: predicts replayed in-process (0 = default)")
    parser.add_argument("--searches", type=int, default=0,
                        help="traced run: searches replayed in-process (0 = default)")
    args = parser.parse_args()

    missing = [p for p in REQUIRED_SOURCES if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print("perfbench: not a Maya source checkout (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2
    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 2

    command = [
        os.path.join(out, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve", os.path.join(out, "maya_serve"),
        "--replay", str(args.replay),
        "--searches", str(args.searches),
    ]
    if args.trace:
        command += ["--spans_out", os.path.join(out, "spans-%s.json" % args.workload)]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
