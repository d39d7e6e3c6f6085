#!/usr/bin/env python3
"""Builds the simperf harness from this checkout and runs one benchmark run.

    python3 simperf/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The harness is built with CMake into $CARGO_TARGET_DIR/simperf (default
.bench_build/simperf, relative to the checkout root) from simperf/ and the
library sources in src/. Build output goes to stderr. The harness's stdout
is passed through unchanged; its last line is the result object. The exit
code is the harness's: 0 when every simulated day passed its checks.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rideout_naive", "rideout_budgeted", "overload_storm")
# Host seconds the harness may take beyond --seconds: the day in flight when
# the time is up (a naive day takes ~4 s), and with --trace 1 a traced day.
RUN_SLACK_S = 120
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(root):
        root = os.path.join(ROOT, root)
    return os.path.join(root, "simperf")


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "simperf", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "simperf")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"simperf: build failed: {error}", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    start = time.monotonic()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the harness and waits for it before raising.
        print(f"simperf: run exceeded {args.seconds + RUN_SLACK_S:.0f} s",
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print(f"simperf: harness exited {done.returncode} without a result "
              "line", file=sys.stderr)
        return done.returncode or 1
    print(f"simperf: run took {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
