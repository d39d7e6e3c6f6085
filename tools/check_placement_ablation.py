#!/usr/bin/env python3
"""Checks the placement ablation's policy coverage and packing claim.

    python3 tools/check_placement_ablation.py [--dir DIR] [--run BENCH]

Reads DIR/BENCH_ablation_placement.json. With --run, first runs BENCH (the
bench_ablation_placement binary), writing the report into DIR. Every
PlacementPolicy must appear in the report at every stream count: a policy
silently dropped from the sweep (or renamed without updating the bench)
would otherwise pass unnoticed. At partial load, packing must use no more
SoCs than spreading; that inequality is the point of the ablation. Exits 0
when every claim holds, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

REPORT = "BENCH_ablation_placement.json"
POLICIES = ("spread", "pack", "best_fit", "random_of_k")
STREAMS = (6, 18, 54, 180)


def run_bench(bench, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, SOC_BENCH_OUT_DIR=out_dir)
    subprocess.run([bench], env=env, stdout=subprocess.DEVNULL, check=True)


def check(report):
    """Returns the list of failed claims (empty when all hold)."""
    failures = []
    metrics = {m["metric"]: m["value"] for m in report["metrics"]}
    for policy in POLICIES:
        for n in STREAMS:
            for suffix in ("gated_watts", "socs_used"):
                key = f"{policy}_{n}streams_{suffix}"
                if key not in metrics:
                    failures.append(f"missing {key}")
                elif not metrics[key] > 0:
                    failures.append(f"{key} = {metrics[key]}")
    if failures:
        return failures
    used = {n: {p: metrics[f"{p}_{n}streams_socs_used"] for p in POLICIES}
            for n in STREAMS}
    for n in STREAMS:
        if not used[n]["pack"] <= used[n]["spread"]:
            failures.append(f"{n} streams: pack uses more SoCs than "
                            f"spread {used[n]}")
    print({n: used[n] for n in STREAMS})
    return failures


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default=".",
                        help="directory holding the report")
    parser.add_argument("--run", metavar="BENCH",
                        help="bench_ablation_placement binary to run first")
    args = parser.parse_args(argv)
    if args.run:
        run_bench(args.run, os.path.abspath(args.dir))
    with open(os.path.join(args.dir, REPORT)) as f:
        report = json.load(f)
    failures = check(report)
    for failure in failures:
        print("FAIL:", failure, file=sys.stderr)
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
