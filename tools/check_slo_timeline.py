#!/usr/bin/env python3
"""Checks the overload storm's SLO alert timeline claims.

    python3 tools/check_slo_timeline.py [--dir DIR] [--run BENCH]

Reads DIR/slo_timeline.json (bench_overload_storm --slo-out) and
DIR/BENCH_overload_storm.json. With --run, first runs BENCH (the
bench_overload_storm binary) with --surge-minutes=2 --slo-out, writing both
files into DIR. The storm must drive the burn-rate machinery end to end:
alerts fire under the surge and clear after the ladder releases, the shed
order shows up in the paging order (the critical class never pages before
best-effort has), and the sketch-backed p99 agrees with the exact
per-sample one, so the histogram switch does not change what an operator
sees. Exits 0 when every claim holds, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

TIMELINE = "slo_timeline.json"
REPORT = "BENCH_overload_storm.json"


def run_bench(bench, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, SOC_BENCH_OUT_DIR=out_dir)
    subprocess.run([bench, "--surge-minutes=2",
                    "--slo-out=" + os.path.join(out_dir, TIMELINE)],
                   env=env, stdout=subprocess.DEVNULL, check=True)


def check(timeline, report):
    """Returns the list of failed claims (empty when all hold)."""
    failures = []
    fires = clears = 0
    first_fire = {}
    for slo in timeline["slos"]:
        for alert in slo["alerts"]:
            if alert["type"] == "fire":
                fires += 1
                first_fire.setdefault(slo["name"], alert["time_s"])
            else:
                clears += 1
        if slo["firing"]:
            failures.append(f"{slo['name']} still firing after the storm "
                            "released")
    if fires < 1:
        failures.append("no SLO fired during the storm")
    if clears < 1:
        failures.append("no SLO cleared after the storm")
    for service in sorted({slo["service"] for slo in timeline["slos"]}):
        crit = first_fire.get(f"{service}/critical")
        be = first_fire.get(f"{service}/best_effort")
        if crit is not None and (be is None or be > crit):
            failures.append(f"{service}: critical paged at {crit}s before "
                            f"best_effort ({be})")
    metrics = {m["metric"]: m["value"] for m in report["metrics"]}
    if metrics["x3.0.slo_fires"] < 1:
        failures.append("no fires at 3x load")
    if metrics["x3.0.slo_clears"] < 1:
        failures.append("no clears at 3x load")
    sketch = metrics["x3.0.sketch_p99_ms"]
    exact = metrics["x3.0.exact_p99_ms"]
    if not abs(sketch - exact) / exact < 0.03:
        failures.append(f"sketch p99 {sketch:.1f} ms vs exact "
                        f"{exact:.1f} ms")
    print({"fires": fires, "clears": clears, "first_fire": first_fire,
           "sketch_p99_ms": sketch, "exact_p99_ms": exact})
    return failures


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default=".",
                        help="directory holding the timeline and report")
    parser.add_argument("--run", metavar="BENCH",
                        help="bench_overload_storm binary to run first")
    args = parser.parse_args(argv)
    if args.run:
        run_bench(args.run, os.path.abspath(args.dir))
    with open(os.path.join(args.dir, TIMELINE)) as f:
        timeline = json.load(f)
    with open(os.path.join(args.dir, REPORT)) as f:
        report = json.load(f)
    failures = check(timeline, report)
    for failure in failures:
        print("FAIL:", failure, file=sys.stderr)
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
