#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 simperf/test_simperf.py

Builds the harness (as run.py does) and checks, on short runs, that:
  * each workload's traced day reproduces its untraced state digest;
  * every event label seen maps to a module, and tracing attributes at
    least 90% of the traced wall time;
  * no seam's self time is negative;
  * both ride-out days start the same number of sessions at one seed (the
    arrival stream does not depend on the retry discipline), and naive
    retries amplify load more than twice as much as budgeted ones and
    leave lower post-trigger goodput (the ride-out CI bounds);
  * the simulated outputs (digest, failed_share, the simulated latency's
    mean, p50 and p99) repeat exactly across runs of one seed;
  * a malformed command line fails without a result line.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 42
BINARY = None


def simperf(workload, trace, seed=SEED):
    """Runs the harness for the shortest run (one day, or one untraced and
    one traced day) and returns (stdout lines, result object)."""
    done = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
         "0.001", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return lines, result, done.returncode


def day_line(lines):
    """The first day's digest line: digest, sessions, request counts and
    the simulated latency's mean, p50 and p99 with their sample count."""
    for line in lines:
        if line.startswith("simperf: digest "):
            return line
    raise AssertionError("no digest line in output")


def sessions(lines):
    return int(re.search(r", sessions (\d+),", day_line(lines)).group(1))


def metric(result, name):
    return result["metrics"][name]["value"]


class TracedRunTest(unittest.TestCase):
    """One traced run per workload; the harness itself fails the run (exit
    1, correct false) on a digest mismatch, an unmapped label, a negative
    self time or an attributed share under 0.90."""

    results = {}

    @classmethod
    def setUpClass(cls):
        for workload in run.WORKLOADS:
            cls.results[workload] = simperf(workload, trace=1)

    def test_traced_digest_equals_untraced(self):
        for workload, (lines, result, code) in self.results.items():
            with self.subTest(workload=workload):
                self.assertFalse([l for l in lines if "digest" in l and
                                  "!=" in l])
                self.assertEqual(result["attempted"], 2)
                self.assertEqual(result["failed"], 0)
                self.assertTrue(result["correct"])
                self.assertEqual(code, 0)

    def test_every_label_maps_to_a_module(self):
        for workload, (lines, result, _) in self.results.items():
            with self.subTest(workload=workload):
                seen = [l for l in lines if l.startswith("simperf: labels")]
                self.assertEqual(len(seen), 1)
                self.assertFalse([l for l in lines if "maps to no" in l])
                self.assertGreaterEqual(metric(result, "attributed_share"),
                                        0.90)
                self.assertLessEqual(metric(result, "attributed_share"), 1.0)

    def test_no_negative_self_time(self):
        for workload, (lines, result, _) in self.results.items():
            with self.subTest(workload=workload):
                self.assertFalse([l for l in lines if "negative" in l])
                for name, value in result["metrics"].items():
                    if value["unit"] == "s":
                        self.assertGreaterEqual(value["value"], 0.0, name)

    def test_rideout_days_share_arrivals(self):
        naive_lines, naive, _ = self.results["rideout_naive"]
        budgeted_lines, budgeted, _ = self.results["rideout_budgeted"]
        self.assertEqual(sessions(naive_lines), sessions(budgeted_lines))
        self.assertEqual(metric(naive, "trace.sessions"),
                         metric(budgeted, "trace.sessions"))
        # The ride-out CI job's A/B bounds, across the two workloads.
        self.assertGreater(metric(naive, "trace.amplification"),
                           2 * metric(budgeted, "trace.amplification"))
        self.assertLess(metric(naive, "trace.post_goodput"),
                        metric(budgeted, "trace.post_goodput"))

    def test_per_layer_metrics_match_across_workloads(self):
        names = [sorted(result["metrics"])
                 for _, result, _ in self.results.values()]
        for other in names[1:]:
            self.assertEqual(names[0], other)


class UntracedRunTest(unittest.TestCase):
    def test_simulated_outputs_repeat_per_seed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first_lines, first, code = simperf(workload, trace=0)
                again_lines, again, _ = simperf(workload, trace=0)
                self.assertEqual(code, 0)
                self.assertTrue(first["correct"])
                self.assertEqual(day_line(first_lines), day_line(again_lines))
                for name in ("failed_share", "sim_mean_ms", "sim_p99_ms"):
                    self.assertEqual(metric(first, name), metric(again, name))
                for value in first["metrics"].values():
                    self.assertGreater(value["value"], 0.0)

    def test_malformed_command_line_fails(self):
        done = subprocess.run([BINARY, "--workload", "nope", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              stdout=subprocess.PIPE, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
