#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke test builds the benchmark on first use (a few minutes) and then
sends a handful of requests per workload, end to end and traced.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import steadiness  # noqa: E402


class BenchmarkSpecTest(unittest.TestCase):
    def test_setup_s_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


class SteadinessTest(unittest.TestCase):
    def test_iqr_share(self):
        # quantiles([1..8], n=4) are 2.25 / 4.5 / 6.75.
        self.assertAlmostEqual(steadiness.iqr_share(range(1, 9)), 1.0)

    def test_assess_flags_drift_in_the_worse_direction_only(self):
        metrics = [{"name": "p50_ms", "better": "lower", "bound": 0.1},
                   {"name": "success_ratio", "better": "higher", "bound": 0.01}]
        steady = [10.0, 10.1, 10.2, 9.9, 10.0]
        slower = [v * 1.2 for v in steady]
        ones = [1.0] * 5
        rows = steadiness.assess(
            [{"w": {"p50_ms": steady, "success_ratio": ones}},
             {"w": {"p50_ms": slower, "success_ratio": ones}}], metrics)
        self.assertEqual([(r[1], r[3], r[4]) for r in rows],
                         [("p50_ms", True, False),
                          ("success_ratio", True, True)])
        rows = steadiness.assess(
            [{"w": {"p50_ms": slower, "success_ratio": ones}},
             {"w": {"p50_ms": steady, "success_ratio": ones}}], metrics)
        self.assertTrue(rows[0][4], "getting faster is not a regression")


class SmokeTest(unittest.TestCase):
    def test_every_workload_emits_every_metric_and_cross_checks(self):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--smoke"],
            stdout=subprocess.PIPE, text=True, timeout=1800)
        out = proc.stdout
        self.assertEqual(proc.returncode, 0, out)
        results = [json.loads(line.split("result: ", 1)[1])
                   for line in out.splitlines() if "  result: " in line]
        self.assertEqual(len(results), 2 * len(run.ALL_WORKLOADS), out)
        for i, result in enumerate(results):
            trace = i >= len(run.ALL_WORKLOADS)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreater(result["attempted"], 0)
            self.assertEqual(run.check_names(result, trace), [])
        # The traced run compared every replayed answer with the end-to-end
        # answer of the same request id.
        cross = re.findall(r"traced cross-check: (\d+) of (\d+) answers", out)
        self.assertEqual(len(cross), len(run.ALL_WORKLOADS), out)
        for compared, total in cross:
            self.assertEqual(compared, total)
            self.assertGreater(int(total), 0)
        # The Z3 reference ran on every workload.
        z3 = re.findall(r"(\d+) compared with Z3", out)
        self.assertEqual(len(z3), 2 * len(run.ALL_WORKLOADS))
        self.assertTrue(all(int(n) > 0 for n in z3), out)


if __name__ == "__main__":
    unittest.main()
