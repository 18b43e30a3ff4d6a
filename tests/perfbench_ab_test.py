#!/usr/bin/env python3
"""Tier-1 tests for the comparison behind tools/perfbench_ab.py.

The gate's verdict comes from compare(); these cases feed it synthetic run
results, so a gate that goes blind (a flipped direction, an ignored
correctness flag, a metric that silently drops out) fails ctest without
running the benchmark.
"""

import importlib.util
import os
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perfbench_ab", os.path.join(REPO, "tools", "perfbench_ab.py"))
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

END_TO_END = [
    {"name": "ops_per_cpu_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.25},
]


def run(ops=1000.0, rss=100.0, correct=True, attempted=1000, failed=0):
    """A run result shaped like the JSON line perfbench prints last."""
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"ops_per_cpu_s": {"value": ops, "unit": "ops/cpu-s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def base_runs():
    return [run(ops=o) for o in (990.0, 1000.0, 1010.0)]


class Compare(unittest.TestCase):
    def failures(self, head, base=None):
        return ab.compare("ingest", base or base_runs(), head, END_TO_END)[1]

    def test_within_bound_passes(self):
        head = [run(ops=800.0, rss=120.0), run(ops=850.0, rss=124.0), run(ops=900.0)]
        self.assertEqual(self.failures(head), [])

    def test_higher_metric_worse_than_bound_fails(self):
        head = [run(ops=o) for o in (700.0, 740.0, 760.0)]
        found = self.failures(head)
        self.assertEqual(len(found), 1)
        self.assertIn("ops_per_cpu_s", found[0])

    def test_lower_metric_worse_than_bound_fails(self):
        head = [run(rss=r) for r in (120.0, 126.0, 130.0)]
        found = self.failures(head)
        self.assertEqual(len(found), 1)
        self.assertIn("peak_rss_mb", found[0])

    def test_better_in_the_other_direction_passes(self):
        head = [run(ops=2000.0, rss=50.0)] * 3
        self.assertEqual(self.failures(head), [])

    def test_incorrect_run_fails(self):
        head = base_runs()
        head[1]["correct"] = False
        found = self.failures(head)
        self.assertTrue(any("head run 1 is not correct" in f for f in found), found)

    def test_incorrect_base_run_fails(self):
        base = base_runs()
        base[0]["correct"] = False
        self.assertTrue(self.failures(base_runs(), base=base))

    def test_higher_failure_share_fails(self):
        base = [run(failed=1) for _ in range(3)]
        head = [run(failed=2) for _ in range(3)]
        found = self.failures(head, base=base)
        self.assertEqual(len(found), 1)
        self.assertIn("failed/attempted", found[0])

    def test_equal_failure_share_passes(self):
        base = [run(failed=1) for _ in range(3)]
        self.assertEqual(self.failures([run(failed=1) for _ in range(3)], base=base), [])

    def test_metric_on_one_side_only_fails(self):
        head = base_runs()
        del head[2]["metrics"]["peak_rss_mb"]
        found = self.failures(head)
        self.assertEqual(len(found), 1)
        self.assertIn("peak_rss_mb missing from the head", found[0])

        base = base_runs()
        for r in base:
            del r["metrics"]["ops_per_cpu_s"]
        found = self.failures(base_runs(), base=base)
        self.assertEqual(len(found), 1)
        self.assertIn("ops_per_cpu_s missing from the base", found[0])

    def test_unknown_direction_raises(self):
        with self.assertRaises(ValueError):
            ab.compare("ingest", base_runs(), base_runs(),
                       [{"name": "ops_per_cpu_s", "better": "up", "bound": 0.25}])


if __name__ == "__main__":
    unittest.main()
