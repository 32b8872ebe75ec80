#!/usr/bin/env python3
"""Tests of the benchmark's own code.

    python3 perfbench/test_perfbench.py            # all, incl. smoke runs
    python3 perfbench/test_perfbench.py Helpers    # arithmetic only

The smoke test builds the harness (into .bench_build/) and runs every
workload at a tiny scale through generate -> reference -> measure -> trace.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import perfstats  # noqa: E402


class Helpers(unittest.TestCase):
    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(perfstats.percentile(values, 50), 50)
        self.assertEqual(perfstats.percentile(values, 99), 99)
        self.assertEqual(perfstats.percentile(values, 100), 100)
        self.assertEqual(perfstats.percentile([7.0], 99), 7.0)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(perfstats.tail([1.0] * 19), (None, None, 19))
        pct, _, n = perfstats.tail(list(range(20)))
        self.assertEqual((pct, n), (50.0, 20))
        self.assertEqual(perfstats.tail(list(range(99)))[0], 50.0)
        self.assertEqual(perfstats.tail(list(range(100)))[0], 90.0)
        self.assertEqual(perfstats.tail(list(range(999)))[0], 90.0)
        pct, value, n = perfstats.tail(list(range(1000)))
        self.assertEqual((pct, value, n), (99.0, 989, 1000))
        self.assertEqual(perfstats.tail(list(range(10000)))[0], 99.9)

    def test_mean_of_medians(self):
        # One slow outlier per dataset does not move its median.
        groups = [[1.0, 1.1, 9.0], [2.0, 2.2, 2.1, 0.1]]
        self.assertAlmostEqual(perfstats.mean_of_medians(groups),
                               (1.1 + 2.05) / 2)

    def test_self_time_with_overlapping_children_on_two_threads(self):
        # Run [0, 10] on the main thread; two Resolve children on workers,
        # overlapping each other during [3, 5].
        spans = {
            0: {"start": 0.0, "end": 10.0, "parent": -1},
            1: {"start": 1.0, "end": 5.0, "parent": 0},
            2: {"start": 3.0, "end": 7.0, "parent": 0},
        }
        own = perfstats.self_times(spans)
        # The children cover [1, 7] once, not 8 s.
        self.assertAlmostEqual(own[0], 4.0)
        self.assertAlmostEqual(own[1], 4.0)
        self.assertAlmostEqual(own[2], 4.0)
        # 10 s of wall, 2 s of it with both workers busy.
        self.assertAlmostEqual(perfstats.thread_total(spans), 12.0)
        self.assertAlmostEqual(sum(own.values()),
                               perfstats.thread_total(spans))

    def test_self_time_nested_and_clipped(self):
        spans = {
            0: {"start": 0.0, "end": 10.0, "parent": -1},
            1: {"start": 0.0, "end": 6.0, "parent": 0},   # same start
            2: {"start": 1.0, "end": 2.0, "parent": 1},   # grandchild
            3: {"start": 2.0, "end": 3.0, "parent": 1},   # touches sibling
            4: {"start": 5.0, "end": 9.0, "parent": 0},   # overlaps 1
        }
        own = perfstats.self_times(spans)
        self.assertAlmostEqual(own[0], 1.0)   # only [9, 10] uncovered
        self.assertAlmostEqual(own[1], 4.0)
        self.assertAlmostEqual(own[2], 1.0)
        self.assertAlmostEqual(own[4], 4.0)
        self.assertAlmostEqual(sum(own.values()),
                               perfstats.thread_total(spans))
        table = perfstats.layer_table(
            spans, {0: "core", 1: "mechanism", 2: "mechanism",
                    3: "redundancy", 4: "mechanism"})
        self.assertAlmostEqual(table["mechanism"], 9.0)
        self.assertAlmostEqual(table["redundancy"], 1.0)


class Smoke(unittest.TestCase):
    """Every workload, shrunk, end to end through run.py."""

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", "3", "--seconds", "0.1",
             "--trace", str(trace), "--scale", "0.05"],
            cwd=os.path.dirname(HERE), capture_output=True, text=True,
            timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr

    def test_all_workloads(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, stderr = self.run_bench(workload, trace)
                    self.assertTrue(result["correct"], stderr[-3000:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(sorted(result["metrics"]),
                                     sorted(m["name"] for m in spec[key]))
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
