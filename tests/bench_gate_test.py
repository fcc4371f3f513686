#!/usr/bin/env python3
"""Tests for the perf regression gate and the delta summary.

Every fixture is a committed baseline from bench/baselines/, copied and
edited in a temporary directory, then handed to the scripts exactly as CI
runs them. Run directly or through ctest (bench_gate_test).
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINES = os.path.join(ROOT, "bench", "baselines")
GATE = os.path.join(ROOT, "scripts", "check_bench_regression.py")
SUMMARY = os.path.join(ROOT, "scripts", "bench_delta_summary.py")

MAPPING = "BENCH_mapping_scaling.json"
SIM = "BENCH_sim_throughput.json"


def baseline_path(name):
    return os.path.join(BASELINES, name)


class BenchGateTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.tmp = tmp.name

    def edited(self, name, edit, label="current"):
        """Writes the baseline `name` after `edit` to a temporary file."""
        with open(baseline_path(name)) as f:
            probe = json.load(f)
        edit(probe)
        path = os.path.join(self.tmp, f"{label}_{name}")
        with open(path, "w") as f:
            json.dump(probe, f)
        return path

    def gate(self, current, baseline):
        return subprocess.run(
            [sys.executable, GATE, "--current", current, "--baseline",
             baseline], capture_output=True, text=True)

    def assert_passes(self, current, baseline):
        result = self.gate(current, baseline)
        self.assertEqual(result.returncode, 0, result.stdout)

    def assert_fails(self, current, baseline, reason):
        result = self.gate(current, baseline)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn(reason, result.stdout)

    def test_every_baseline_passes_against_itself(self):
        names = sorted(os.listdir(BASELINES))
        self.assertEqual(len(names), 8)
        for name in names:
            with self.subTest(name=name):
                self.assert_passes(baseline_path(name), baseline_path(name))

    def test_sub_benchmark_at_1_9x_passes(self):
        def slow(probe):
            probe["sub_benchmarks"]["mesh64_u002_event"] *= 1.9
        self.assert_passes(self.edited(SIM, slow), baseline_path(SIM))

    def test_sub_benchmark_at_2_1x_fails(self):
        def slow(probe):
            probe["sub_benchmarks"]["mesh64_u002_event"] *= 2.1
        self.assert_fails(self.edited(SIM, slow), baseline_path(SIM),
                          "mesh64_u002_event slowed beyond")

    def test_flipped_boolean_invariant_fails(self):
        def flip(probe):
            probe["invariants"]["sim_bit_identical"] = False
        self.assert_fails(self.edited(SIM, flip), baseline_path(SIM),
                          "invariant sim_bit_identical is false")

    def test_cost_moved_by_one_ulp_fails(self):
        def nudge(probe):
            cost = probe["invariants"]["cost"]
            probe["invariants"]["cost"] = math.nextafter(cost, math.inf)
        self.assert_fails(self.edited(MAPPING, nudge),
                          baseline_path(MAPPING), "invariant cost drifted")

    def test_moved_digest_fails(self):
        def rewrite(probe):
            probe["invariants"]["mesh16_u002_digest"] = "0" * 16
        self.assert_fails(self.edited(SIM, rewrite), baseline_path(SIM),
                          "invariant mesh16_u002_digest drifted")

    def test_invariant_deleted_from_current_fails(self):
        def drop(probe):
            del probe["invariants"]["sim_event_3x"]
        self.assert_fails(self.edited(SIM, drop), baseline_path(SIM),
                          "invariant sim_event_3x is missing")

    def test_invariant_missing_from_baseline_fails(self):
        def drop(probe):
            del probe["invariants"]["sim_event_3x"]
        baseline = self.edited(SIM, drop, label="baseline")
        self.assert_fails(baseline_path(SIM), baseline,
                          "invariant sim_event_3x has no baseline")

    def test_sub_benchmark_missing_from_baseline_fails(self):
        def drop(probe):
            del probe["sub_benchmarks"]["finalist_2t"]
        baseline = self.edited(SIM, drop, label="baseline")
        self.assert_fails(baseline_path(SIM), baseline,
                          "finalist_2t is measured only in")

    def test_renamed_benchmark_fails(self):
        def rename(probe):
            probe["benchmark"] = "sim"
        self.assert_fails(self.edited(SIM, rename), baseline_path(SIM),
                          "benchmark name mismatch")

    def test_summary_renders_every_baseline(self):
        for name in sorted(os.listdir(BASELINES)):
            with self.subTest(name=name):
                result = subprocess.run(
                    [sys.executable, SUMMARY, "--current",
                     baseline_path(name), "--baseline", baseline_path(name)],
                    capture_output=True, text=True)
                self.assertEqual(result.returncode, 0, result.stderr)
                self.assertIn("baseline refresh", result.stdout)


if __name__ == "__main__":
    unittest.main()
