#!/usr/bin/env python3
"""Unit tests of compare.py on synthetic results (python3 -m unittest)."""

import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


def run(latency, rate, failed=0, attempted=100):
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {"latency_ms": {"value": latency, "unit": "ms"},
                        "rate": {"value": rate, "unit": "1/s"}}}


def verdicts(base, change):
    out = io.StringIO()
    found = compare.compare(SPEC, {"w": base}, {"w": change}, out)
    return {metric: result for _, metric, result in found}


def main_exit_code(base, change):
    """compare.main's exit code on results files written for `base` and
    `change`, judged against SPEC."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, result in enumerate(base + change):
            path = os.path.join(tmp, f"{i}.json")
            with open(path, "w") as f:
                json.dump({"workloads": {"w": result}}, f)
            paths.append(path)
        spec_path = os.path.join(tmp, "BENCHMARK.json")
        with open(spec_path, "w") as f:
            json.dump(SPEC, f)
        saved, compare.SPEC = compare.SPEC, spec_path
        saved_out, sys.stdout = sys.stdout, io.StringIO()
        try:
            return compare.main(paths[:len(base)] + ["--"] + paths[len(base):])
        finally:
            compare.SPEC, sys.stdout = saved, saved_out


class CompareTest(unittest.TestCase):
    def test_identical_runs_tie_and_are_unchanged(self):
        runs = [run(10.0, 100.0) for _ in range(10)]
        self.assertEqual(verdicts(runs, runs),
                         {"latency_ms": "unchanged", "rate": "unchanged",
                          "error_frac": "unchanged"})
        result, wins, pairs, _ = compare.verdict(
            SPEC["end_to_end"][0], [10.0] * 10, [10.0] * 10)
        self.assertEqual((result, wins, pairs), ("unchanged", 0, 10))

    def test_clear_gain_is_improved(self):
        base = [run(10.0 + 0.01 * i, 100.0) for i in range(10)]
        change = [run(8.0 + 0.01 * i, 100.0) for i in range(10)]
        self.assertEqual(verdicts(base, change)["latency_ms"], "improved")

    def test_worse_beyond_bound_is_regressed(self):
        base = [run(10.0, 100.0 + 0.1 * i) for i in range(10)]
        change = [run(10.0, 80.0 + 0.1 * i) for i in range(10)]
        self.assertEqual(verdicts(base, change)["rate"], "regressed")

    def test_spread_wider_than_bound_is_unresolved(self):
        latencies = [6.0, 14.0, 8.0, 12.0, 7.0, 13.0, 9.0, 11.0, 10.0, 10.0]
        base = [run(x, 100.0) for x in latencies]
        change = [run(x * 1.05, 100.0) for x in reversed(latencies)]
        self.assertGreater(compare.spread(latencies), 0.1)
        self.assertEqual(verdicts(base, change)["latency_ms"], "unresolved")

    def test_wide_spread_does_not_hide_a_regression(self):
        latencies = [6.0, 14.0, 8.0, 12.0, 7.0, 13.0, 9.0, 11.0, 10.0, 10.0]
        base = [run(x, 100.0) for x in latencies]
        change = [run(x * 2.0, 100.0) for x in reversed(latencies)]
        self.assertGreater(compare.spread(latencies), 0.1)
        self.assertEqual(verdicts(base, change)["latency_ms"], "regressed")
        self.assertEqual(main_exit_code(base, change), 1)

    def test_wide_spread_but_every_change_run_better_is_resolved(self):
        base = [run(x, 100.0) for x in (20.0, 30.0, 40.0, 25.0, 35.0)]
        change = [run(x, 100.0) for x in (10.0, 11.0, 12.0, 13.0, 14.0)]
        self.assertEqual(verdicts(base, change)["latency_ms"], "improved")

    def test_error_frac_rise_is_regressed_and_fails_the_exit_code(self):
        base = [run(10.0, 100.0) for _ in range(5)]
        change = [run(10.0, 100.0, failed=1) for _ in range(5)]
        self.assertEqual(verdicts(base, change)["error_frac"], "regressed")
        self.assertEqual(main_exit_code(base, change), 1)


if __name__ == "__main__":
    unittest.main()
