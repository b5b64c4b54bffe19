#!/usr/bin/env python3
"""Tests for tools/perf_gate.py's comparison, on synthetic result lines.

    python3 tools/perf_gate_test.py
"""
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gate  # noqa: E402

END_TO_END = [
    {"name": "sim_cycles_per_s", "better": "higher", "bound": 0.25},
    {"name": "run_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.25},
    {"name": "sim_cycles", "better": "lower", "bound": 0.25},
]
BASE = {"sim_cycles_per_s": 1.0e6, "run_s": 10.0, "peak_rss_mb": 50.0,
        "sim_cycles": 1.0e7}


def line(correct=True, **changes):
    """One perfbench output whose last line is a result with BASE's values
    overridden by `changes`."""
    values = dict(BASE, **changes)
    metrics = {k: {"value": v, "unit": "x"} for k, v in values.items()}
    result = {"correct": correct, "attempted": 32,
              "failed": 0 if correct else 1, "metrics": metrics}
    return "  run_s 10 s\n" + json.dumps(result) + "\n"


def judge(base, head):
    return perf_gate.compare(END_TO_END, base, head)


class PerfGateCompare(unittest.TestCase):
    def test_doubled_run_s_fails_and_names_it(self):
        code, report = judge([line()] * 3, [line(run_s=20.0)] * 3)
        self.assertEqual(code, 1)
        self.assertEqual(perf_gate.regressed(report), ["run_s"])

    def test_halved_cycles_per_s_fails_and_names_it(self):
        code, report = judge([line()] * 3, [line(sim_cycles_per_s=5.0e5)] * 3)
        self.assertEqual(code, 1)
        self.assertEqual(perf_gate.regressed(report), ["sim_cycles_per_s"])

    def test_change_within_bound_passes(self):
        head = [line(run_s=12.0, sim_cycles_per_s=8.5e5, peak_rss_mb=60.0)]
        code, report = judge([line()] * 3, head * 3)
        self.assertEqual(code, 0, report)

    def test_improvement_passes(self):
        head = [line(run_s=5.0, sim_cycles_per_s=2.0e6)] * 3
        code, report = judge([line()] * 3, head)
        self.assertEqual(code, 0, report)

    def test_median_ignores_one_slow_head_run(self):
        head = [line(), line(run_s=30.0, sim_cycles_per_s=3.0e5), line()]
        self.assertEqual(judge([line()] * 3, head)[0], 0)

    def test_modelled_change_is_reported_not_gated(self):
        code, report = judge([line()] * 3, [line(sim_cycles=3.0e7)] * 3)
        self.assertEqual(code, 0)
        self.assertTrue(any("DIFFERS" in r for r in report), report)

    def test_incorrect_head_run_fails(self):
        code, report = judge([line()] * 3, [line(), line(correct=False),
                                            line()])
        self.assertEqual(code, 1)
        self.assertTrue(any(r.startswith("head run 2") for r in report),
                        report)

    def test_incorrect_base_run_cannot_measure(self):
        code, report = judge([line(correct=False), line(), line()],
                             [line(run_s=40.0)] * 3)
        self.assertEqual(code, 2)
        self.assertTrue(any(r.startswith("base run 1") for r in report),
                        report)

    def test_malformed_base_line_cannot_measure(self):
        for bad in ("", "run.py: 'cmake --build' failed\n",
                    '{"correct": true, "metrics": {}}\n',
                    '{"correct": "yes"}\n'):
            code, report = judge([line(), line(), bad], [line()] * 3)
            self.assertEqual(code, 2, bad)
            self.assertTrue(any(r.startswith("base run 3") for r in report),
                            report)

    def test_malformed_head_line_fails(self):
        code, report = judge([line()] * 3, [line(), "no result\n", line()])
        self.assertEqual(code, 1)
        self.assertTrue(any(r.startswith("head run 2") for r in report),
                        report)


if __name__ == "__main__":
    unittest.main()
