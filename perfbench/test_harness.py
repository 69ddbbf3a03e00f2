#!/usr/bin/env python3
"""Unit tests for the benchmark's own arithmetic (harness.py): the
percentile rule, per-chunk attribution of adversary lifetimes, the
per-layer residuals, run.py's digest and coverage checks, and the
metric-name check.

    python3 perfbench/test_harness.py -v
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
from harness import Span  # noqa: E402


def instance(start, end, thread, decide_ns, calls, n=512, label="static-path"):
    return Span("adversary.instance", start, end, thread, parent=1, label=label,
                args={"n": n, "decide_ns": decide_ns, "decide_calls": calls})


class PercentileRule(unittest.TestCase):
    def test_linear_interpolation(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(harness.percentile(xs, 0), 1.0)
        self.assertEqual(harness.percentile(xs, 100), 4.0)
        self.assertAlmostEqual(harness.percentile(xs, 50), 2.5)
        self.assertAlmostEqual(harness.percentile(list(range(101)), 90), 90.0)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            harness.percentile([], 50)

    def test_ten_samples_beyond(self):
        self.assertIsNone(harness.highest_supported_percentile(19))
        self.assertEqual(harness.highest_supported_percentile(20), 50)
        self.assertEqual(harness.highest_supported_percentile(99), 50)
        self.assertEqual(harness.highest_supported_percentile(100), 90)
        self.assertEqual(harness.highest_supported_percentile(999), 90)
        self.assertEqual(harness.highest_supported_percentile(1000), 99)

    def test_reported_percentile_falls_back_to_supported(self):
        hundred = list(range(1, 101))
        self.assertAlmostEqual(harness.reported_percentile(hundred, 90),
                               harness.percentile(hundred, 90))
        thirty = list(range(1, 31))
        self.assertAlmostEqual(harness.reported_percentile(thirty, 90),
                               harness.percentile(thirty, 50))
        self.assertAlmostEqual(harness.reported_percentile([5.0, 1.0, 9.0], 90),
                               5.0)

    def test_end_to_end_metrics(self):
        raw = {"setup_s": [0.3, 0.1, 0.2], "peak_rss_mb": 12.5,
               "tstar_over_lb": 0.7, "result_cache": True,
               "jobs": [{"kind": "cold", "seconds": 2.0, "rows": 80},
                        {"kind": "cold", "seconds": 4.0, "rows": 80},
                        {"kind": "warm", "seconds": 2.0, "rows": 80}]}
        m = harness.end_to_end_metrics(raw)
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["rows_per_s"], 240 / 8.0)
        self.assertAlmostEqual(m["jobs_per_s"], 3 / 8.0)
        self.assertAlmostEqual(m["cold_job_p50_ms"], 3000.0)
        self.assertAlmostEqual(m["cold_job_p90_ms"], 3000.0)
        self.assertAlmostEqual(m["warm_job_p90_ms"], 2000.0)

    def test_without_a_cache_both_kinds_pool_every_job(self):
        raw = {"setup_s": [0.2], "peak_rss_mb": 1.0, "tstar_over_lb": 0.7,
               "result_cache": False,
               "jobs": [{"kind": "cold", "seconds": 2.0, "rows": 80},
                        {"kind": "cold", "seconds": 4.0, "rows": 80},
                        {"kind": "warm", "seconds": 3.5, "rows": 80}]}
        m = harness.end_to_end_metrics(raw)
        self.assertAlmostEqual(m["cold_job_p50_ms"], 3500.0)
        self.assertAlmostEqual(m["warm_job_p50_ms"], 3500.0)
        self.assertEqual(harness.sample_counts(raw),
                         {"cold": (3, None), "warm": (3, None)})

    def test_sample_counts_per_kind(self):
        raw = {"result_cache": True,
               "jobs": [{"kind": "cold"}] * 100 + [{"kind": "warm"}] * 30}
        self.assertEqual(harness.sample_counts(raw),
                         {"cold": (100, 90), "warm": (30, 50)})


class ChunkAttribution(unittest.TestCase):
    def test_overlapping_lanes_form_one_chunk(self):
        # Eight lanes built one after another, destroyed together: one
        # chunk of 1.0 s, not 8 x ~1.0 s.
        lanes = [instance(0.01 * i, 1.0, 1, 1e6, 100) for i in range(8)]
        tasks = harness.group_tasks(lanes)
        self.assertEqual(len(tasks), 1)
        self.assertTrue(tasks[0].batched)
        self.assertAlmostEqual(tasks[0].dur, 1.0)
        self.assertEqual(tasks[0].decide_calls, 800)
        self.assertAlmostEqual(tasks[0].decide_s, 8e-3)

    def test_sequential_and_cross_thread_spans_stay_apart(self):
        spans = [instance(0.0, 1.0, 1, 0, 5), instance(1.0, 2.0, 1, 0, 5),
                 instance(0.5, 1.5, 2, 0, 5)]
        tasks = harness.group_tasks(spans)
        self.assertEqual(len(tasks), 3)
        self.assertFalse(any(t.batched for t in tasks))

    def test_probes_are_planning_not_tasks(self):
        probe = instance(0.0, 0.001, 0, 0, 0)
        spans = [probe, instance(0.0005, 1.0, 0, 0, 3)]
        tasks = harness.group_tasks(spans)
        self.assertEqual(len(tasks), 1)
        self.assertFalse(tasks[0].batched)
        m = harness.per_layer_metrics(spans + [Span("job", 0.0, 1.0)], 1.0,
                                      1.0, {})
        self.assertAlmostEqual(m["engine.plan_s"], 0.001)
        self.assertEqual(m["engine.tasks"], 1)

    def test_batch_residual_and_computed_bandwidth(self):
        # Two 8-lane chunks at n=512 on two threads, 0.1 s of decisions in
        # each; 1000 lane-rounds per chunk.
        spans = [Span("job", 0.0, 2.0)]
        for thread in (1, 2):
            spans += [instance(0.0, 2.0, thread, 0.1e9 / 8, 125)
                      for _ in range(8)]
        m = harness.per_layer_metrics(spans, 2.0, 2.0, {})
        self.assertEqual(m["engine.tasks"], 2)
        self.assertAlmostEqual(m["engine.busy_share"], 1.0)
        self.assertAlmostEqual(m["sim.batch_s"], 2 * (2.0 - 0.1))
        self.assertEqual(m["sim.batch_lane_rounds"], 2000)
        moved = 2000 * 2 * 512 * 8 * 8
        self.assertAlmostEqual(m["sim.batch_gib_per_s.n512"],
                               moved / 3.8 / 2**30)
        self.assertEqual(m["sim.batch_gib_per_s.n2048"], 0.0)
        self.assertAlmostEqual(m["trace.coverage"], 1.0)

    def test_scalar_residual_per_word(self):
        spans = [Span("job", 0.0, 1.0),
                 instance(0.0, 1.0, 1, 0.25e9, 100, n=64, label="greedy-delay")]
        m = harness.per_layer_metrics(spans, 1.0, 0.8, {})
        self.assertAlmostEqual(m["sim.scalar_s"], 0.75)
        self.assertAlmostEqual(m["sim.scalar_ns_per_word"], 0.75e9 / (100 * 64))
        self.assertAlmostEqual(m["adversary.greedy-delay.decide_s"], 0.25)
        self.assertAlmostEqual(m["adversary.greedy-delay.busy_share"], 0.25)
        self.assertAlmostEqual(m["trace.overhead"], 0.25)


class ServiceLayers(unittest.TestCase):
    def test_per_call_means_and_client_residual(self):
        warm = Span("service.request", 0.0, 0.010, id=7, label="warm")
        prepass = Span("service.prepass", 0.001, 0.009, parent=7, args={
            "task_key_ns": 2000, "task_key_calls": 4,
            "cache_get_ns": 4000, "cache_get_calls": 4,
            "manifest_append_ns": 8e6, "manifest_append_calls": 4})
        counters = {"served_requests": 1, "served_latency_s": 0.012,
                    "replay_untraced_request_s": 0.009,
                    "replay_cache_hits": 4, "replay_executed": 0}
        m = harness.per_layer_metrics([warm, prepass], 0.010, 0.009, counters)
        self.assertAlmostEqual(m["service.task_key_us"], 0.5)
        self.assertAlmostEqual(m["service.cache_get_us"], 1.0)
        self.assertAlmostEqual(m["service.manifest_append_us"], 2000.0)
        self.assertAlmostEqual(m["service.client_ms"], 3.0)
        self.assertAlmostEqual(m["service.hit_ratio"], 1.0)
        self.assertAlmostEqual(m["service.warm_append_share"], 0.8)


class RunChecks(unittest.TestCase):
    def test_digest_must_repeat_in_a_second_process(self):
        self.assertIsNone(harness.digest_failure("00ff", "00ff", 3))
        self.assertIn("seed 3", harness.digest_failure("00ff", "00fe", 3))
        self.assertIsNotNone(harness.digest_failure("00ff", None, 3))

    def test_trace_coverage_floor(self):
        self.assertIsNone(harness.coverage_failure({"trace.coverage": 0.95}))
        self.assertIsNone(harness.coverage_failure({"trace.coverage": 1.0}))
        self.assertIn("0.940",
                      harness.coverage_failure({"trace.coverage": 0.94}))

    def test_checks_add_to_the_runner_counts(self):
        raw = {"attempted": 10, "failed": 1, "failures": ["row 3"]}
        self.assertEqual(harness.add_checks(raw, [None, None]),
                         (12, 1, ["row 3"]))
        self.assertEqual(harness.add_checks(raw, [None, "digest"]),
                         (12, 2, ["row 3", "digest"]))


class MetricNameCheck(unittest.TestCase):
    DECLARED = [{"name": "setup_s", "unit": "s"},
                {"name": "rows_per_s", "unit": "1/s"}]

    def test_exact_set_passes(self):
        harness.check_metric_names(
            {"setup_s": {"value": 0.5, "unit": "s"},
             "rows_per_s": {"value": 10, "unit": "1/s"}}, self.DECLARED)

    def test_missing_extra_unit_and_value_fail(self):
        cases = [
            {"setup_s": {"value": 0.5, "unit": "s"}},
            {"setup_s": {"value": 0.5, "unit": "s"},
             "rows_per_s": {"value": 1, "unit": "1/s"},
             "extra": {"value": 1, "unit": "s"}},
            {"setup_s": {"value": 0.5, "unit": "ms"},
             "rows_per_s": {"value": 1, "unit": "1/s"}},
            {"setup_s": {"value": float("nan"), "unit": "s"},
             "rows_per_s": {"value": 1, "unit": "1/s"}},
        ]
        for metrics in cases:
            with self.assertRaises(ValueError):
                harness.check_metric_names(metrics, self.DECLARED)

    def test_contract_name_and_unit_grammar(self):
        for bad in ([{"name": "-lead", "unit": "s"}],
                    [{"name": "a" * 65, "unit": "s"}],
                    [{"name": "ok", "unit": "has space"}]):
            with self.assertRaises(ValueError):
                harness.check_metric_names({}, bad)

    def test_declared_benchmark_metrics_are_valid(self):
        import json
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
        for section in ("end_to_end", "per_layer"):
            declared = bench[section]
            metrics = {d["name"]: {"value": 1.0, "unit": d["unit"]}
                       for d in declared}
            harness.check_metric_names(metrics, declared)
        names = [d["name"] for d in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))


if __name__ == "__main__":
    unittest.main()
