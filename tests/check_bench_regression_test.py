#!/usr/bin/env python3
"""Unit tests for bench/check_bench_regression.py (the CI bench gate).

Stdlib-only (unittest): the container and CI runners both have bare
python3. Registered with ctest as bench_regression_gate_unittests.

Covers the gate's four behaviors:
  * pass: all metrics within tolerance exits 0,
  * regression: a gated metric beyond tolerance exits nonzero and names
    the metric (both directions: throughput down, work-counter up),
  * missing metric: a baseline key absent from the run fails,
  * ratchet: --write-baseline regenerates the file from the current run
    with the DEFAULT_GATES tolerances.
"""

import importlib.util
import json
import os
import sys
import tempfile
import unittest

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression",
    os.path.join(_REPO, "bench", "check_bench_regression.py"))
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)


def kernels_doc(gib=12.0, ns=5.0):
    return {"kernels": [
        {"name": "orAssign", "bits": 1024, "gib_per_s": gib, "ns_per_op": ns},
        {"name": "orCount", "bits": 1024, "gib_per_s": gib, "ns_per_op": ns},
        {"name": "intersectAny", "bits": 1024, "gib_per_s": gib,
         "ns_per_op": ns},
    ]}


def sweep_doc(**overrides):
    doc = {
        "batch_round_speedup": 4.0,
        "batch_sweep_speedup": 3.0,
        "product_blocked_speedup": 2.0,
        "frontier_sparse_speedup": 5.0,
        "beam_unique_states": 1000,
        "beam_rounds": 40,
        "transposition_hit_rate": 0.5,
        "lookahead_tt_hit_rate": 0.5,
        "service_warm_speedup": 6.0,
        "damage_tree_speedup": 3.0,
    }
    doc.update(overrides)
    return doc


class GateHarness(unittest.TestCase):
    """Drives main() through argv with real temp files, as CI does."""

    def run_gate(self, baseline, kernels, sweep, write_baseline=False):
        """Returns (exit_code, stdout_text, baseline_path)."""
        tmp = tempfile.mkdtemp(prefix="benchgate")
        paths = {}
        for name, doc in (("baseline", baseline), ("kernels", kernels),
                          ("sweep", sweep)):
            paths[name] = os.path.join(tmp, name + ".json")
            if doc is not None:
                with open(paths[name], "w") as f:
                    json.dump(doc, f)
        argv = ["check_bench_regression.py",
                "--baseline", paths["baseline"],
                "--kernels", paths["kernels"],
                "--sweep", paths["sweep"]]
        if write_baseline:
            argv.append("--write-baseline")
        old_argv, old_stdout = sys.argv, sys.stdout
        sys.argv = argv
        import io
        sys.stdout = io.StringIO()
        code = 0
        try:
            gate.main()
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        finally:
            out = sys.stdout.getvalue()
            sys.argv, sys.stdout = old_argv, old_stdout
        return code, out, paths["baseline"]

    def write_fresh_baseline(self):
        code, _, path = self.run_gate(None, kernels_doc(), sweep_doc(),
                                      write_baseline=True)
        self.assertEqual(code, 0)
        with open(path) as f:
            return json.load(f), path


class TestFlatten(unittest.TestCase):
    def test_kernel_and_sweep_keys(self):
        flat = gate.flatten(kernels_doc(gib=7.5, ns=2.0), sweep_doc())
        self.assertEqual(flat["kernel:orAssign:1024:gib_per_s"], 7.5)
        self.assertEqual(flat["kernel:orAssign:1024:ns_per_op"], 2.0)
        self.assertEqual(flat["sweep:batch_round_speedup"], 4.0)

    def test_unknown_sweep_fields_ignored(self):
        flat = gate.flatten({"kernels": []}, {"not_a_gate": 1.0})
        self.assertEqual(flat, {})


class TestDirection(unittest.TestCase):
    def test_lower_is_better_classification(self):
        self.assertTrue(gate.lower_is_better("kernel:x:1024:ns_per_op"))
        self.assertTrue(gate.lower_is_better("sweep:batch_scalar_ms"))
        self.assertTrue(gate.lower_is_better("sweep:beam_unique_states"))
        self.assertTrue(gate.lower_is_better("sweep:lookahead_nodes"))
        self.assertFalse(gate.lower_is_better("kernel:x:1024:gib_per_s"))
        self.assertFalse(gate.lower_is_better("sweep:batch_round_speedup"))
        self.assertFalse(gate.lower_is_better("sweep:beam_rounds"))


class TestGate(GateHarness):
    def test_pass_within_tolerance(self):
        baseline, _ = self.write_fresh_baseline()
        # 10% throughput dip sits inside the 60% kernel tolerance.
        code, out, _ = self.run_gate(baseline, kernels_doc(gib=10.8),
                                     sweep_doc())
        self.assertEqual(code, 0)
        self.assertIn("OK: all gated metrics within tolerance.", out)
        self.assertNotIn("REGRESSION", out)

    def test_throughput_regression_beyond_tolerance_fails(self):
        baseline, _ = self.write_fresh_baseline()
        # batch_round_speedup tolerance is 30%: 4.0 -> 1.0 is a 75% drop.
        code, out, _ = self.run_gate(
            baseline, kernels_doc(), sweep_doc(batch_round_speedup=1.0))
        self.assertNotEqual(code, 0)
        self.assertIn("REGRESSION", out)
        self.assertIn("sweep:batch_round_speedup", out)

    def test_work_counter_regresses_upward(self):
        baseline, _ = self.write_fresh_baseline()
        # beam_unique_states (10% tolerance) regresses by GROWING.
        code, out, _ = self.run_gate(
            baseline, kernels_doc(), sweep_doc(beam_unique_states=1200))
        self.assertNotEqual(code, 0)
        self.assertIn("sweep:beam_unique_states", out)
        # The same growth in a throughput metric would NOT fail: check a
        # faster kernel passes.
        code, _, _ = self.run_gate(baseline, kernels_doc(gib=20.0),
                                   sweep_doc())
        self.assertEqual(code, 0)

    def test_missing_metric_fails(self):
        baseline, _ = self.write_fresh_baseline()
        thin = sweep_doc()
        del thin["transposition_hit_rate"]
        code, out, _ = self.run_gate(baseline, kernels_doc(), thin)
        self.assertNotEqual(code, 0)
        self.assertIn("MISSING", out)
        self.assertIn("sweep:transposition_hit_rate", out)

    def test_unrecognized_schema_rejected(self):
        code, _, _ = self.run_gate({"schema": "bogus/9", "metrics": {}},
                                   kernels_doc(), sweep_doc())
        self.assertNotEqual(code, 0)


class TestRatchet(GateHarness):
    def test_write_baseline_round_trips(self):
        baseline, path = self.write_fresh_baseline()
        self.assertEqual(baseline["schema"], "dynbcast-bench-baseline/1")
        self.assertEqual(set(baseline["metrics"]), set(gate.DEFAULT_GATES))
        for key, spec in baseline["metrics"].items():
            self.assertEqual(spec["tolerance_pct"], gate.DEFAULT_GATES[key])
        # The regenerated baseline gates its own run cleanly.
        code, out, _ = self.run_gate(baseline, kernels_doc(), sweep_doc())
        self.assertEqual(code, 0)
        self.assertIn("OK", out)

    def test_write_baseline_requires_every_gated_metric(self):
        partial = sweep_doc()
        del partial["beam_rounds"]
        code, _, _ = self.run_gate(None, kernels_doc(), partial,
                                   write_baseline=True)
        self.assertNotEqual(code, 0)

    def test_ratchet_tightens_after_improvement(self):
        # Regenerating after an improvement moves the floor up: the old
        # (slower) numbers now regress against the new baseline.
        improved = sweep_doc(batch_round_speedup=8.0)
        code, _, path = self.run_gate(None, kernels_doc(), improved,
                                      write_baseline=True)
        self.assertEqual(code, 0)
        with open(path) as f:
            ratcheted = json.load(f)
        code, out, _ = self.run_gate(ratcheted, kernels_doc(), sweep_doc())
        self.assertNotEqual(code, 0)
        self.assertIn("sweep:batch_round_speedup", out)


if __name__ == "__main__":
    unittest.main()
