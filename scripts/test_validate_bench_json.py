#!/usr/bin/env python3
"""Regression tests for validate_bench_json.py's gating semantics.

Pins the contract CI leans on, most importantly the host-scoping rule:
throughput (events_per_sec, candidates_per_sec) and simulated latency
(sim_p50_ms, sim_p99_ms) ARE compared across hosts with different
host_cores — only speedup_vs_serial is host_cores-scoped. And --hard
promotes findings to failures only when host_cores match.

Run: python3 scripts/test_validate_bench_json.py   (stdlib only)
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import validate_bench_json as v  # noqa: E402


def scenario(name, **overrides):
    row = {
        "name": name,
        "wall_seconds": 1.0,
        "events": 1000,
        "events_per_sec": 1000.0,
        "candidates": 0,
        "candidates_per_sec": 0.0,
        "sim_p50_ms": 40.0,
        "sim_p99_ms": 100.0,
        "speedup_vs_serial": 3.0,
        "deterministic": True,
        "notes": "",
    }
    row.update(overrides)
    return row


def doc(scenarios, host_cores=4):
    return {
        "schema": "clover-bench-v1",
        "suite": "smoke",
        "threads": 4,
        "host_cores": host_cores,
        "seed": 1,
        "build": "test",
        "scenarios": scenarios,
    }


class ValidatorTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, document):
        path = os.path.join(self._dir.name, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return path

    def run_main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        env_summary = os.environ.pop("GITHUB_STEP_SUMMARY", None)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
                err
            ):
                code = v.main(["validate_bench_json.py"] + argv)
        finally:
            if env_summary is not None:
                os.environ["GITHUB_STEP_SUMMARY"] = env_summary
        return code, out.getvalue(), err.getvalue()

    # -- schema mode -------------------------------------------------------

    def test_valid_file_passes(self):
        path = self.write("ok.json", doc([scenario("sim_hot_path")]))
        code, out, _ = self.run_main([path])
        self.assertEqual(code, 0)
        self.assertIn("ok ", out)

    def test_duplicate_scenario_name_fails(self):
        path = self.write(
            "dup.json", doc([scenario("a"), scenario("a")])
        )
        code, _, err = self.run_main([path])
        self.assertEqual(code, 1)
        self.assertIn("duplicate scenario name", err)

    def test_required_scenario_missing_fails(self):
        path = self.write("ok.json", doc([scenario("sim_hot_path")]))
        code, _, err = self.run_main(
            ["--require-scenario", "fleet_routing", path]
        )
        self.assertEqual(code, 1)
        self.assertIn("missing required scenario", err)

    # -- baseline compare: what is and is not host-scoped ------------------

    def regressed(self, base_host, cand_host, extra=()):
        """Baseline vs a candidate that regressed every compared metric."""
        base = self.write(
            "base.json",
            doc([scenario("sim_hot_path")], host_cores=base_host),
        )
        cand = self.write(
            "cand.json",
            doc(
                [
                    scenario(
                        "sim_hot_path",
                        events_per_sec=100.0,   # -90% throughput
                        sim_p99_ms=400.0,       # 4x latency
                        speedup_vs_serial=1.0,  # -67% speedup
                    )
                ],
                host_cores=cand_host,
            ),
        )
        return self.run_main(list(extra) + ["--baseline", base, cand])

    def test_throughput_and_latency_are_compared_cross_host(self):
        # host_cores differ: throughput and latency regressions must STILL
        # be reported — only speedup_vs_serial is host-scoped. This is the
        # rule a well-meaning "skip everything cross-host" refactor would
        # silently break, hence the pin.
        code, out, _ = self.regressed(base_host=16, cand_host=4)
        self.assertEqual(code, 0)  # soft without --hard
        self.assertIn("sim_hot_path.events_per_sec", out)
        self.assertIn("sim_hot_path.sim_p99_ms", out)

    def test_speedup_is_skipped_cross_host_with_a_note(self):
        code, out, _ = self.regressed(base_host=16, cand_host=4)
        self.assertEqual(code, 0)
        self.assertIn("skipping speedup_vs_serial", out)
        warnings = [l for l in out.splitlines() if l.startswith("::warning")]
        self.assertTrue(warnings)
        self.assertFalse(
            [l for l in warnings if "speedup_vs_serial" in l], warnings
        )

    def test_speedup_is_compared_same_host(self):
        code, out, _ = self.regressed(base_host=4, cand_host=4)
        self.assertEqual(code, 0)
        self.assertIn("sim_hot_path.speedup_vs_serial", out)

    def test_dropped_scenario_is_hard_even_without_hard_flag(self):
        base = self.write(
            "base.json", doc([scenario("a"), scenario("b")])
        )
        cand = self.write("cand.json", doc([scenario("a")]))
        code, _, err = self.run_main(["--baseline", base, cand])
        self.assertEqual(code, 1)
        self.assertIn("was dropped", err)

    def test_new_scenario_in_candidate_is_not_compared(self):
        # First-run scenarios establish their own baseline; nothing to
        # regress against, soft or hard.
        base = self.write("base.json", doc([scenario("a")]))
        cand = self.write(
            "cand.json",
            doc([scenario("a"), scenario("brand_new", events_per_sec=1.0)]),
        )
        code, out, err = self.run_main(["--hard", "--baseline", base, cand])
        self.assertEqual(code, 0, err)
        self.assertNotIn("brand_new", out + err)

    # -- --hard ------------------------------------------------------------

    def test_hard_mode_fails_on_same_host_regression(self):
        code, _, err = self.regressed(
            base_host=4, cand_host=4, extra=["--hard"]
        )
        self.assertEqual(code, 1)
        self.assertIn("perf hard-gate", err)
        self.assertIn("events_per_sec", err)

    def test_hard_mode_stays_soft_cross_host(self):
        code, out, err = self.regressed(
            base_host=16, cand_host=4, extra=["--hard"]
        )
        self.assertEqual(code, 0, err)
        self.assertIn("demoting --hard findings to soft", out)
        self.assertIn("::warning", out)

    def test_within_tolerance_passes_hard(self):
        base = self.write("base.json", doc([scenario("a")]))
        cand = self.write(
            "cand.json",
            doc([scenario("a", events_per_sec=900.0)]),  # -10% < 25%
        )
        code, _, err = self.run_main(["--hard", "--baseline", base, cand])
        self.assertEqual(code, 0, err)

    def test_per_scenario_tolerance_table_is_applied(self):
        # meanfield_fleet has a 50% table entry: a -40% throughput drop
        # must pass even under --hard while the same drop on an un-tabled
        # scenario fails at the default 25%.
        self.assertIn("meanfield_fleet", v.SCENARIO_TOLERANCE_PCT)
        base = self.write(
            "base.json", doc([scenario("meanfield_fleet")])
        )
        cand = self.write(
            "cand.json",
            doc([scenario("meanfield_fleet", events_per_sec=600.0)]),
        )
        code, _, err = self.run_main(["--hard", "--baseline", base, cand])
        self.assertEqual(code, 0, err)

        base2 = self.write("base2.json", doc([scenario("untabled")]))
        cand2 = self.write(
            "cand2.json", doc([scenario("untabled", events_per_sec=600.0)])
        )
        code, _, err = self.run_main(["--hard", "--baseline", base2, cand2])
        self.assertEqual(code, 1)
        self.assertIn("tolerance 25%", err)


if __name__ == "__main__":
    unittest.main()
