"""Stdlib unit tests for check_bench_regression.py.

Run from the repository root with:

    python3 -m unittest discover -s scripts
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_bench_regression as cbr


def row(update_ns, experiment="exp", method="m", n=1000, d=4, threads=1, ts=None):
    r = {
        "experiment": experiment,
        "method": method,
        "n": n,
        "d": d,
        "threads": threads,
        "iterations": 5,
        "wall_ns": update_ns,
        "stages_ns": {"update": update_ns},
    }
    if ts is not None:
        r["timestamp_ms"] = ts
    return r


class CheckTests(unittest.TestCase):
    def test_no_regression_when_last_row_is_faster(self):
        findings = cbr.check([row(50_000_000), row(40_000_000)], 0.15)
        self.assertEqual(findings, [])

    def test_regression_over_threshold_is_reported_with_ratio(self):
        findings = cbr.check([row(50_000_000), row(100_000_000)], 0.15)
        self.assertEqual(len(findings), 1)
        ratio, message = findings[0]
        self.assertAlmostEqual(ratio, 2.0)
        self.assertIn("'update' regressed 2.00x", message)

    def test_regression_under_threshold_is_silent(self):
        findings = cbr.check([row(50_000_000), row(55_000_000)], 0.15)
        self.assertEqual(findings, [])

    def test_sub_millisecond_stages_are_ignored(self):
        findings = cbr.check([row(100_000), row(900_000)], 0.15)
        self.assertEqual(findings, [])

    def test_groups_compare_only_their_own_series(self):
        rows = [
            row(50_000_000, method="a"),
            row(50_000_000, method="b"),
            row(49_000_000, method="a"),
            row(200_000_000, method="b"),
        ]
        findings = cbr.check(rows, 0.15)
        self.assertEqual(len(findings), 1)
        self.assertIn("exp/b", findings[0][1])

    def test_single_row_groups_need_no_baseline(self):
        self.assertEqual(cbr.check([row(50_000_000)], 0.15), [])


class ValidateTests(unittest.TestCase):
    def test_well_formed_rows_pass(self):
        rows = [row(50_000_000, ts=100), row(60_000_000, ts=200)]
        self.assertEqual(cbr.validate_rows(rows), [])

    def test_rows_without_timestamps_pass(self):
        # older ledgers predate timestamp_ms; the field is optional
        self.assertEqual(cbr.validate_rows([row(50_000_000)]), [])

    def test_unknown_stage_name_is_an_error(self):
        bad = row(50_000_000)
        bad["stages_ns"]["warmup"] = 1_000_000
        errors = cbr.validate_rows([bad])
        self.assertEqual(len(errors), 1)
        self.assertIn("unknown stage 'warmup'", errors[0])

    def test_non_integer_stage_timing_is_an_error(self):
        bad = row(50_000_000)
        bad["stages_ns"]["update"] = 0.05  # seconds, not nanoseconds
        errors = cbr.validate_rows([bad])
        self.assertEqual(len(errors), 1)
        self.assertIn("nanoseconds", errors[0])

    def test_missing_required_field_is_an_error(self):
        bad = row(50_000_000)
        del bad["n"]
        errors = cbr.validate_rows([bad])
        self.assertEqual(len(errors), 1)
        self.assertIn("'n'", errors[0])

    def test_backwards_timestamp_within_group_is_an_error(self):
        rows = [row(50_000_000, ts=200), row(60_000_000, ts=100)]
        errors = cbr.validate_rows(rows)
        self.assertEqual(len(errors), 1)
        self.assertIn("goes backwards", errors[0])

    def test_timestamps_only_ordered_within_their_group(self):
        # interleaved groups may have non-monotone global order
        rows = [
            row(50_000_000, method="a", ts=200),
            row(50_000_000, method="b", ts=100),
            row(51_000_000, method="a", ts=300),
            row(51_000_000, method="b", ts=150),
        ]
        self.assertEqual(cbr.validate_rows(rows), [])


class MainTests(unittest.TestCase):
    def run_main(self, rows, *flags):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "BENCH_egg.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(rows, f)
            return cbr.main(["prog", *flags, path])

    def test_warnings_alone_exit_zero(self):
        code = self.run_main([row(50_000_000), row(100_000_000)])
        self.assertEqual(code, 0)

    def test_fail_over_fails_hard_regressions(self):
        code = self.run_main(
            [row(50_000_000), row(100_000_000)], "--fail-over", "0.40"
        )
        self.assertEqual(code, 1)

    def test_fail_over_keeps_soft_regressions_as_warnings(self):
        # 20% over: warned at the 15% threshold, under the 40% hard limit
        code = self.run_main(
            [row(50_000_000), row(60_000_000)], "--fail-over", "0.40"
        )
        self.assertEqual(code, 0)

    def test_missing_ledger_fails(self):
        self.assertEqual(cbr.main(["prog", "/nonexistent/ledger.json"]), 1)

    def test_require_rows_fails_on_empty_ledger(self):
        self.assertEqual(self.run_main([], "--require-rows"), 1)

    def test_schema_errors_fail_the_run(self):
        bad = row(50_000_000)
        bad["stages_ns"]["renamed_stage"] = 5_000_000
        self.assertEqual(self.run_main([bad]), 1)

    def test_halo_exchange_is_a_tracked_stage(self):
        # rows from sharded runs carry the halo-exchange stage; the schema
        # whitelist must accept it and the gate must diff it
        ok = row(50_000_000)
        ok["stages_ns"]["halo_exchange"] = 5_000_000
        self.assertEqual(self.run_main([ok]), 0)

    def test_halo_exchange_regression_is_caught(self):
        before = row(50_000_000, ts=1)
        before["stages_ns"]["halo_exchange"] = 10_000_000
        after = row(50_000_000, ts=2)
        after["stages_ns"]["halo_exchange"] = 20_000_000
        self.assertEqual(self.run_main([before, after], "--fail-over", "0.40"), 1)

    def test_absent_halo_exchange_stays_valid(self):
        # pre-sharding rows have no halo_exchange key: the gate must not
        # flag them (absent keys read as 0, below the noise floor)
        before = row(50_000_000, ts=1)
        after = row(52_000_000, ts=2)
        after["stages_ns"]["halo_exchange"] = 5_000_000
        self.assertEqual(self.run_main([before, after]), 0)

    def test_dispatch_and_overlap_are_accepted_stages(self):
        # host-backend rows carry the executor-dispatch clock, and committed
        # rows the retired halo-overlap one; the schema must accept both
        ok = row(50_000_000)
        ok["stages_ns"]["exec_dispatch"] = 5_000_000
        ok["stages_ns"]["halo_overlap"] = 5_000_000
        self.assertEqual(self.run_main([ok]), 0)

    def test_exec_dispatch_regression_is_caught(self):
        # dispatch time is pure overhead — the stage the worker pool
        # exists to shrink — so a jump must fail the gate
        before = row(50_000_000, ts=1)
        before["stages_ns"]["exec_dispatch"] = 10_000_000
        after = row(50_000_000, ts=2)
        after["stages_ns"]["exec_dispatch"] = 20_000_000
        self.assertEqual(self.run_main([before, after], "--fail-over", "0.40"), 1)

    def test_row_without_halo_overlap_follows_one_with_it(self):
        # committed rows carry the retired halo_overlap key and new rows
        # omit it: the gate must accept the pair and flag nothing
        before = row(50_000_000, ts=1)
        before["stages_ns"]["halo_overlap"] = 10_000_000
        after = row(50_000_000, ts=2)
        self.assertEqual(self.run_main([before, after], "--fail-over", "0.40"), 0)

    def test_non_array_ledger_fails(self):
        self.assertEqual(self.run_main({"rows": []}), 1)

    def test_sim_stages_are_tracked(self):
        # GPU-backed rows carry the simulated-device clock of each stage;
        # the schema whitelist must accept all of them
        ok = row(50_000_000)
        for stage in ("sim_allocating", "sim_build_structure", "sim_update",
                      "sim_extra_check", "sim_clustering"):
            ok["stages_ns"][stage] = 5_000_000
        self.assertEqual(self.run_main([ok]), 0)

    def test_sim_update_regression_is_caught(self):
        # the simulated clock is deterministic, so a jump means the kernel
        # pipeline itself got more expensive — the gate must fail it
        before = row(50_000_000, ts=1)
        before["stages_ns"]["sim_update"] = 10_000_000
        after = row(50_000_000, ts=2)
        after["stages_ns"]["sim_update"] = 20_000_000
        self.assertEqual(self.run_main([before, after], "--fail-over", "0.40"), 1)

    def test_rows_without_sim_stages_stay_valid(self):
        # host-backend rows have no sim_* keys: absent keys read as 0 and
        # stay below the noise floor, so mixed ledgers diff cleanly
        before = row(50_000_000, ts=1)
        after = row(52_000_000, ts=2)
        after["stages_ns"]["sim_update"] = 5_000_000
        self.assertEqual(self.run_main([before, after]), 0)


if __name__ == "__main__":
    unittest.main()
