#!/usr/bin/env python3
"""Perf-trajectory check over the cross-PR benchmark ledger BENCH_egg.json.

The ledger is a JSON array of rows appended by the bench harnesses; each
row carries the workload shape (experiment, method, n, d, threads) and a
per-stage nanosecond breakdown. This script groups rows by workload
shape, compares the latest row of every group against the previous one,
and emits a GitHub Actions `::warning::` annotation whenever a tracked
stage regressed by more than the threshold (default 15%). With
--fail-over PCT, any regression exceeding PCT additionally fails the
job — the hard backstop behind the soft warning threshold.

Stage timings below MIN_STAGE_NS are skipped: on CI-scale quick runs a
sub-millisecond stage is dominated by scheduler noise and any ratio on
it is meaningless.

Every row is schema-validated before the diff: known stage names only,
non-negative integer nanosecond timings, and (when rows carry the
optional timestamp_ms) monotone non-decreasing timestamps per group —
rows appended out of order would make the latest-two diff compare the
wrong pair.

Exit codes: 0 on success (warnings do not fail the job); 1 when the
ledger is missing, malformed, fails schema validation, or — with
--require-rows — empty, so the "perf ledger silently stopped recording"
failure mode of PR 2 is loud; 1 when a --fail-over regression fired.

Usage: check_bench_regression.py [--threshold 0.15] [--fail-over 0.40]
                                 [--require-rows] [PATH]
"""

import json
import sys

TRACKED_STAGES = (
    "allocating",
    "build_structure",
    "update",
    "extra_check",
    "clustering",
    "free_memory",
    "halo_exchange",
    # diagnostic dispatch clock (host-backend rows only): time inside the
    # executor's dispatch machinery
    "exec_dispatch",
    # retired: timed an overlap thread the sharded engine no longer has.
    # New rows omit it; committed rows still carry it and must validate
    "halo_overlap",
    # simulated-device clock of the same stages (GPU-backed rows only).
    # These are deterministic — the cost model is a pure function of the
    # kernels' operation counts — so regressions on them are real perf
    # changes (more launches, more words moved), never scheduler noise.
    "sim_allocating",
    "sim_build_structure",
    "sim_update",
    "sim_extra_check",
    "sim_clustering",
)
MIN_STAGE_NS = 1_000_000  # ignore sub-millisecond stages: pure noise on CI


def group_key(row):
    return (
        row.get("experiment"),
        row.get("method"),
        row.get("n"),
        row.get("d"),
        row.get("threads"),
    )


def validate_rows(rows):
    """Schema-check ledger rows; return a list of error messages.

    Catches the quiet corruption modes a diff-based checker would
    otherwise misread: a renamed stage (its timings silently drop out of
    the comparison), a stage recorded in the wrong unit (seconds instead
    of nanoseconds parse as sub-MIN_STAGE_NS noise), and rows appended
    out of order (the "latest two" diff compares the wrong pair). The
    timestamp is optional — older ledgers predate it — but when present
    it must be a non-negative integer and non-decreasing per group.
    """
    errors = []
    last_ts = {}
    for i, r in enumerate(rows):
        where = f"row {i}"
        if not isinstance(r, dict):
            errors.append(f"{where}: not an object")
            continue
        if isinstance(r.get("experiment"), str) and isinstance(r.get("method"), str):
            where = f"row {i} ({r['experiment']}/{r['method']})"
        for field in ("experiment", "method"):
            if not isinstance(r.get(field), str) or not r.get(field):
                errors.append(f"{where}: '{field}' must be a non-empty string")
        for field in ("n", "d", "threads", "iterations", "wall_ns"):
            v = r.get(field)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                errors.append(f"{where}: '{field}' must be a non-negative integer")
        stages = r.get("stages_ns")
        if not isinstance(stages, dict):
            errors.append(f"{where}: 'stages_ns' must be an object")
        else:
            for stage, v in stages.items():
                if stage not in TRACKED_STAGES:
                    errors.append(
                        f"{where}: unknown stage '{stage}' "
                        f"(tracked: {', '.join(TRACKED_STAGES)})"
                    )
                elif not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    errors.append(
                        f"{where}: stage '{stage}' must be non-negative "
                        "integer nanoseconds"
                    )
        ts = r.get("timestamp_ms")
        if ts is not None:
            if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
                errors.append(
                    f"{where}: 'timestamp_ms' must be a non-negative integer"
                )
            else:
                key = group_key(r)
                if key in last_ts and ts < last_ts[key]:
                    errors.append(
                        f"{where}: timestamp_ms {ts} goes backwards within "
                        f"its group (previous row had {last_ts[key]})"
                    )
                last_ts[key] = ts
    return errors


def check(rows, threshold):
    """Return a list of (ratio, message) pairs for >threshold regressions.

    ratio is after/before, so callers can re-filter against a harder
    limit (--fail-over) without re-walking the ledger.
    """
    groups = {}
    for row in rows:
        groups.setdefault(group_key(row), []).append(row)
    findings = []
    for key, series in groups.items():
        if len(series) < 2:
            continue
        prev, last = series[-2], series[-1]
        prev_stages = prev.get("stages_ns", {})
        last_stages = last.get("stages_ns", {})
        for stage in TRACKED_STAGES:
            before = prev_stages.get(stage, 0)
            after = last_stages.get(stage, 0)
            if before < MIN_STAGE_NS or after < MIN_STAGE_NS:
                continue
            if after > before * (1.0 + threshold):
                experiment, method, n, d, threads = key
                findings.append((
                    after / before,
                    f"{experiment}/{method} (n={n}, d={d}, t={threads}): "
                    f"stage '{stage}' regressed {after / before:.2f}x "
                    f"({before} ns -> {after} ns)",
                ))
    return findings


def main(argv):
    threshold = 0.15
    fail_over = None
    require_rows = False
    path = "target/paper_results/BENCH_egg.json"
    args = list(argv[1:])
    while args:
        arg = args.pop(0)
        if arg == "--threshold":
            threshold = float(args.pop(0))
        elif arg == "--fail-over":
            fail_over = float(args.pop(0))
        elif arg == "--require-rows":
            require_rows = True
        else:
            path = arg

    try:
        with open(path, encoding="utf-8") as f:
            rows = json.load(f)
    except FileNotFoundError:
        print(f"::error::benchmark ledger {path} not found")
        return 1
    except json.JSONDecodeError as e:
        print(f"::error::benchmark ledger {path} is not valid JSON: {e}")
        return 1
    if not isinstance(rows, list):
        print(f"::error::benchmark ledger {path} is not a JSON array")
        return 1
    if require_rows and not rows:
        print(f"::error::benchmark ledger {path} has zero rows — the bench "
              "harness ran but appended nothing (see append_bench_ledger)")
        return 1

    print(f"{len(rows)} ledger row(s) in {path}")
    schema_errors = validate_rows(rows)
    if schema_errors:
        for message in schema_errors:
            print(f"::error::ledger schema: {message}")
        return 1
    findings = check(rows, threshold)
    failed = False
    for ratio, message in findings:
        if fail_over is not None and ratio > 1.0 + fail_over:
            print(f"::error::{message} (over the {fail_over:.0%} hard limit)")
            failed = True
        else:
            print(f"::warning::{message}")
    if not findings:
        print(f"no stage regressed by more than {threshold:.0%}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
