#!/usr/bin/env python3
"""Validate BENCH_*.json / CAMPAIGN_*.json files (clover-bench-v1) and
gate them against a baseline.

Usage:
  validate_bench_json.py [--require-scenario NAME]...
                         [--baseline FILE] [--tolerance PCT] [--hard]
                         FILE [FILE...]

Schema mode (always on): exits nonzero (with a message per problem) when a
file is malformed — unparsable JSON, wrong schema tag, missing/of-the-
wrong-type fields, physically impossible values (negative wall time, empty
suite), or duplicate scenario names (a baseline compare keys rows by name,
so a duplicate would silently shadow a measurement).

--require-scenario NAME (repeatable) additionally fails when a file lacks
a scenario row with that name — CI uses it so a suite can never silently
drop a scenario (e.g. fleet_routing) from the baseline artifact.

Baseline mode (--baseline FILE, default tolerance 25%): compares each
candidate FILE against the baseline by scenario name.
  * HARD failures (exit 1): a scenario present in the baseline is missing
    from the candidate (dropped coverage), or either file fails schema
    validation.
  * Metric findings: throughput (events_per_sec, candidates_per_sec)
    lower, simulated latency (sim_p50_ms, sim_p99_ms) higher, or parallel
    speedup (speedup_vs_serial) lower, than the baseline by more than the
    tolerance. Without --hard these are SOFT (exit 0): GitHub `::warning::`
    annotations plus a markdown table appended to $GITHUB_STEP_SUMMARY
    (printed to stdout when the variable is unset). A `deterministic:
    false` row is already a hard failure at bench time via the producer's
    exit status.
  * --hard promotes metric findings to hard failures (exit 1) — but only
    when the candidate and the baseline report the same host_cores. On a
    different host the wall-clock columns still get compared and reported
    (throughput and simulated latency are meaningful cross-host signals,
    just noisier), but stay soft even under --hard: failing a job over
    hardware drift would teach people to ignore the gate. Scenarios new
    in the candidate (no baseline row yet) are never compared — the first
    run that introduces a scenario establishes its baseline, it cannot
    regress against nothing.
  * speedup_vs_serial is only compared when host_cores match: a speedup
    measured on a 16-core runner says nothing about a 2-core one (on a
    core-starved host the "speedup" is legitimately ~1x), so cross-host
    comparisons of that metric are skipped with a note. Everything else
    IS compared cross-host (see above) — only this one column is
    host-scoped.
  * Per-scenario tolerance: SCENARIO_TOLERANCE_PCT widens the gate for
    scenarios whose smoke-scale wall time is milliseconds (where scheduler
    jitter dominates); --tolerance sets the default for the rest.

Stdlib only (json, os, sys) — no pip dependencies.
"""

import json
import os
import sys

SCENARIO_FIELDS = {
    "name": str,
    "wall_seconds": (int, float),
    "events": int,
    "events_per_sec": (int, float),
    "candidates": int,
    "candidates_per_sec": (int, float),
    "sim_p50_ms": (int, float),
    "sim_p99_ms": (int, float),
    "speedup_vs_serial": (int, float),
    "deterministic": bool,
    "notes": str,
}

# The JSON writer encodes non-finite doubles as null (src/common/json.cc),
# so null is legal for the floating-point metrics and nothing else.
NULLABLE_FIELDS = {
    field
    for field, expected in SCENARIO_FIELDS.items()
    if expected == (int, float)
}

TOP_FIELDS = {
    "schema": str,
    "suite": str,
    "threads": int,
    "host_cores": int,
    "seed": int,
    "build": str,
    "scenarios": list,
}

# Per-scenario tolerance overrides (percent). Scenarios whose smoke-scale
# wall time is a handful of milliseconds measure scheduler jitter as much
# as the code; their gate is wider than the --tolerance default.
SCENARIO_TOLERANCE_PCT = {
    "opt_screened": 35.0,   # ~10 ms of wall at smoke scale
    "live_serving": 40.0,   # loopback TCP wall clock
    "obs_overhead": 40.0,   # differences of small wall times
    "meanfield_fleet": 50.0,  # whole scenario is ~10 ms at smoke scale
}

# Metrics the baseline compare judges: (field, direction). "higher" means
# larger-is-better (throughput); "lower" means smaller-is-better (latency).
COMPARE_METRICS = (
    ("events_per_sec", "higher"),
    ("candidates_per_sec", "higher"),
    ("sim_p50_ms", "lower"),
    ("sim_p99_ms", "lower"),
    # Host-dependent: only compared when host_cores matches the baseline
    # (see module docstring).
    ("speedup_vs_serial", "higher"),
)


def validate(path, required_scenarios=()):
    problems = []
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return [f"{path}: unreadable or unparsable: {error}"]

    if not isinstance(doc, dict):
        return [f"{path}: top level is not an object"]

    for field, expected in TOP_FIELDS.items():
        if field not in doc:
            problems.append(f"{path}: missing top-level field '{field}'")
        elif not isinstance(doc[field], expected) or (
            # bool is an int subclass in Python; no top-level field is bool.
            isinstance(doc[field], bool)
        ):
            problems.append(
                f"{path}: field '{field}' has type "
                f"{type(doc[field]).__name__}, expected {expected}"
            )
    if problems:
        return problems

    if doc["schema"] != "clover-bench-v1":
        problems.append(f"{path}: unknown schema '{doc['schema']}'")
    if doc["threads"] < 1:
        problems.append(f"{path}: threads must be >= 1, got {doc['threads']}")
    if doc["host_cores"] < 1:
        problems.append(
            f"{path}: host_cores must be >= 1, got {doc['host_cores']}"
        )
    if not doc["scenarios"]:
        problems.append(f"{path}: empty scenario list")

    for i, scenario in enumerate(doc["scenarios"]):
        where = f"{path}: scenarios[{i}]"
        if not isinstance(scenario, dict):
            problems.append(f"{where}: not an object")
            continue
        for field, expected in SCENARIO_FIELDS.items():
            if field not in scenario:
                problems.append(f"{where}: missing field '{field}'")
            elif scenario[field] is None:
                if field not in NULLABLE_FIELDS:
                    problems.append(f"{where}: field '{field}' is null")
            elif not isinstance(scenario[field], expected):
                # bool is an int subclass in Python; keep them distinct.
                problems.append(
                    f"{where}: field '{field}' has type "
                    f"{type(scenario[field]).__name__}"
                )
            elif field != "deterministic" and isinstance(scenario[field], bool):
                problems.append(f"{where}: field '{field}' is a bool")
        if isinstance(scenario.get("wall_seconds"), (int, float)) and (
            scenario["wall_seconds"] is not None and scenario["wall_seconds"] < 0
        ):
            problems.append(f"{where}: negative wall_seconds")
        if isinstance(scenario.get("name"), str) and not scenario["name"]:
            problems.append(f"{where}: empty name")

    present = {}
    for i, scenario in enumerate(doc["scenarios"]):
        if not isinstance(scenario, dict):
            continue
        name = scenario.get("name")
        if not isinstance(name, str):
            continue
        if name in present:
            # A duplicate would make a baseline compare (and any consumer
            # keying rows by name) silently pick one of the two rows.
            problems.append(
                f"{path}: duplicate scenario name '{name}' "
                f"(scenarios[{present[name]}] and scenarios[{i}])"
            )
        else:
            present[name] = i
    for name in required_scenarios:
        if name not in present:
            problems.append(f"{path}: missing required scenario '{name}'")
    return problems


def load_doc(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def scenario_map(doc):
    return {
        scenario["name"]: scenario
        for scenario in doc["scenarios"]
        if isinstance(scenario, dict) and isinstance(scenario.get("name"), str)
    }


def tolerance_for(name, default_pct):
    return SCENARIO_TOLERANCE_PCT.get(name, default_pct)


def compare_against_baseline(path, baseline_path, tolerance_pct, hard_mode):
    """Returns (hard_problems, soft_regressions).

    soft_regressions: list of (scenario, metric, baseline, candidate,
    delta_pct, tol_pct) tuples where delta_pct is the relative change in
    the "bad" direction that exceeded tol_pct. With hard_mode and matching
    host_cores they land in hard_problems instead (see module docstring).
    """
    hard = []
    soft = []
    base_doc = load_doc(baseline_path)
    cand_doc = load_doc(path)
    base = scenario_map(base_doc)
    cand = scenario_map(cand_doc)
    # Parallel speedup depends on the core count the run had to work with;
    # comparing it across hosts manufactures regressions out of hardware.
    # The other metrics stay compared cross-host, but findings stay soft.
    same_host = base_doc.get("host_cores") == cand_doc.get("host_cores")
    if not same_host:
        print(
            f"note: {path} ran on {cand_doc.get('host_cores')} host cores vs "
            f"baseline's {base_doc.get('host_cores')}; skipping "
            "speedup_vs_serial comparison"
            + (" and demoting --hard findings to soft" if hard_mode else "")
        )
    for name in base:
        if name not in cand:
            hard.append(
                f"{path}: scenario '{name}' present in baseline "
                f"{baseline_path} was dropped"
            )
    for name, base_row in base.items():
        cand_row = cand.get(name)
        if cand_row is None:
            continue
        tol_pct = tolerance_for(name, tolerance_pct)
        for metric, direction in COMPARE_METRICS:
            if metric == "speedup_vs_serial" and not same_host:
                continue
            base_value = base_row.get(metric)
            cand_value = cand_row.get(metric)
            # Nulls (non-finite at emit time) and zero baselines carry no
            # regression signal for a ratio test.
            if not isinstance(base_value, (int, float)) or isinstance(
                base_value, bool
            ):
                continue
            if not isinstance(cand_value, (int, float)) or isinstance(
                cand_value, bool
            ):
                continue
            if base_value <= 0:
                continue
            if direction == "higher":
                delta_pct = (base_value - cand_value) / base_value * 100.0
            else:
                delta_pct = (cand_value - base_value) / base_value * 100.0
            if delta_pct > tol_pct:
                if hard_mode and same_host:
                    hard.append(
                        f"{path}: perf hard-gate: {name}.{metric} "
                        f"{base_value:.6g} -> {cand_value:.6g} "
                        f"({delta_pct:+.1f}% worse, tolerance {tol_pct:g}%)"
                    )
                else:
                    soft.append(
                        (name, metric, base_value, cand_value, delta_pct,
                         tol_pct)
                    )
    return hard, soft


def emit_soft_report(path, baseline_path, regressions):
    for name, metric, base_value, cand_value, delta_pct, tol_pct in (
        regressions
    ):
        # GitHub annotation; a no-op string on other terminals.
        print(
            f"::warning file={path}::perf soft-gate: {name}.{metric} "
            f"{base_value:.6g} -> {cand_value:.6g} "
            f"({delta_pct:+.1f}% worse, tolerance {tol_pct:g}%)"
        )
    lines = [
        "### Perf soft-gate: regressions beyond tolerance",
        "",
        f"`{path}` vs baseline `{baseline_path}` — soft findings only "
        "(CI runners are noisy; investigate before merging, the job stays "
        "green):",
        "",
        "| scenario | metric | baseline | candidate | change | tolerance |",
        "|---|---|---:|---:|---:|---:|",
    ]
    for name, metric, base_value, cand_value, delta_pct, tol_pct in (
        regressions
    ):
        lines.append(
            f"| {name} | {metric} | {base_value:.6g} | {cand_value:.6g} "
            f"| {delta_pct:+.1f}% worse | {tol_pct:g}% |"
        )
    text = "\n".join(lines) + "\n"
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text)


def main(argv):
    required = []
    baseline = None
    tolerance = 25.0
    hard_mode = False
    paths = []
    i = 1
    while i < len(argv):
        if argv[i] == "--require-scenario":
            if i + 1 >= len(argv):
                print("--require-scenario needs a value", file=sys.stderr)
                return 2
            required.append(argv[i + 1])
            i += 2
        elif argv[i] == "--baseline":
            if i + 1 >= len(argv):
                print("--baseline needs a value", file=sys.stderr)
                return 2
            baseline = argv[i + 1]
            i += 2
        elif argv[i] == "--hard":
            hard_mode = True
            i += 1
        elif argv[i] == "--tolerance":
            if i + 1 >= len(argv):
                print("--tolerance needs a value", file=sys.stderr)
                return 2
            try:
                tolerance = float(argv[i + 1])
            except ValueError:
                print(f"bad --tolerance '{argv[i + 1]}'", file=sys.stderr)
                return 2
            if not tolerance > 0:
                print("--tolerance must be > 0", file=sys.stderr)
                return 2
            i += 2
        else:
            paths.append(argv[i])
            i += 1
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    all_problems = []
    for path in paths:
        all_problems.extend(validate(path, required))

    if baseline is not None:
        # The baseline itself must be schema-valid (no required scenarios:
        # it may predate a newly added one) before ratios mean anything.
        baseline_problems = validate(baseline)
        all_problems.extend(baseline_problems)
        if not all_problems:
            for path in paths:
                hard, soft = compare_against_baseline(
                    path, baseline, tolerance, hard_mode
                )
                all_problems.extend(hard)
                if soft:
                    emit_soft_report(path, baseline, soft)

    for problem in all_problems:
        print(f"FAIL {problem}", file=sys.stderr)
    if not all_problems:
        for path in paths:
            print(f"ok {path}")
    return 1 if all_problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
