#!/usr/bin/env bash
# Tier-1 verify: configure -> build -> ctest, the loop CI runs on every
# push. Usage: scripts/verify.sh [build-dir] (default: build).
#
# Opt-outs for a quick inner-loop run (CI always runs everything):
#   CLOVER_SKIP_SANITIZE=1  skip the sanitizer builds (ASan+UBSan Debug, TSan)
#   CLOVER_SKIP_CAMPAIGN=1  skip the campaign smoke run
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

# Failing gates self-diagnose into triage/<name>/ bundles (config, seeds,
# metrics, trace tails, repro.sh — docs/OBSERVABILITY.md). Mirror CI's
# `if: failure()` artifact upload by pointing at whatever bundles the
# failed run left behind.
list_triage_bundles() {
  local status=$?
  if [[ $status -ne 0 ]]; then
    local bundles
    bundles=$(find . -type d -name triage -not -path './.git/*' \
      -exec find {} -mindepth 1 -maxdepth 1 -type d \; 2>/dev/null || true)
    if [[ -n "$bundles" ]]; then
      echo "verify.sh: triage bundles from this failure (see repro.sh inside):" >&2
      printf '  %s\n' $bundles >&2
    fi
  fi
}
trap list_triage_bundles EXIT

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# The gate's own regression tests, then the perf baseline: the
# bench_runner_smoke ctest above already ran the smoke suite
# (fleet_routing + fault_recovery + the campaign-routed e2e_step + the
# fluid meanfield_fleet + the loopback live_serving run included) and
# wrote its JSON; validate the schema and required scenarios and hard-gate
# against the committed baseline (regressions beyond the per-scenario
# tolerance fail when host_cores match the baseline's; the validator
# demotes them to warnings on different hardware — mirrors the CI step).
# The committed baseline is Release-built, so — like CI — the compare only
# runs for Release build dirs; Debug numbers would trip on every run.
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
  "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)"
BASELINE_ARGS=()
if [[ "${BUILD_TYPE:-Release}" == "Release" ]]; then
  BASELINE_ARGS=(--baseline BENCH_smoke.json --tolerance 25 --hard)
fi
if command -v python3 >/dev/null; then
  python3 scripts/test_validate_bench_json.py
  python3 scripts/validate_bench_json.py \
    --require-scenario fleet_routing \
    --require-scenario fault_recovery \
    --require-scenario e2e_step \
    --require-scenario fleet_lanes \
    --require-scenario opt_screened \
    --require-scenario meanfield_fleet \
    --require-scenario live_serving \
    --require-scenario obs_overhead \
    ${BASELINE_ARGS[@]+"${BASELINE_ARGS[@]}"} \
    "$BUILD_DIR"/bench/bench_smoke_out/BENCH_smoke.json
fi

# Flight-recorder smoke: a short loadgen run with tracing on, then
# validate both its trace and the one the bench smoke suite wrote
# (mirrors the CI trace-smoke step; see docs/OBSERVABILITY.md).
if command -v python3 >/dev/null; then
  "$BUILD_DIR"/examples/clover_loadgen --hours 0.25 --workers 2 \
    --trace-out "$BUILD_DIR/trace_smoke.json" \
    --metrics-out "$BUILD_DIR/metrics_smoke.json"
  python3 scripts/validate_trace_json.py \
    "$BUILD_DIR/trace_smoke.json" \
    "$BUILD_DIR"/bench/bench_smoke_out/TRACE_smoke.json
fi

# Campaign smoke: the declarative campaign path end to end — spec reader,
# grid expansion, the one campaign executor, consolidated clover-bench-v1
# artifact — validated by the same script (mirrors the CI campaign-smoke
# step).
if [[ "${CLOVER_SKIP_CAMPAIGN:-}" != 1 ]]; then
  "$BUILD_DIR"/examples/clover_campaign run campaigns/smoke.json \
    --threads 2 --out "$BUILD_DIR/campaign_out"
  if command -v python3 >/dev/null; then
    python3 scripts/validate_bench_json.py \
      "$BUILD_DIR"/campaign_out/CAMPAIGN_smoke.json
  fi
  # One executor, one format (docs/CAMPAIGNS.md): the 2-thread fold must
  # be byte-identical to the 1- and 2-worker folds of the same spec.
  for w in 1 2; do
    "$BUILD_DIR"/examples/clover_campaign run campaigns/smoke.json \
      --workers $w --out "$BUILD_DIR/campaign_w$w"
    cmp "$BUILD_DIR"/campaign_out/CAMPAIGN_smoke.json \
      "$BUILD_DIR/campaign_w$w/CAMPAIGN_smoke.json"
  done
  # Both fleet tiers (discrete-event CLOVER regions, 1000 fluid regions):
  # the same threads-vs-workers byte-identity, plus the schema check. At
  # --threads 1 both router cells share one slot's harness, so the second
  # reuses the first's calibration; its fold must equal the 2-thread one.
  for name in fleet_routing_toy fleet_1000region_toy; do
    "$BUILD_DIR"/examples/clover_campaign run "campaigns/$name.json" \
      --threads 2 --out "$BUILD_DIR/campaign_${name}_t2"
    "$BUILD_DIR"/examples/clover_campaign run "campaigns/$name.json" \
      --threads 1 --out "$BUILD_DIR/campaign_${name}_t1"
    cmp "$BUILD_DIR/campaign_${name}_t2/CAMPAIGN_$name.json" \
      "$BUILD_DIR/campaign_${name}_t1/CAMPAIGN_$name.json"
    for w in 1 2; do
      "$BUILD_DIR"/examples/clover_campaign run "campaigns/$name.json" \
        --workers $w --out "$BUILD_DIR/campaign_${name}_w$w"
      cmp "$BUILD_DIR/campaign_${name}_t2/CAMPAIGN_$name.json" \
        "$BUILD_DIR/campaign_${name}_w$w/CAMPAIGN_$name.json"
    done
    if command -v python3 >/dev/null; then
      python3 scripts/validate_bench_json.py \
        "$BUILD_DIR/campaign_${name}_t2/CAMPAIGN_$name.json"
    fi
  done
  # The self-contained HTML report (mirrors the CI report step).
  if command -v python3 >/dev/null; then
    python3 scripts/campaign_report.py \
      --out "$BUILD_DIR/campaign_report.html" \
      "$BUILD_DIR"/campaign_out/CAMPAIGN_smoke.json
  fi
fi

# ASan + UBSan, then ThreadSanitizer, sweeps of the unit suite (mirror the
# CI sanitize and tsan jobs).
if [[ "${CLOVER_SKIP_SANITIZE:-}" != 1 ]]; then
  cmake -B "$BUILD_DIR-asan" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCLOVER_SANITIZE=ON
  cmake --build "$BUILD_DIR-asan" -j "$(nproc)"
  ctest --test-dir "$BUILD_DIR-asan" -L unit --output-on-failure -j "$(nproc)"

  cmake -B "$BUILD_DIR-tsan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCLOVER_LTO=OFF -DCMAKE_CXX_FLAGS=-fsanitize=thread \
    -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread
  cmake --build "$BUILD_DIR-tsan" -j "$(nproc)"
  ctest --test-dir "$BUILD_DIR-tsan" -L unit --output-on-failure -j "$(nproc)"
  # A CLOVER flood through the twin handoff, two workers racing.
  "$BUILD_DIR-tsan/examples/clover_loadgen" --hours 2 --workers 2
fi
