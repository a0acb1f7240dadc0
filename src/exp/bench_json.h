// The clover-bench-v1 performance document: one schema, one emission code
// path, shared by every producer — the bench binaries (bench_runner and the
// figure benches include this header directly) and the campaign runner
// (exp/runner.h), whose consolidated CAMPAIGN_<name>.json embeds the same
// scenario rows plus a campaign block. scripts/validate_bench_json.py
// validates both artifacts, and CI's baseline compare keys rows by
// scenario name — which is why duplicate names are rejected at write time.
//
//   ScenarioTiming       one benchmark scenario's metrics (the JSON row)
//   SuiteTiming          a named suite of scenarios (one document)
//   FromReports          harness RunReports -> ScenarioTiming (events/sec,
//                        p50/p99 over the runs' simulated latencies)
//   WriteSuiteFields     emits the document fields into an open JSON
//                        object (callers may append extra keys)
//   WriteBenchJson       emits a complete document to a file
//   PrintSuiteTable      the aligned human table of the same data
//
// Schema (clover-bench-v1):
//   { "schema": "clover-bench-v1", "suite": str, "threads": int,
//     "host_cores": int, "seed": int, "build": str, "scenarios": [ {
//         "name": str, "wall_seconds": num, "events": int,
//         "events_per_sec": num, "candidates": int,
//         "candidates_per_sec": num, "sim_p50_ms": num, "sim_p99_ms": num,
//         "speedup_vs_serial": num, "deterministic": bool, "notes": str
//     } ... ] }
// Fields that do not apply to a scenario are 0 (numbers) / true / "".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/harness.h"

namespace clover::exp {

struct ScenarioTiming {
  std::string name;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;          // simulated events processed
  double events_per_sec = 0.0;       // events / wall_seconds
  std::uint64_t candidates = 0;      // optimizer candidates evaluated
  double candidates_per_sec = 0.0;   // candidates / wall_seconds
  double sim_p50_ms = 0.0;           // simulated request latency
  double sim_p99_ms = 0.0;
  double speedup_vs_serial = 0.0;    // parallel scenarios only (0 = n/a)
  bool deterministic = true;         // parallel == serial results?
  std::string notes;
};

struct SuiteTiming {
  std::string suite;
  int threads = 1;
  // Hardware concurrency of the machine that produced the numbers —
  // without it a 0.9x "speedup" on a core-starved host is
  // indistinguishable from a real parallelization regression. Filled at
  // write time when left at 0.
  int host_cores = 0;
  std::uint64_t seed = 1;
  std::vector<ScenarioTiming> scenarios;
};

// Aggregates harness reports into one scenario row: events and events/sec
// are summed over the reports; p50/p99 are the worst (largest) across the
// reports — the conservative read for an SLO-focused suite.
ScenarioTiming FromReports(const std::string& name, double wall_seconds,
                           const std::vector<core::RunReport>& reports);

// Writes the clover-bench-v1 fields of `suite` into the currently open
// JSON object (the caller owns BeginObject/EndObject and may append extra
// keys afterwards). Throws CheckError on duplicate scenario names — the
// baseline compare keys rows by name, so a duplicate would silently shadow
// a measurement.
void WriteSuiteFields(JsonWriter* json, const SuiteTiming& suite);

// Writes a complete clover-bench-v1 document (BENCH_<suite>.json) to
// `path`.
void WriteBenchJson(const SuiteTiming& suite, const std::string& path);

// Prints the suite as an aligned human table (same values as the JSON).
void PrintSuiteTable(const SuiteTiming& suite);

}  // namespace clover::exp
