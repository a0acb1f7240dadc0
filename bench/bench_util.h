// Shared plumbing for the figure/table reproduction binaries.
//
// Every bench accepts:
//   --hours <H>    evaluation-trace length (default 48, the paper's span)
//   --gpus <N>     cluster size (default 10, the paper's testbed)
//   --seed <S>     global seed (default 1)
//   --out <dir>    directory for CSV dumps (default "bench_out")
// and prints aligned tables whose rows mirror the paper exhibit.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "carbon/trace_generator.h"
#include "core/harness.h"

namespace clover::bench {

struct Flags {
  double hours = 48.0;
  int gpus = 10;
  std::uint64_t seed = 1;
  std::string out_dir = "bench_out";
};

Flags ParseFlags(int argc, char** argv);

// Evaluation trace for a profile at the flags' duration/seed.
carbon::CarbonTrace EvalTrace(carbon::TraceProfile profile,
                              const Flags& flags);

// Evaluation trace for a named region preset (fig16 and the fleet bench
// share these inputs; see carbon::NamedRegionPresets).
carbon::CarbonTrace EvalTrace(const carbon::RegionPreset& preset,
                              const Flags& flags);

// Runs experiments in parallel across worker threads (each worker owns an
// ExperimentHarness; determinism makes results independent of placement).
std::vector<core::RunReport> RunAll(
    const std::vector<core::ExperimentConfig>& configs, int parallelism = 2);

// Ensures flags.out_dir exists and returns "<out_dir>/<file>".
std::string OutPath(const Flags& flags, const std::string& file);

// Header banner with the reproduction context.
void PrintBanner(const std::string& exhibit, const Flags& flags);

// Monotonic wall-clock stopwatch every timed scenario uses.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace clover::bench
