// Shared plumbing for the figure/table reproduction binaries.
//
// Every bench accepts:
//   --hours <H>    evaluation-trace length (default 48, the paper's span)
//   --gpus <N>     cluster size (default 10, the paper's testbed)
//   --seed <S>     global seed (default 1)
//   --out <dir>    directory for CSV dumps and campaign journals (default
//                  "bench_out")
// and prints aligned tables whose rows mirror the paper exhibit.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "carbon/trace_generator.h"
#include "core/harness.h"
#include "exp/campaign.h"

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

// Single-cluster campaign cell on the CISO March trace at the flags'
// duration, cluster size and seed.
exp::CellSpec EvalCell(models::Application app, core::Scheme scheme,
                       const Flags& flags);

// Runs the cells through the campaign executor (exp::RunCampaign, 2
// threads) into "<out_dir>/campaign_<name>/" and returns their reports in
// cell order.
std::vector<core::RunReport> RunCells(const std::string& name,
                                      const std::vector<exp::CellSpec>& cells,
                                      const Flags& flags);

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
