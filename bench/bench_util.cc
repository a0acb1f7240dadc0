#include "bench_util.h"

#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "common/check.h"
#include "exp/runner.h"

namespace clover::bench {

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      CLOVER_CHECK_MSG(i + 1 < argc, "missing value for " << arg);
      return argv[++i];
    };
    if (arg == "--hours") {
      flags.hours = std::stod(next());
    } else if (arg == "--gpus") {
      flags.gpus = std::stoi(next());
    } else if (arg == "--seed") {
      flags.seed = std::stoull(next());
    } else if (arg == "--out") {
      flags.out_dir = next();
    } else if (arg == "--help") {
      std::cout << "flags: --hours H --gpus N --seed S --out DIR\n";
      std::exit(0);
    } else {
      std::cerr << "unknown flag " << arg << " (see --help)\n";
      std::exit(2);
    }
  }
  return flags;
}

carbon::CarbonTrace EvalTrace(carbon::TraceProfile profile,
                              const Flags& flags) {
  carbon::TraceGeneratorOptions options;
  options.duration_hours = flags.hours;
  options.seed = flags.seed + 41;  // independent of simulation streams
  return GenerateTrace(profile, options);
}

exp::CellSpec EvalCell(models::Application app, core::Scheme scheme,
                       const Flags& flags) {
  exp::CellSpec cell;
  cell.app = app;
  cell.scheme = scheme;
  cell.trace = "ciso-march";
  cell.hours = flags.hours;
  cell.gpus = flags.gpus;
  cell.seed = flags.seed;
  return cell;
}

std::vector<core::RunReport> RunCells(const std::string& name,
                                      const std::vector<exp::CellSpec>& cells,
                                      const Flags& flags) {
  exp::CampaignSpec spec;
  spec.name = name;
  spec.threads = 2;
  spec.cells = cells;
  spec.grid_cells = static_cast<int>(cells.size());
  exp::CampaignOptions options;
  options.out_dir = flags.out_dir + "/campaign_" + name;
  exp::CampaignResult result = exp::RunCampaign(spec, options);
  std::vector<core::RunReport> reports;
  reports.reserve(result.cells.size());
  for (exp::CellOutcome& outcome : result.cells)
    reports.push_back(std::move(outcome.report));
  return reports;
}

std::string OutPath(const Flags& flags, const std::string& file) {
  std::filesystem::create_directories(flags.out_dir);
  return flags.out_dir + "/" + file;
}

void PrintBanner(const std::string& exhibit, const Flags& flags) {
  std::cout << "==== " << exhibit << " ====\n"
            << "trace span " << flags.hours << " h | " << flags.gpus
            << " GPUs | seed " << flags.seed << "\n\n";
}

}  // namespace clover::bench
