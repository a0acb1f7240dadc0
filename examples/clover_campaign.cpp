// clover_campaign: the declarative experiment-campaign front end.
//
//   clover_campaign list [DIR]          summarize every spec in DIR
//                                       (default: campaigns/)
//   clover_campaign validate FILE...    parse + expand, print the grid;
//                                       exit 1 on the first bad spec
//   clover_campaign run FILE            execute a campaign
//       [--threads N]                   pool slots per process (default:
//                                       spec)
//       [--out DIR]                     output root (default campaign_out)
//       [--resume]                      adopt <out>/runs/ journals
//       [--workers N]                   fork N cooperating worker
//                                       processes (default 1)
//       [--claim-ttl S]                 heartbeat staleness bound for
//                                       claim stealing (default 30)
//       [--trace-out F]                 Chrome trace dump (enables obs)
//       [--metrics-out F]               metrics snapshot dump (enables obs)
//   clover_campaign worker FILE ...     join an in-progress campaign from
//                                       another shell/host sharing the same
//                                       --out directory (= run --resume)
//   clover_campaign resume FILE ...     = run --resume
//
// Every mode runs the same executor (exp/runner.h; protocol specified in
// docs/CAMPAIGNS.md): cells are claimed, executed on the thread pool and
// journaled to <out>/runs/<cell>.json, then folded into
// <out>/CAMPAIGN_<name>.json — a clover-bench-v1 document (validated by
// scripts/validate_bench_json.py, same as every BENCH_*.json) plus a
// "campaign" summary block. The fold is byte-identical at any thread or
// worker count, across crashes, and whichever process folds. Exit status:
// 0 on success, 1 on any spec or execution failure, 2 on usage errors.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/table.h"
#include "exp/campaign.h"
#include "exp/journal.h"
#include "exp/runner.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using clover::exp::CampaignMode;
using clover::exp::CampaignOptions;
using clover::exp::CampaignResult;
using clover::exp::CampaignSpec;

int Usage() {
  std::cerr << "usage: clover_campaign list [DIR]\n"
               "       clover_campaign validate FILE...\n"
               "       clover_campaign run FILE [--threads N] [--out DIR] "
               "[--resume] [--workers N] [--claim-ttl S] "
               "[--trace-out F] [--metrics-out F]\n"
               "       clover_campaign worker FILE [run flags]\n"
               "       clover_campaign resume FILE [run flags]\n";
  return 2;
}

const char* ModeName(CampaignMode mode) {
  return mode == CampaignMode::kFleet ? "fleet" : "single";
}

int ListCampaigns(const std::string& dir) {
  if (!std::filesystem::is_directory(dir)) {
    std::cerr << "clover_campaign: " << dir << " is not a directory\n";
    return 1;
  }
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file() && entry.path().extension() == ".json")
      paths.push_back(entry.path().string());
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    std::cout << "no campaign specs in " << dir << "\n";
    return 0;
  }
  clover::TextTable table({"file", "name", "mode", "cells", "description"});
  bool any_bad = false;
  for (const std::string& path : paths) {
    try {
      const CampaignSpec spec = clover::exp::LoadCampaignSpec(path);
      table.AddRow({std::filesystem::path(path).filename().string(),
                    spec.name, ModeName(spec.mode),
                    std::to_string(spec.cells.size()), spec.description});
    } catch (const std::exception& error) {
      any_bad = true;
      table.AddRow({std::filesystem::path(path).filename().string(),
                    "INVALID", "-", "-", error.what()});
    }
  }
  table.Print(std::cout);
  return any_bad ? 1 : 0;
}

int ValidateCampaigns(const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    try {
      const CampaignSpec spec = clover::exp::LoadCampaignSpec(path);
      std::cout << "ok " << path << ": campaign \"" << spec.name << "\" ("
                << ModeName(spec.mode) << "), " << spec.grid_cells
                << " grid cells, " << spec.cells.size() << " unique\n";
      for (const clover::exp::CellSpec& cell : spec.cells)
        std::cout << "   " << cell.Name() << "\n";
    } catch (const std::exception& error) {
      std::cerr << "FAIL " << path << ": " << error.what() << "\n";
      return 1;
    }
  }
  return 0;
}

// One process's share of the campaign; the fold it publishes is the same
// whichever process gets there.
int RunWorker(const CampaignSpec& spec, const CampaignOptions& options) {
  try {
    const CampaignResult result = clover::exp::RunCampaign(spec, options);
    std::cout << (options.print_tables ? "\n" : "") << "ran "
              << result.executed_cells << " of " << result.cells.size()
              << " cells (" << result.resumed_cells << " resumed) in "
              << clover::TextTable::Num(result.wall_seconds, 1)
              << " s\nwrote " << result.consolidated_path << "\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "FAIL " << spec.name << ": " << error.what() << "\n";
    return 1;
  }
}

// Forks workers - 1 children and participates as the last worker. Every
// worker folds once it observes all cells journaled; the folds are
// byte-identical and published atomically, so concurrent folders are fine.
int RunCampaignFile(const std::string& path, CampaignOptions options,
                    int workers, const std::string& trace_out,
                    const std::string& metrics_out) {
  CampaignSpec spec;
  try {
    spec = clover::exp::LoadCampaignSpec(path);
  } catch (const std::exception& error) {
    std::cerr << "FAIL " << path << ": " << error.what() << "\n";
    return 1;
  }
  std::cout << "==== campaign " << spec.name << " ====\n"
            << spec.cells.size() << " unique cells ("
            << spec.grid_cells - static_cast<int>(spec.cells.size())
            << " duplicates removed) | " << workers << " worker(s) x "
            << (options.threads > 0 ? options.threads : spec.threads)
            << " threads | "
            << (options.resume ? "resuming from " : "fresh run in ")
            << options.out_dir << "\n\n";
  // A fresh run forgets earlier results once, before any worker starts;
  // from then on every worker adopts the journals its peers commit.
  if (!options.resume)
    clover::exp::RemoveJournalsAndClaims(spec, options.out_dir);
  options.resume = true;
  std::cout.flush();  // forked children inherit stdio buffers

  std::vector<pid_t> children;
  for (int w = 1; w < workers; ++w) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::cerr << "clover_campaign: fork failed\n";
      break;  // run with the workers we have; correctness is unaffected
    }
    if (pid == 0) {
      CampaignOptions child = options;
      child.print_tables = false;
      const int status = RunWorker(spec, child);
      std::cout.flush();
      std::cerr.flush();
      ::_exit(status);
    }
    children.push_back(pid);
  }

  int status = RunWorker(spec, options);
  for (const pid_t pid : children) {
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, 0) < 0 || !WIFEXITED(wstatus) ||
        WEXITSTATUS(wstatus) != 0) {
      status = 1;
    }
  }
  // Flight-recorder dumps of this process, after the campaign quiesced.
  if (!trace_out.empty()) {
    clover::obs::Tracer::Get().WriteChromeTrace(trace_out);
    std::cout << "wrote trace " << trace_out << "\n";
  }
  if (!metrics_out.empty()) {
    clover::obs::Registry::Get().WriteMetricsJson(metrics_out);
    std::cout << "wrote metrics " << metrics_out << "\n";
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];

  if (command == "list") {
    if (argc > 3) return Usage();
    return ListCampaigns(argc == 3 ? argv[2] : "campaigns");
  }

  if (command == "validate") {
    std::vector<std::string> paths(argv + 2, argv + argc);
    if (paths.empty()) return Usage();
    return ValidateCampaigns(paths);
  }

  if (command == "run" || command == "resume" || command == "worker") {
    CampaignOptions options;
    options.print_tables = true;
    options.resume = command != "run";
    int workers = 1;
    std::string path;
    std::string trace_out, metrics_out;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::cerr << "missing value for " << arg << "\n";
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--threads") {
        try {
          std::size_t consumed = 0;
          const int threads = std::stoi(next(), &consumed);
          CLOVER_CHECK(consumed == std::string(argv[i]).size());
          CLOVER_CHECK(threads >= 1 && threads <= 1024);
          options.threads = threads;
        } catch (const std::exception&) {
          std::cerr << "bad value for --threads (want 1..1024)\n";
          return 2;
        }
      } else if (arg == "--workers") {
        try {
          std::size_t consumed = 0;
          const int value = std::stoi(next(), &consumed);
          CLOVER_CHECK(consumed == std::string(argv[i]).size());
          CLOVER_CHECK(value >= 1 && value <= 64);
          workers = value;
        } catch (const std::exception&) {
          std::cerr << "bad value for --workers (want 1..64)\n";
          return 2;
        }
      } else if (arg == "--claim-ttl") {
        try {
          std::size_t consumed = 0;
          const double value = std::stod(next(), &consumed);
          CLOVER_CHECK(consumed == std::string(argv[i]).size());
          CLOVER_CHECK(value > 0.0 && value <= 3600.0);
          options.claim_ttl_s = value;
        } catch (const std::exception&) {
          std::cerr << "bad value for --claim-ttl (want seconds in "
                       "(0, 3600])\n";
          return 2;
        }
      } else if (arg == "--out") {
        options.out_dir = next();
      } else if (arg == "--resume") {
        options.resume = true;
      } else if (arg == "--trace-out") {
        trace_out = next();
      } else if (arg == "--metrics-out") {
        metrics_out = next();
      } else if (!arg.empty() && arg[0] == '-') {
        std::cerr << "unknown flag " << arg << "\n";
        return Usage();
      } else if (path.empty()) {
        path = arg;
      } else {
        return Usage();
      }
    }
    if (path.empty()) return Usage();
    // The flight recorder is always armed for campaign runs (not just
    // when --trace-out is given): a failing cell's triage bundle carries
    // the ring tails and metric snapshots only if someone was recording
    // before the failure. Idle-enabled overhead is within the obs_overhead
    // budget and recording never perturbs results (docs/OBSERVABILITY.md).
    clover::obs::SetEnabled(true);
    clover::obs::Tracer::Get().Enable();

    return RunCampaignFile(path, options, workers, trace_out, metrics_out);
  }

  return Usage();
}
