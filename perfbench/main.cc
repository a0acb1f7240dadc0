// perfbench: the repository's benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Runs one workload (workloads.h) against the program's public entry
// points and prints, after human-readable context lines, a fingerprint
// line and then one JSON line with every metric the workload measured.
// perfbench/run.py builds this binary and turns that line into the
// benchmark's result. Refuses to run from anything but a Release build.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "bench.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

// A seed no tuning of this benchmark used: a claimed gain must also hold
// on it (perfbench/NOTES.md).
constexpr std::uint64_t kHeldOutSeed = 9001;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage("flags come in --key value pairs");
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage("flags come in --key value pairs");
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "work-dir"}) {
    if (!flags.count(required)) return Usage("missing a required flag");
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing to report from a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  Args args;
  args.workload = flags["workload"];
  args.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  args.seconds = std::atof(flags["seconds"].c_str());
  args.trace = flags["trace"] == "1";
  args.work_dir = flags["work-dir"];
  std::filesystem::create_directories(args.work_dir);

  const std::map<std::string, void (*)(const Args&, Result*)> workloads = {
      {"cluster_paper", RunClusterPaper},
      {"fleet_geo", RunFleetGeo},
      {"fleet_fluid", RunFleetFluid},
      {"live_open_loop", RunLiveOpenLoop},
  };
  const auto workload = workloads.find(args.workload);
  if (workload == workloads.end()) return Usage("unknown workload");

  Result result;
  try {
    workload->second(args, &result);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 error.what());
    return 1;
  }
  if (result.attempted == 0) result.Check(false, "no operation was attempted");
  for (const auto& [name, metric] : result.metrics)
    result.Check(std::isfinite(metric.value), name + " is not finite");

  for (const std::string& note : result.notes)
    std::printf("# %s\n", note.c_str());
  for (const std::string& failure : result.failures)
    std::printf("# CHECK FAILED: %s\n", failure.c_str());
  std::printf(
      "{\"fingerprint\": {\"workload\": %s, \"seed\": %llu, "
      "\"held_out_seed\": %llu, \"nproc\": %ld, \"build_type\": %s, "
      "\"compiler\": %s, \"clover_obs_build\": %d}}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(kHeldOutSeed), sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(__VERSION__).c_str(), CLOVER_OBS_BUILD);
  std::string metrics;
  for (const auto& [name, metric] : result.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + Number(metric.value) +
               ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.failures.empty() ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
