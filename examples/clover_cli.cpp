// clover_cli — run any (scheme × application × trace) experiment from the
// command line and print the full report; the operator-facing front end of
// the library.
//
//   clover_cli --scheme clover --app classification --trace ciso-march
//              --hours 48 --gpus 10 --lambda 0.5 [--limit 1.0]
//              [--trace-csv path.csv] [--csv report.csv] [--seed 1]
//
// `--trace-csv` loads a real carbon-intensity feed ("seconds,gCO2/kWh"
// rows) instead of the synthetic profiles; `--csv` dumps the per-window
// series for plotting.
//
// Fleet mode runs the multi-region pipeline instead (src/fleet/):
//
//   clover_cli --fleet [--regions us-west,ap-northeast] [--router
//              carbon-greedy|static|least-loaded] [--threads N] ...
//
// `--gpus` then sizes each region, `--scheme` picks the per-region scheme
// (base/blover/clover), and the report covers the whole fleet plus one row
// per region, including each regional controller's snapshot.
//
// Oracle mode answers "what should this configuration do in steady state"
// from the closed-form M/M/c math (sim/analytic.h) without simulating:
//
//   clover_cli --mmc RHO [--app A] [--gpus N] [--mmc-k K]
//
// using the application's BASE per-GPU service rate; `--mmc-k` adds the
// bounded-queue (M/M/c/K) variant with its blocking probability.
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "carbon/trace_generator.h"
#include "common/csv.h"
#include "common/table.h"
#include "common/units.h"
#include "core/harness.h"
#include "fleet/fleet_sim.h"
#include "mig/slice_type.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/perf_model.h"
#include "sim/analytic.h"

namespace {

using namespace clover;

[[noreturn]] void Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --scheme base|co2opt|blover|clover|oracle   (default clover)\n"
      << "  --app detection|language|classification     (default classification)\n"
      << "  --trace ciso-march|ciso-september|eso-march (default ciso-march)\n"
      << "  --trace-csv FILE   load a real CI trace instead\n"
      << "  --hours H          trace span (default 48)\n"
      << "  --gpus N           cluster size (default 10)\n"
      << "  --lambda L         carbon-vs-accuracy weight (default 0.5)\n"
      << "  --limit PCT        enforce max accuracy loss (threshold mode)\n"
      << "  --seed S           RNG seed (default 1)\n"
      << "  --csv FILE         dump per-window series\n"
      << "  --trace-out F      write Chrome trace JSON (enables obs)\n"
      << "  --metrics-out F    write metrics snapshot JSON (enables obs)\n"
      << "oracle mode:\n"
      << "  --mmc RHO          print the closed-form M/M/c steady state for\n"
      << "                     --gpus BASE servers at utilization RHO\n"
      << "  --mmc-k K          add the bounded-queue M/M/c/K variant\n"
      << "fleet mode:\n"
      << "  --fleet            serve one workload across regional clusters\n"
      << "  --regions A,B,...  named region presets (default "
         "us-west,ap-northeast)\n"
      << "  --router static|least-loaded|carbon-greedy (default "
         "carbon-greedy)\n"
      << "  --threads N        region-step fan-out width (default 1)\n";
  std::exit(2);
}

// The value a flag's token names in `table`; `what` labels the error.
template <typename Enum, std::size_t N>
Enum ParseFlag(const EnumToken<Enum> (&table)[N], const std::string& name,
               const char* what, const char* argv0) {
  if (const std::optional<Enum> value = ParseToken(table, name)) return *value;
  std::cerr << "unknown " << what << " " << name << "\n";
  Usage(argv0);
}

// Flight-recorder dumps, written after the run finishes (quiesced).
void DumpObsOutputs(const std::string& trace_out,
                    const std::string& metrics_out) {
  if (!trace_out.empty()) {
    obs::Tracer::Get().WriteChromeTrace(trace_out);
    std::cout << "\nwrote trace " << trace_out << "\n";
  }
  if (!metrics_out.empty()) {
    obs::Registry::Get().WriteMetricsJson(metrics_out);
    std::cout << "wrote metrics " << metrics_out << "\n";
  }
}

std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) items.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

int RunMmcOracleMode(models::Application app, int gpus, double rho,
                     std::optional<int> capacity) {
  const models::ModelFamily& family =
      models::DefaultZoo().ForApplication(app);
  sim::analytic::MmcConfig mmc;
  mmc.servers = gpus;
  mmc.service_rate = 1.0 / MsToSeconds(perf::PerfModel::LatencyMs(
                               family, family.Largest(), mig::SliceType::k7g));
  mmc.arrival_rate = rho * gpus * mmc.service_rate;
  const sim::analytic::MmcMetrics metrics = sim::analytic::AnalyzeMmc(mmc);

  TextTable table({"metric", "value"});
  table.AddRow({"servers (BASE GPUs)", std::to_string(gpus)});
  table.AddRow({"service rate / server", TextTable::Num(mmc.service_rate, 2) +
                                             " qps"});
  table.AddRow({"arrival rate", TextTable::Num(mmc.arrival_rate, 2) + " qps"});
  table.AddRow({"utilization", TextTable::Num(metrics.utilization, 4)});
  table.AddRow({"P(wait) [Erlang C]",
                TextTable::Num(metrics.wait_probability, 4)});
  table.AddRow({"mean wait", TextTable::Num(
                                 SecondsToMs(metrics.mean_wait_s), 3) +
                                 " ms"});
  table.AddRow({"mean sojourn", TextTable::Num(
                                    SecondsToMs(metrics.mean_sojourn_s), 3) +
                                    " ms"});
  table.AddRow({"p95 wait", TextTable::Num(
                                SecondsToMs(sim::analytic::MmcWaitQuantile(
                                    mmc, 0.95)),
                                3) +
                                " ms"});
  table.AddRow({"mean queue length",
                TextTable::Num(metrics.mean_queue_length, 3)});
  table.AddRow({"mean in system", TextTable::Num(metrics.mean_in_system, 3)});
  if (capacity.has_value()) {
    const sim::analytic::MmcKMetrics bounded =
        sim::analytic::AnalyzeMmcK(mmc, *capacity);
    table.AddRow({"M/M/c/K capacity", std::to_string(*capacity)});
    table.AddRow({"P(block)", TextTable::Num(bounded.blocking_probability,
                                             6)});
    table.AddRow({"carried rate", TextTable::Num(bounded.carried_rate, 2) +
                                      " qps"});
    table.AddRow({"bounded mean wait",
                  TextTable::Num(SecondsToMs(bounded.mean_wait_s), 3) +
                      " ms"});
  }
  table.Print(std::cout);
  return 0;
}

int RunFleetMode(const core::ExperimentConfig& config,
                 const std::string& regions_list,
                 const std::string& router_name, int threads) {
  fleet::FleetConfig fleet_config;
  fleet_config.app = config.app;
  fleet_config.regions = fleet::RegionsFromPresets(
      SplitCommaList(regions_list), config.num_gpus);
  fleet_config.duration_hours = config.duration_hours;
  fleet_config.scheme = config.scheme;
  fleet_config.router = fleet::ParseRouterPolicy(router_name);
  fleet_config.lambda = config.lambda;
  fleet_config.seed = config.seed;
  fleet_config.threads = threads;

  const fleet::FleetReport report =
      fleet::RunFleet(fleet_config, models::DefaultZoo());

  clover::TextTable table({"fleet metric", "value"});
  table.AddRow({"router", report.router_name});
  table.AddRow({"scheme", std::string(core::SchemeName(config.scheme))});
  table.AddRow({"regions", std::to_string(report.regions.size())});
  table.AddRow({"global rate (qps)",
                clover::TextTable::Num(report.total_qps, 1)});
  table.AddRow({"requests served",
                std::to_string(report.fleet.completions)});
  table.AddRow({"weighted accuracy",
                clover::TextTable::Num(report.fleet.weighted_accuracy, 3)});
  table.AddRow({"fleet p95 incl. network (ms)",
                clover::TextTable::Num(report.fleet.overall_p95_ms, 1)});
  table.AddRow({"SLO budget (ms)",
                clover::TextTable::Num(report.slo_budget_ms, 1)});
  table.AddRow({"SLO attainment (%)",
                clover::TextTable::Num(report.slo_attainment * 100.0, 1)});
  table.AddRow({"total carbon (kg CO2)",
                clover::TextTable::Num(report.fleet.total_carbon_g / 1e3,
                                       3)});
  table.AddRow({"carbon per request (gCO2)",
                clover::TextTable::Num(report.fleet.carbon_per_request_g,
                                       5)});
  table.Print(std::cout);

  std::cout << "\n";
  clover::TextTable regions({"region", "mean share (%)", "net RTT (ms)",
                             "gCO2", "p95 (ms)", "invocations",
                             "cache size", "last CI"});
  for (const fleet::RegionReport& region : report.regions) {
    const bool has_controller = region.controller.has_value();
    regions.AddRow(
        {region.name, clover::TextTable::Num(region.mean_weight * 100.0, 1),
         clover::TextTable::Num(region.latency_penalty_ms, 0),
         clover::TextTable::Num(region.report.total_carbon_g, 1),
         clover::TextTable::Num(region.report.overall_p95_ms, 1),
         std::to_string(has_controller ? region.controller->invocations : 0),
         std::to_string(has_controller ? region.controller->cache_size : 0),
         clover::TextTable::Num(
             has_controller ? region.controller->last_ci : 0.0, 1)});
  }
  regions.Print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentConfig config;
  std::string trace_name = "ciso-march";
  std::string trace_csv;
  std::string out_csv;
  std::string trace_out, metrics_out;
  bool fleet_mode = false;
  bool trace_explicit = false;
  bool fleet_flags_used = false;
  std::optional<double> mmc_rho;
  std::optional<int> mmc_capacity;
  std::string fleet_regions = "us-west,ap-northeast";
  std::string fleet_router = "carbon-greedy";
  int fleet_threads = 1;
  config.duration_hours = 48.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scheme") {
      config.scheme = ParseFlag(core::kSchemeTokens, next(), "scheme", argv[0]);
    } else if (arg == "--app") {
      config.app =
          ParseFlag(models::kApplicationTokens, next(), "application", argv[0]);
    } else if (arg == "--trace") {
      trace_explicit = true;
      trace_name = next();
    } else if (arg == "--trace-csv") {
      trace_csv = next();
    } else if (arg == "--hours") {
      config.duration_hours = std::stod(next());
    } else if (arg == "--gpus") {
      config.num_gpus = config.sizing_gpus = std::stoi(next());
    } else if (arg == "--lambda") {
      config.lambda = std::stod(next());
    } else if (arg == "--limit") {
      config.accuracy_limit_pct = std::stod(next());
    } else if (arg == "--seed") {
      config.seed = std::stoull(next());
    } else if (arg == "--csv") {
      out_csv = next();
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--mmc") {
      mmc_rho = std::stod(next());
    } else if (arg == "--mmc-k") {
      mmc_capacity = std::stoi(next());
    } else if (arg == "--fleet") {
      fleet_mode = true;
    } else if (arg == "--regions") {
      fleet_flags_used = true;
      fleet_regions = next();
    } else if (arg == "--router") {
      fleet_flags_used = true;
      fleet_router = next();
    } else if (arg == "--threads") {
      fleet_flags_used = true;
      fleet_threads = std::stoi(next());
    } else {
      Usage(argv[0]);
    }
  }

  if (!trace_out.empty() || !metrics_out.empty()) {
    obs::SetEnabled(true);
    obs::Tracer::Get().Enable();
  }

  // Both directions of the mode split refuse flags the other pipeline
  // would silently ignore — a plausible-looking report for a different
  // question is worse than an error.
  if (!fleet_mode && fleet_flags_used) {
    std::cerr << "--regions/--router/--threads require --fleet\n";
    Usage(argv[0]);
  }

  if (mmc_capacity.has_value() && !mmc_rho.has_value()) {
    std::cerr << "--mmc-k requires --mmc\n";
    Usage(argv[0]);
  }
  if (mmc_rho.has_value()) {
    if (fleet_mode) {
      std::cerr << "--mmc is a closed-form query; it does not combine with "
                   "--fleet\n";
      Usage(argv[0]);
    }
    if (*mmc_rho <= 0.0 || *mmc_rho >= 1.0) {
      std::cerr << "--mmc needs 0 < RHO < 1 (the unbounded queue is only "
                   "stable below saturation)\n";
      Usage(argv[0]);
    }
    return RunMmcOracleMode(config.app, config.num_gpus, *mmc_rho,
                            mmc_capacity);
  }

  if (fleet_mode) {
    if (config.scheme == core::Scheme::kCo2Opt ||
        config.scheme == core::Scheme::kOracle) {
      std::cerr << "fleet mode supports --scheme base|blover|clover\n";
      Usage(argv[0]);
    }
    // Refuse flags the fleet pipeline does not honor rather than silently
    // answering a different question (regions define their own traces; the
    // threshold objective and window dump are single-cluster reports).
    if (trace_explicit || !trace_csv.empty() ||
        config.accuracy_limit_pct.has_value() || !out_csv.empty()) {
      std::cerr << "--trace/--trace-csv/--limit/--csv do not apply to "
                   "--fleet (regions use the named presets)\n";
      Usage(argv[0]);
    }
    const int status =
        RunFleetMode(config, fleet_regions, fleet_router, fleet_threads);
    DumpObsOutputs(trace_out, metrics_out);
    return status;
  }

  carbon::TraceGeneratorOptions trace_options;
  trace_options.duration_hours = config.duration_hours;
  trace_options.seed = config.seed + 41;
  const carbon::CarbonTrace trace =
      trace_csv.empty()
          ? GenerateTrace(ParseFlag(carbon::kTraceProfileTokens, trace_name,
                                      "trace profile", argv[0]),
                            trace_options)
          : carbon::CarbonTrace::FromCsv("user-trace", trace_csv);
  config.trace = &trace;

  core::ExperimentHarness harness(&models::DefaultZoo());
  const core::RunReport report = harness.Run(config);

  clover::TextTable table({"metric", "value"});
  table.AddRow({"scheme", std::string(core::SchemeName(report.scheme))});
  table.AddRow({"application",
                std::string(models::ApplicationName(report.app))});
  table.AddRow({"trace", trace.name()});
  table.AddRow({"arrival rate (qps)",
                clover::TextTable::Num(report.arrival_rate_qps, 1)});
  table.AddRow({"requests served", std::to_string(report.completions)});
  table.AddRow({"weighted accuracy",
                clover::TextTable::Num(report.weighted_accuracy, 3)});
  table.AddRow({"SLA target p95 (ms)",
                clover::TextTable::Num(report.params.l_tail_ms, 1)});
  table.AddRow({"achieved p95 (ms)",
                clover::TextTable::Num(report.overall_p95_ms, 1)});
  table.AddRow({"total IT energy (kWh)",
                clover::TextTable::Num(report.total_energy_j / 3.6e6, 2)});
  table.AddRow({"total carbon (kg CO2)",
                clover::TextTable::Num(report.total_carbon_g / 1e3, 3)});
  table.AddRow({"carbon per request (gCO2)",
                clover::TextTable::Num(report.carbon_per_request_g, 5)});
  table.AddRow({"optimization invocations",
                std::to_string(report.optimizations.size())});
  table.AddRow({"optimization time (% of span)",
                clover::TextTable::Num(
                    report.optimization_seconds /
                        (config.duration_hours * 3600.0) * 100.0,
                    2)});
  table.AddRow({"cached evaluations",
                std::to_string(report.cache_hits)});
  table.Print(std::cout);

  if (!out_csv.empty()) {
    clover::CsvWriter csv(out_csv,
                          {"start_s", "ci", "completions", "p95_ms",
                           "mean_ms", "accuracy", "energy_j", "carbon_g",
                           "objective"});
    for (std::size_t w = 0; w < report.windows.size(); ++w) {
      const auto& window = report.windows[w];
      csv.WriteRow(std::vector<double>{
          window.start_s, window.ci,
          static_cast<double>(window.completions), window.p95_ms,
          window.mean_ms, window.weighted_accuracy, window.energy_j,
          window.carbon_g, report.objective_series[w]});
    }
    std::cout << "\nper-window series written to " << out_csv << "\n";
  }
  DumpObsOutputs(trace_out, metrics_out);
  return 0;
}
