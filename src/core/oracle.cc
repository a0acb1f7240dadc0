#include "core/oracle.h"

#include <unordered_set>

#include "common/check.h"
#include "common/units.h"
#include "opt/evaluator.h"
#include "perf/perf_model.h"
#include "sim/cluster_sim.h"

namespace clover::core {
namespace {

// Each standardized configuration's probe: warm-up, then the measured
// window.
constexpr double kWarmupS = 30.0;
constexpr double kMeasureS = 60.0;

}  // namespace

Oracle::Oracle(const models::ModelZoo* zoo, models::Application app,
               int num_gpus, double arrival_rate_qps, std::uint64_t seed)
    : zoo_(zoo),
      app_(app),
      num_gpus_(num_gpus),
      arrival_rate_qps_(arrival_rate_qps),
      seed_(seed) {
  CLOVER_CHECK(zoo_ != nullptr);
  CLOVER_CHECK(num_gpus_ > 0 && arrival_rate_qps_ > 0.0);
}

void Oracle::Profile() {
  entries_.clear();
  const models::ModelFamily& family = zoo_->ForApplication(app_);
  const auto& table = mig::MigConfigTable::Get();

  // Enumerate standardized configurations as graphs; layouts with identical
  // slice counts collapse to the same graph, so dedupe by key.
  std::vector<graph::ConfigGraph> configs;
  std::unordered_set<std::uint64_t> seen;
  for (const mig::MigLayout& layout : table.layouts()) {
    const mig::SliceCounts counts = layout.Counts();
    // Slice types present in this layout.
    std::vector<mig::SliceType> types;
    for (mig::SliceType slice : mig::kAllSliceTypes)
      if (counts[static_cast<std::size_t>(slice)] > 0) types.push_back(slice);

    // Per type, the variants that fit it.
    std::vector<std::vector<int>> choices;
    bool viable = true;
    for (mig::SliceType slice : types) {
      std::vector<int> fitting;
      for (int v = 0; v < family.NumVariants(); ++v)
        if (perf::PerfModel::Fits(family.Variant(v), slice))
          fitting.push_back(v);
      if (fitting.empty()) viable = false;
      choices.push_back(std::move(fitting));
    }
    if (!viable) continue;

    // Cartesian product over per-type variant choices.
    std::vector<std::size_t> cursor(types.size(), 0);
    for (;;) {
      graph::ConfigGraph config(app_, family.NumVariants());
      for (std::size_t t = 0; t < types.size(); ++t) {
        const int variant = choices[t][cursor[t]];
        const int per_gpu = counts[static_cast<std::size_t>(types[t])];
        config.AddWeight(variant, types[t], per_gpu * num_gpus_);
      }
      if (seen.insert(config.Key()).second) configs.push_back(config);

      // Advance the mixed-radix cursor.
      std::size_t t = 0;
      while (t < cursor.size()) {
        if (++cursor[t] < choices[t].size()) break;
        cursor[t] = 0;
        ++t;
      }
      if (t == cursor.size()) break;
    }
  }

  // Profile each configuration on a dedicated warmed-up simulation. The CI
  // trace is irrelevant for profiling (energy and latency do not depend on
  // it); a flat trace keeps the accounting well-defined.
  static const carbon::CarbonTrace kFlatTrace(
      "oracle-profiling", 3600.0, std::vector<double>(24, 250.0));
  graph::GraphMapper mapper(zoo_, num_gpus_);
  for (const graph::ConfigGraph& config : configs) {
    const auto deployment = mapper.ToDeployment(config);
    if (!deployment.has_value()) continue;
    OracleEntry entry;
    entry.graph = config;
    entry.metrics = opt::MetricsOf(
        sim::ProbeDeployment(*deployment, *zoo_, &kFlatTrace,
                             arrival_rate_qps_, seed_, kWarmupS, kMeasureS));
    entries_.push_back(std::move(entry));
    profiling_testbed_hours_ += SecondsToHours(kWarmupS + kMeasureS);
  }
  CLOVER_CHECK_MSG(!entries_.empty(), "oracle profiled zero configurations");
}

const OracleEntry& Oracle::Select(const opt::ObjectiveParams& params,
                                  double ci) const {
  CLOVER_CHECK_MSG(!entries_.empty(), "oracle not profiled");
  const OracleEntry* best = nullptr;
  double best_f = 0.0;
  const OracleEntry* fallback = nullptr;
  double fallback_p95 = 0.0;
  for (const OracleEntry& entry : entries_) {
    if (entry.metrics.p95_ms <= params.l_tail_ms) {
      const double f = opt::ObjectiveF(entry.metrics, params, ci);
      if (best == nullptr || f > best_f) {
        best = &entry;
        best_f = f;
      }
    } else if (fallback == nullptr || entry.metrics.p95_ms < fallback_p95) {
      fallback = &entry;
      fallback_p95 = entry.metrics.p95_ms;
    }
  }
  if (best != nullptr) return *best;
  CLOVER_CHECK(fallback != nullptr);
  return *fallback;
}

}  // namespace clover::core
