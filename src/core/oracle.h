// The ORACLE scheme: exhaustive offline profiling + instant selection.
//
// Following the paper (Sec. 5.1), the oracle's search space is
// *standardized*: the same MIG layout on every GPU and the same variant on
// every slice of a given type — the restriction that made the authors' real
// two-week profiling campaign finite. Each standardized configuration is
// profiled once on a dedicated mini-simulation (the offline testbed); at
// run time the oracle instantly selects the profiled configuration that
// maximizes the objective at the current carbon intensity subject to the
// SLA, with zero search or reconfiguration cost (an idealized upper bound,
// infeasible in practice).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/config_graph.h"
#include "graph/mapping.h"
#include "opt/objective.h"

namespace clover::core {

struct OracleEntry {
  graph::ConfigGraph graph;
  opt::EvalMetrics metrics;

  OracleEntry() : graph(models::Application::kClassification, 1) {}
};

class Oracle {
 public:
  Oracle(const models::ModelZoo* zoo, models::Application app, int num_gpus,
         double arrival_rate_qps, std::uint64_t seed);

  // Profiles every standardized configuration with a warmed-up
  // mini-simulation (sim::ProbeDeployment).
  void Profile();

  // Best profiled entry at intensity `ci`: max f among SLA-compliant
  // entries (BASE is always compliant, so one always exists).
  const OracleEntry& Select(const opt::ObjectiveParams& params,
                            double ci) const;

  const std::vector<OracleEntry>& entries() const { return entries_; }

  // The simulated-testbed hours an exhaustive offline campaign would have
  // consumed (for the paper's "two weeks" comparison).
  double ProfilingTestbedHours() const { return profiling_testbed_hours_; }

 private:
  const models::ModelZoo* zoo_;
  models::Application app_;
  int num_gpus_;
  double arrival_rate_qps_;
  std::uint64_t seed_;
  std::vector<OracleEntry> entries_;
  double profiling_testbed_hours_ = 0.0;
};

}  // namespace clover::core
