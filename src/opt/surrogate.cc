#include "opt/surrogate.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "perf/perf_model.h"
#include "power/power_model.h"

namespace clover::opt {

SurrogateEvaluator::Options SurrogateEvaluator::FromReplay(
    const ReplayEvaluator::Options& replay, sim::ServiceModel service_model,
    double service_jitter_sigma) {
  Options options;
  options.arrival_rate_qps = replay.arrival_rate_qps;
  options.l_tail_ms = replay.l_tail_ms;
  options.service_model = service_model;
  options.service_jitter_sigma = service_jitter_sigma;
  return options;
}

SurrogateEvaluator::SurrogateEvaluator(const models::ModelZoo* zoo,
                                       int num_gpus, const Options& options)
    : zoo_(zoo), num_gpus_(num_gpus), options_(options) {
  CLOVER_CHECK(zoo_ != nullptr);
  CLOVER_CHECK(num_gpus_ > 0 && options_.arrival_rate_qps > 0.0);
}

EvalOutcome SurrogateEvaluator::Evaluate(const graph::ConfigGraph& graph) {
  const models::ModelFamily& family = zoo_->ForApplication(graph.app());
  const double lambda = options_.arrival_rate_qps;

  struct Server {
    double rate_qps;
    double latency_ms;
    double accuracy;
    double dynamic_watts;
    double load_qps = 0.0;
  };
  std::vector<Server> servers;
  for (int v = 0; v < graph.num_variants(); ++v) {
    const models::ModelVariant& variant = family.Variant(v);
    for (mig::SliceType slice : mig::kAllSliceTypes) {
      const int count = graph.Weight(v, slice);
      if (count == 0) continue;
      const double latency_ms =
          perf::PerfModel::LatencyMs(family, variant, slice);
      for (int k = 0; k < count; ++k)
        servers.push_back(Server{1e3 / latency_ms, latency_ms,
                                 variant.accuracy,
                                 power::PowerModel::DynamicWatts(variant,
                                                                 slice)});
    }
  }
  CLOVER_CHECK(!servers.empty());

  // Saturation cascade under accuracy-greedy dispatch: high-accuracy
  // instances fill first.
  std::sort(servers.begin(), servers.end(),
            [](const Server& a, const Server& b) {
              if (a.accuracy != b.accuracy) return a.accuracy > b.accuracy;
              return a.latency_ms < b.latency_ms;
            });
  double remaining = lambda;
  double total_rate = 0.0;
  for (Server& server : servers) {
    server.load_qps = std::min(remaining, server.rate_qps);
    remaining -= server.load_qps;
    total_rate += server.rate_qps;
  }

  EvalOutcome outcome;
  if (remaining > 1e-9 || lambda >= total_rate) {
    // Overloaded: unbounded queue. The sentinel makes infeasible
    // candidates rank last in any screen.
    outcome.metrics.accuracy = 0.0;
    outcome.metrics.p95_ms = 1e6;
    outcome.metrics.energy_per_request_j = 1e9;
    outcome.sla_ok = false;
    return outcome;
  }

  double accuracy_sum = 0.0;
  double dynamic_watts = 0.0;
  for (const Server& server : servers) {
    accuracy_sum += server.load_qps * server.accuracy;
    dynamic_watts += (server.load_qps / server.rate_qps) *
                     server.dynamic_watts;
  }
  outcome.metrics.accuracy = accuracy_sum / lambda;
  const double total_watts =
      power::PowerModel::StaticWattsPerGpu() * num_gpus_ + dynamic_watts;
  outcome.metrics.energy_per_request_j = total_watts / lambda;

  // Latency tail from the equivalent M/M/c: c = instance count,
  // mu_eff = total service rate / c (exact for a uniform fleet).
  sim::analytic::MmcConfig mmc;
  mmc.arrival_rate = lambda;
  mmc.service_rate = total_rate / static_cast<double>(servers.size());
  mmc.servers = static_cast<int>(servers.size());

  if (options_.service_model == sim::ServiceModel::kExponential) {
    outcome.metrics.p95_ms =
        SecondsToMs(sim::analytic::MmcSojournQuantile(mmc, 0.95));
  } else {
    // Near-deterministic service: the tail is the service mix's own p95
    // (with truncated-Gaussian jitter headroom) plus queueing delay. The
    // M/M/c wait quantile is scaled by the M/G/c two-moment correction
    // (1 + cv^2) / 2, cv = sigma — low-variance service waits roughly half
    // as long as exponential service at the same load.
    std::vector<std::pair<double, double>> latency_share;  // (latency, load)
    for (const Server& server : servers)
      if (server.load_qps > 0.0)
        latency_share.emplace_back(server.latency_ms, server.load_qps);
    std::sort(latency_share.begin(), latency_share.end());
    double cumulative = 0.0;
    double p95_service = latency_share.back().first;
    for (const auto& [latency, load] : latency_share) {
      cumulative += load;
      if (cumulative >= 0.95 * lambda) {
        p95_service = latency;
        break;
      }
    }
    const double sigma = options_.service_jitter_sigma;
    const double jitter_headroom = 1.0 + 1.64 * sigma;
    const double wait_scale = 0.5 * (1.0 + sigma * sigma);
    const double wait_p95_s =
        sim::analytic::MmcWaitQuantile(mmc, 0.95) * wait_scale;
    outcome.metrics.p95_ms =
        p95_service * jitter_headroom + SecondsToMs(wait_p95_s);
  }
  outcome.sla_ok =
      options_.l_tail_ms <= 0.0 || outcome.metrics.p95_ms <= options_.l_tail_ms;
  return outcome;
}

}  // namespace clover::opt
