#include "sim/queueing.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/check.h"
#include "common/units.h"
#include "perf/perf_model.h"
#include "power/power_model.h"

namespace clover::sim {

ServerClasses CollapseClasses(const models::ModelFamily& family,
                              const std::vector<InstanceGroup>& groups) {
  ServerClasses fleet;
  std::vector<ServerClass>& classes = fleet.classes;
  for (const InstanceGroup& group : groups) {
    if (group.count == 0) continue;
    const models::ModelVariant& variant = family.Variant(group.variant);
    ServerClass cls;
    cls.service_ms = perf::PerfModel::LatencyMs(family, variant, group.slice);
    cls.dynamic_watts = power::PowerModel::DynamicWatts(variant, group.slice);
    cls.accuracy = variant.accuracy;
    cls.count = group.count;
    auto same = std::find_if(classes.begin(), classes.end(),
                             [&](const ServerClass& c) {
                               return c.service_ms == cls.service_ms &&
                                      c.dynamic_watts == cls.dynamic_watts &&
                                      c.accuracy == cls.accuracy;
                             });
    if (same != classes.end()) {
      same->count += cls.count;
    } else {
      classes.push_back(cls);
    }
  }
  CLOVER_CHECK_MSG(!classes.empty(), "a fleet needs >= 1 server class");
  // The simulator's dispatch order: highest accuracy first, fastest first
  // among equals — the greedy cascade fills classes in this order. Classes
  // tied on both (a variant on slices past its latency plateau) keep their
  // first-appearance order, which for a deployment is the simulator's own
  // instance-id tie-break.
  std::stable_sort(classes.begin(), classes.end(),
                   [](const ServerClass& a, const ServerClass& b) {
                     if (a.accuracy != b.accuracy)
                       return a.accuracy > b.accuracy;
                     return a.service_ms < b.service_ms;
                   });
  for (const ServerClass& cls : classes) {
    CLOVER_CHECK(cls.count > 0 && cls.service_ms > 0.0);
    fleet.capacity_qps +=
        static_cast<double>(cls.count) / MsToSeconds(cls.service_ms);
    fleet.instances += cls.count;
  }
  fleet.by_latency.resize(classes.size());
  std::iota(fleet.by_latency.begin(), fleet.by_latency.end(), 0);
  std::stable_sort(fleet.by_latency.begin(), fleet.by_latency.end(),
                   [&](std::size_t a, std::size_t b) {
                     return classes[a].service_ms < classes[b].service_ms;
                   });
  return fleet;
}

LoadSplit SplitLoad(const ServerClasses& fleet, double offered,
                    double duration_s, double* served) {
  LoadSplit split;
  double remaining = offered;
  double weighted = 0.0;
  for (std::size_t i = 0; i < fleet.classes.size(); ++i) {
    const ServerClass& cls = fleet.classes[i];
    const double capacity = static_cast<double>(cls.count) /
                            MsToSeconds(cls.service_ms) * duration_s;
    served[i] = std::min(remaining, capacity);
    remaining -= served[i];
    weighted += served[i] * cls.service_ms;
  }
  split.unserved = remaining;
  if (offered <= 0.0) return split;
  split.mean_service_ms = weighted / offered;
  const double target = 0.95 * offered;
  double cumulative = 0.0;
  for (const std::size_t i : fleet.by_latency) {
    if (served[i] <= 0.0) continue;
    cumulative += served[i];
    split.p95_service_ms = fleet.classes[i].service_ms;
    if (cumulative >= target) break;
  }
  return split;
}

MmcTail AnalyzeTail(const analytic::MmcConfig& mmc, ServiceModel model) {
  MmcTail tail;
  tail.metrics = analytic::AnalyzeMmc(mmc);
  tail.p95_s = model == ServiceModel::kExponential
                   ? analytic::MmcSojournQuantile(mmc, tail.metrics, 0.95)
                   : analytic::MmcWaitQuantile(mmc, tail.metrics, 0.95);
  return tail;
}

const MmcTail& MmcTailCache::Get(const analytic::MmcConfig& mmc,
                                 ServiceModel model) {
  CLOVER_CHECK(mmc.servers >= 1);  // empty entries hold c = 0
  const auto arrival_bits = std::bit_cast<std::uint64_t>(mmc.arrival_rate);
  const auto service_bits = std::bit_cast<std::uint64_t>(mmc.service_rate);
  for (const Entry& entry : entries_)
    if (entry.arrival_bits == arrival_bits &&
        entry.service_bits == service_bits && entry.servers == mmc.servers &&
        entry.model == model)
      return entry.tail;
  Entry& entry = entries_[next_];
  next_ = (next_ + 1) % kEntries;
  entry = {arrival_bits, service_bits, mmc.servers, model,
           AnalyzeTail(mmc, model)};
  ++evaluations_;
  return entry.tail;
}

Latency ComposeLatency(const LoadSplit& split, const MmcTail& tail,
                       ServiceModel model, double sigma) {
  Latency latency;
  if (model == ServiceModel::kExponential) {
    latency.mean_ms = SecondsToMs(tail.metrics.mean_sojourn_s);
    latency.p95_ms = SecondsToMs(tail.p95_s);
    return latency;
  }
  const double jitter_headroom = 1.0 + 1.64 * sigma;
  const double wait_scale = 0.5 * (1.0 + sigma * sigma);
  latency.mean_ms = split.mean_service_ms +
                    SecondsToMs(tail.metrics.mean_wait_s * wait_scale);
  latency.p95_ms = split.p95_service_ms * jitter_headroom +
                   SecondsToMs(tail.p95_s * wait_scale);
  return latency;
}

}  // namespace clover::sim
