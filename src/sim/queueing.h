// The closed-form queueing recipe of the two analytic fidelity tiers, the
// fluid simulator (sim/meanfield.h) and the surrogate screen
// (opt/surrogate.h):
//
//   1. CollapseClasses: the fleet as server classes in the simulator's
//      dispatch order (accuracy desc, then service time asc);
//   2. SplitLoad: the accuracy-greedy cascade (classes fill in dispatch
//      order); the service p95 is the nearest rank of the mix, walking the
//      loaded classes fastest first;
//   3. ServerClasses::Mmc: one aggregate M/M/c, c = instances,
//      mu = total service rate / c;
//   4. AnalyzeTail + ComposeLatency: the exact M/M/c sojourn for
//      exponential service; for jittered service the mix's service time,
//      its p95 with headroom for the one-sided 95% quantile of the
//      truncated-Gaussian jitter, plus the M/M/c wait scaled by the M/G/c
//      two-moment correction for service of coefficient of variation sigma.
//
// For a uniform fleet under exponential service the M/M/c IS the simulated
// system; mixed fleets make it an approximation. Walking the mix by latency
// keeps the p95 from quoting a fast class when a slower one carries under
// 95% of the load, so the tail errs high — the side an SLA screen needs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mig/slice_type.h"
#include "models/zoo.h"
#include "sim/analytic.h"
#include "sim/cluster_sim.h"

namespace clover::sim {

// One aggregate server class: `count` identical instances.
struct ServerClass {
  double service_ms = 0.0;
  double dynamic_watts = 0.0;
  double accuracy = 0.0;
  int count = 0;
};

// `count` instances of one (variant, slice) pair.
struct InstanceGroup {
  int variant = 0;
  mig::SliceType slice = mig::SliceType::k7g;
  int count = 0;
};

struct ServerClasses {
  std::vector<ServerClass> classes;     // dispatch order
  std::vector<std::size_t> by_latency;  // class indices, fastest first
  double capacity_qps = 0.0;            // sum_i count_i / service_s_i
  int instances = 0;

  // The aggregate M/M/c at `arrival_rate`.
  analytic::MmcConfig Mmc(double arrival_rate) const {
    analytic::MmcConfig mmc;
    mmc.arrival_rate = arrival_rate;
    mmc.service_rate = capacity_qps / static_cast<double>(instances);
    mmc.servers = instances;
    return mmc;
  }
};

// Merges `groups` into classes of equal (service time, dynamic watts,
// accuracy), in dispatch order; classes tied on accuracy and service time
// keep their first-appearance order. Zero-count groups are skipped; at
// least one instance is required.
ServerClasses CollapseClasses(const models::ModelFamily& family,
                              const std::vector<InstanceGroup>& groups);

struct LoadSplit {
  double unserved = 0.0;         // offered beyond every class's capacity
  double mean_service_ms = 0.0;  // load-weighted over the offered amount
  double p95_service_ms = 0.0;   // nearest rank; 0 when nothing is served
};

// The cascade of `offered` requests over `duration_s`: each class, in
// dispatch order, serves up to count / service_s * duration_s. Writes each
// class's served amount to `served` (one entry per class).
LoadSplit SplitLoad(const ServerClasses& fleet, double offered,
                    double duration_s, double* served);

// The aggregate M/M/c's steady state and the quantile the tail needs: the
// sojourn p95 for exponential service, the wait p95 for jittered service.
struct MmcTail {
  analytic::MmcMetrics metrics;
  double p95_s = 0.0;
};
MmcTail AnalyzeTail(const analytic::MmcConfig& mmc, ServiceModel model);

// AnalyzeTail behind a small exact-key cache. The key is the bit patterns
// of lambda and mu plus c and the service model, so a hit returns exactly
// the bits a fresh evaluation would: hits and misses change only time. A
// miss overwrites the entries in a fixed round-robin order. Not
// synchronized — one user at a time (the fluid fleet keeps one per fan-out
// slot and lends it to each region step).
class MmcTailCache {
 public:
  const MmcTail& Get(const analytic::MmcConfig& mmc, ServiceModel model);
  // AnalyzeTail evaluations so far (the misses).
  std::uint64_t evaluations() const { return evaluations_; }

 private:
  static constexpr std::size_t kEntries = 8;
  struct Entry {
    std::uint64_t arrival_bits = 0;
    std::uint64_t service_bits = 0;
    int servers = 0;  // 0 = empty (a real M/M/c has c >= 1)
    ServiceModel model = ServiceModel::kJittered;
    MmcTail tail;
  };
  std::array<Entry, kEntries> entries_{};
  std::size_t next_ = 0;  // the entry the next miss overwrites
  std::uint64_t evaluations_ = 0;
};

struct Latency {
  double mean_ms = 0.0;
  double p95_ms = 0.0;
};
// Step 4 of the recipe (file comment). `sigma` is the jitter sigma.
Latency ComposeLatency(const LoadSplit& split, const MmcTail& tail,
                       ServiceModel model, double sigma);

}  // namespace clover::sim
