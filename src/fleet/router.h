// Global routing policies for the multi-region fleet.
//
// A Router splits one global arrival stream across N regional clusters.
// Clover adapts each cluster *temporally* (following its grid's carbon
// intensity through time); the router adds the *spatial* lever — shifting
// load between regions whose intensities are anti-correlated — on top.
//
// Policies are pure functions of the per-region snapshots: no hidden state,
// no clocks, no RNG. Each region writes its own snapshot slot at the end of
// its (possibly parallel) step; the fleet controller hands the slots to the
// router in region order and applies the split serially, which is what
// makes fleet runs bit-identical across thread counts.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace clover::fleet {

// Router-visible state of one region at a rebalance point, identified by
// its position in the snapshot list (the fleet's region order).
struct RegionSnapshot {
  bool online = true;        // false during a scheduled ingress outage
  double ci = 0.0;           // grid carbon intensity now (gCO2/kWh)
  double capacity_qps = 0.0; // nominal capacity of the current deployment
  double assigned_qps = 0.0; // rate currently routed to the region
  double queue_depth = 0.0;  // requests waiting in the region's queue
  double latency_penalty_ms = 0.0;  // network RTT ingress -> region
  double static_weight = 1.0;       // operator prior for the static policy
};

struct RouterOptions {
  // A region is offered at most capacity_qps / capacity_margin, so local
  // bursts and optimizer probes retain headroom. Only when the whole fleet
  // is saturated past its margins does the overflow spill proportionally.
  // The default keeps a region at/below ~69% of nominal capacity — under
  // the 75% the SLA is calibrated at, where the queueing tail is still
  // flat; margins below 1/0.75 let the router run a region hotter than the
  // calibration point and the window p95 inflates past the SLO.
  double capacity_margin = 1.45;
  // End-to-end latency budget (ms). Regions whose network penalty alone
  // exceeds the budget are bypassed unless no region fits it. 0 = none.
  double slo_budget_ms = 0.0;
};

// Split one global stream across regions. Implementations must return one
// weight per region (same order), each >= 0, summing to exactly 1.0:
// region i is offered weights[i] * total_qps until the next rebalance.
// Offline regions must get weight 0 whenever any region is online.
class Router {
 public:
  virtual ~Router() = default;
  virtual const char* name() const = 0;
  virtual std::vector<double> Split(const std::vector<RegionSnapshot>& regions,
                                    double total_qps,
                                    const RouterOptions& options) = 0;
};

// Fixed operator-configured split (each region's static_weight), falling
// back to the online regions when some are out. The baseline every other
// policy is judged against.
class StaticWeightedRouter : public Router {
 public:
  const char* name() const override { return "static"; }
  std::vector<double> Split(const std::vector<RegionSnapshot>& regions,
                            double total_qps,
                            const RouterOptions& options) override;
};

// Latency-aware least-loaded: among regions within the latency budget,
// allocate proportionally to safe capacity derated by the region's current
// backlog (equalizing utilization and draining queues). Carbon-blind.
class LeastLoadedRouter : public Router {
 public:
  const char* name() const override { return "least-loaded"; }
  std::vector<double> Split(const std::vector<RegionSnapshot>& regions,
                            double total_qps,
                            const RouterOptions& options) override;
};

// Carbon-greedy: fill regions in ascending carbon-intensity order, each up
// to its capacity margin, within the SLO latency budget; overflow past the
// fleet's total safe capacity spills proportionally to raw capacity so the
// stream is always fully routed.
class CarbonGreedyRouter : public Router {
 public:
  const char* name() const override { return "carbon-greedy"; }
  std::vector<double> Split(const std::vector<RegionSnapshot>& regions,
                            double total_qps,
                            const RouterOptions& options) override;
};

enum class RouterPolicy {
  kStatic = 0,
  kLeastLoaded = 1,
  kCarbonGreedy = 2,
};

const char* RouterPolicyName(RouterPolicy policy);

// Parses a policy name ("static" | "least-loaded" | "carbon-greedy");
// nullptr result semantics are awkward for an enum, so unknown names throw.
RouterPolicy ParseRouterPolicy(const std::string& name);

std::unique_ptr<Router> MakeRouter(RouterPolicy policy);

}  // namespace clover::fleet
