#include "fleet/router.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace clover::fleet {
namespace {

// Regions a policy may route to, in preference order of fallbacks:
// online regions within the latency budget; else all online regions (the
// SLO is already lost, serve anyway); else every region (traffic has to go
// somewhere — it queues at the ingress of the downed fleet).
std::vector<std::size_t> EligibleRegions(
    const std::vector<RegionSnapshot>& regions, const RouterOptions& options,
    bool apply_latency_budget) {
  std::vector<std::size_t> eligible;
  if (apply_latency_budget && options.slo_budget_ms > 0.0) {
    for (std::size_t i = 0; i < regions.size(); ++i)
      if (regions[i].online &&
          regions[i].latency_penalty_ms <= options.slo_budget_ms)
        eligible.push_back(i);
    if (!eligible.empty()) return eligible;
  }
  for (std::size_t i = 0; i < regions.size(); ++i)
    if (regions[i].online) eligible.push_back(i);
  if (!eligible.empty()) return eligible;
  eligible.resize(regions.size());
  std::iota(eligible.begin(), eligible.end(), std::size_t{0});
  return eligible;
}

// Normalizes absolute allocations into weights summing to exactly 1.0:
// after the divide, the residual (a few ulps) is folded into the largest
// weight so conservation of routed load holds bit-exactly.
std::vector<double> NormalizeExact(std::vector<double> alloc) {
  double total = 0.0;
  for (double a : alloc) total += a;
  CLOVER_CHECK_MSG(total > 0.0, "router produced an empty allocation");
  std::size_t largest = 0;
  for (std::size_t i = 0; i < alloc.size(); ++i) {
    alloc[i] /= total;
    if (alloc[i] > alloc[largest]) largest = i;
  }
  double sum_except = 0.0;
  for (std::size_t i = 0; i < alloc.size(); ++i)
    if (i != largest) sum_except += alloc[i];
  alloc[largest] = 1.0 - sum_except;
  return alloc;
}

double SafeCapacity(const RegionSnapshot& region,
                    const RouterOptions& options) {
  const double margin = std::max(1.0, options.capacity_margin);
  return region.capacity_qps / margin;
}

}  // namespace

std::vector<double> StaticWeightedRouter::Split(
    const std::vector<RegionSnapshot>& regions, double total_qps,
    const RouterOptions& options) {
  (void)total_qps;
  // The static split is the operator's fixed prior — the latency budget is
  // whatever the operator encoded in the weights.
  const std::vector<std::size_t> eligible =
      EligibleRegions(regions, options, /*apply_latency_budget=*/false);
  std::vector<double> alloc(regions.size(), 0.0);
  double prior_sum = 0.0;
  for (std::size_t i : eligible)
    prior_sum += std::max(0.0, regions[i].static_weight);
  for (std::size_t i : eligible)
    alloc[i] = prior_sum > 0.0 ? std::max(0.0, regions[i].static_weight)
                               : 1.0;  // degenerate prior: uniform
  return NormalizeExact(std::move(alloc));
}

std::vector<double> LeastLoadedRouter::Split(
    const std::vector<RegionSnapshot>& regions, double total_qps,
    const RouterOptions& options) {
  (void)total_qps;
  const std::vector<std::size_t> eligible =
      EligibleRegions(regions, options, /*apply_latency_budget=*/true);
  std::vector<double> alloc(regions.size(), 0.0);
  double score_sum = 0.0;
  for (std::size_t i : eligible) {
    // Derate by the backlog measured in seconds-of-work at capacity: a
    // region one full second behind gets half its share until it drains.
    const double cap = SafeCapacity(regions[i], options);
    const double backlog_s =
        regions[i].capacity_qps > 0.0
            ? regions[i].queue_depth / regions[i].capacity_qps
            : 0.0;
    alloc[i] = cap / (1.0 + backlog_s);
    score_sum += alloc[i];
  }
  if (score_sum <= 0.0)
    for (std::size_t i : eligible) alloc[i] = 1.0;
  return NormalizeExact(std::move(alloc));
}

std::vector<double> CarbonGreedyRouter::Split(
    const std::vector<RegionSnapshot>& regions, double total_qps,
    const RouterOptions& options) {
  const std::vector<std::size_t> eligible =
      EligibleRegions(regions, options, /*apply_latency_budget=*/true);
  if (total_qps <= 0.0) {
    // Nothing to route; fall back to an even split of the zero stream.
    std::vector<double> alloc(regions.size(), 0.0);
    for (std::size_t i : eligible) alloc[i] = 1.0;
    return NormalizeExact(std::move(alloc));
  }

  // Cleanest grids first; ties broken toward the ingress, then by index —
  // a total order, so the split is deterministic. The sort keys sit
  // contiguously rather than behind an index into the snapshots.
  struct Key {
    double ci;
    double penalty_ms;
    std::size_t index;
  };
  std::vector<Key> order;
  order.reserve(eligible.size());
  for (std::size_t i : eligible)
    order.push_back({regions[i].ci, regions[i].latency_penalty_ms, i});
  std::sort(order.begin(), order.end(), [](const Key& a, const Key& b) {
    if (a.ci != b.ci) return a.ci < b.ci;
    if (a.penalty_ms != b.penalty_ms) return a.penalty_ms < b.penalty_ms;
    return a.index < b.index;
  });

  std::vector<double> alloc(regions.size(), 0.0);
  double remaining = total_qps;
  for (const Key& key : order) {
    const std::size_t i = key.index;
    double headroom = 1.0;
    if (options.slo_budget_ms > 0.0)
      headroom = std::max(
          0.0, 1.0 - regions[i].latency_penalty_ms / options.slo_budget_ms);
    const double take =
        std::min(remaining, SafeCapacity(regions[i], options) * headroom);
    alloc[i] = take;
    remaining -= take;
    if (remaining <= 0.0) break;
  }
  if (remaining > 0.0) {
    // The fleet is saturated past its margins: spill proportionally to raw
    // capacity (overload shared, stream fully routed).
    double cap_sum = 0.0;
    for (std::size_t i : eligible) cap_sum += regions[i].capacity_qps;
    for (std::size_t i : eligible)
      alloc[i] += cap_sum > 0.0
                      ? remaining * regions[i].capacity_qps / cap_sum
                      : remaining / static_cast<double>(eligible.size());
  }
  return NormalizeExact(std::move(alloc));
}

const char* RouterPolicyName(RouterPolicy policy) {
  switch (policy) {
    case RouterPolicy::kStatic: return "static";
    case RouterPolicy::kLeastLoaded: return "least-loaded";
    case RouterPolicy::kCarbonGreedy: return "carbon-greedy";
  }
  return "?";
}

RouterPolicy ParseRouterPolicy(const std::string& name) {
  if (name == "static") return RouterPolicy::kStatic;
  if (name == "least-loaded") return RouterPolicy::kLeastLoaded;
  if (name == "carbon-greedy") return RouterPolicy::kCarbonGreedy;
  CLOVER_CHECK_MSG(false, "unknown router policy '" << name << "'");
}

std::unique_ptr<Router> MakeRouter(RouterPolicy policy) {
  switch (policy) {
    case RouterPolicy::kStatic:
      return std::make_unique<StaticWeightedRouter>();
    case RouterPolicy::kLeastLoaded:
      return std::make_unique<LeastLoadedRouter>();
    case RouterPolicy::kCarbonGreedy:
      return std::make_unique<CarbonGreedyRouter>();
  }
  CLOVER_CHECK_MSG(false, "unknown router policy");
}

}  // namespace clover::fleet
