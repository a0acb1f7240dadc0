#include "fleet/router.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <optional>

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

double SafeCapacity(const RegionSnapshot& region) {
  return region.capacity_qps / kRouterCapacityMargin;
}

// The bits of a non-NaN double, mapped so unsigned order is value order
// and the two zeros (equal under <) map to one key.
std::uint64_t OrderedBits(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x == 0.0 ? 0.0 : x);
  return bits >> 63 ? ~bits : bits | (std::uint64_t{1} << 63);
}

// A carbon-greedy fill-order key: cleanest grid first, ties broken toward
// the ingress, then by region index.
struct GreedyKey {
  std::uint64_t ci;
  std::uint64_t penalty;
  std::size_t index;
};

bool GreedyKeyLess(const GreedyKey& a, const GreedyKey& b) {
  if (a.ci != b.ci) return a.ci < b.ci;
  if (a.penalty != b.penalty) return a.penalty < b.penalty;
  return a.index < b.index;
}

// Sorts [first, last) by GreedyKeyLess, a total order, so any correct sort
// returns the same order bit for bit. An MSD bucket pass spreads the keys
// over about one bucket per key by the leading bits of their own ci range
// (buckets come out in key order), then sorts each bucket the same way:
// intensities cluster by grid, so a cluster gets its own pass. Short ranges
// take an insertion sort, and keys of one ci a comparison sort. `scratch`
// has room for last - first keys.
void SortGreedyKeys(GreedyKey* first, GreedyKey* last, GreedyKey* scratch) {
  const auto n = static_cast<std::size_t>(last - first);
  if (n <= 32) {
    for (GreedyKey* it = first + 1; it < last; ++it) {
      const GreedyKey key = *it;
      GreedyKey* hole = it;
      for (; hole > first && GreedyKeyLess(key, hole[-1]); --hole)
        *hole = hole[-1];
      *hole = key;
    }
    return;
  }
  const auto [lo, hi] = std::minmax_element(
      first, last,
      [](const GreedyKey& a, const GreedyKey& b) { return a.ci < b.ci; });
  const std::uint64_t base = lo->ci;
  const std::uint64_t span = hi->ci - base;
  if (span == 0) {
    std::sort(first, last, GreedyKeyLess);
    return;
  }
  const int shift = std::max(0, static_cast<int>(std::bit_width(span)) -
                                    static_cast<int>(std::bit_width(n)));
  const auto bucket = [&](const GreedyKey& key) {
    return static_cast<std::size_t>((key.ci - base) >> shift);
  };
  // end[b]: one past bucket b once the scatter below has run.
  std::vector<std::size_t> end(static_cast<std::size_t>(span >> shift) + 2);
  for (const GreedyKey* key = first; key < last; ++key) ++end[bucket(*key) + 1];
  std::partial_sum(end.begin(), end.end(), end.begin());
  for (const GreedyKey* key = first; key < last; ++key)
    scratch[end[bucket(*key)]++] = *key;
  std::copy(scratch, scratch + n, first);
  std::size_t begin = 0;
  for (std::size_t b = 0; begin < n; begin = end[b++])
    if (end[b] - begin > 1)
      SortGreedyKeys(first + begin, first + end[b], scratch);
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
    const double cap = SafeCapacity(regions[i]);
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
  // a total order, so the split is deterministic.
  std::vector<GreedyKey> order;
  order.reserve(eligible.size());
  for (std::size_t i : eligible)
    order.push_back({OrderedBits(regions[i].ci),
                     OrderedBits(regions[i].latency_penalty_ms), i});
  std::vector<GreedyKey> scratch(order.size());
  SortGreedyKeys(order.data(), order.data() + order.size(), scratch.data());

  std::vector<double> alloc(regions.size(), 0.0);
  double remaining = total_qps;
  for (const GreedyKey& key : order) {
    const std::size_t i = key.index;
    double headroom = 1.0;
    if (options.slo_budget_ms > 0.0)
      headroom = std::max(
          0.0, 1.0 - regions[i].latency_penalty_ms / options.slo_budget_ms);
    const double take =
        std::min(remaining, SafeCapacity(regions[i]) * headroom);
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
  return TokenOf(kRouterPolicyTokens, policy);
}

RouterPolicy ParseRouterPolicy(const std::string& name) {
  const std::optional<RouterPolicy> policy =
      ParseToken(kRouterPolicyTokens, name);
  CLOVER_CHECK_MSG(policy.has_value(),
                   "unknown router policy '" << name << "'");
  return *policy;
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
