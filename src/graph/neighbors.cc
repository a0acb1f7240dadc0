#include "graph/neighbors.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "perf/perf_model.h"

namespace clover::graph {
namespace {

// Proposals Sample draws before giving up on a center.
constexpr int kMaxAttempts = 64;
// Probability SampleRandomConfiguration leaves a slice empty.
constexpr double kEmptySliceProbability = 0.1;

}  // namespace

NeighborSampler::NeighborSampler(GraphMapper* mapper, std::uint64_t seed)
    : NeighborSampler(mapper, seed, Options()) {}

NeighborSampler::NeighborSampler(GraphMapper* mapper, std::uint64_t seed,
                                 const Options& options)
    : mapper_(mapper), options_(options), rng_(seed, "neighbor-sampler") {
  CLOVER_CHECK(mapper_ != nullptr);
}

bool NeighborSampler::PickRandomEdge(const ConfigGraph& graph, int* variant,
                                     mig::SliceType* slice) {
  // Reservoir-free: draw an instance index uniformly and walk the edges.
  const int total = graph.TotalInstances();
  if (total == 0) return false;
  std::uint64_t target = rng_.NextBounded(static_cast<std::uint64_t>(total));
  for (int v = 0; v < graph.num_variants(); ++v) {
    for (mig::SliceType s : mig::kAllSliceTypes) {
      const auto w = static_cast<std::uint64_t>(graph.Weight(v, s));
      if (target < w) {
        *variant = v;
        *slice = s;
        return true;
      }
      target -= w;
    }
  }
  CLOVER_CHECK_MSG(false, "instance index out of range");
  return false;
}

int NeighborSampler::ApplyRandomMove(ConfigGraph& graph) {
  const models::ModelFamily& family =
      mapper_->zoo().ForApplication(graph.app());
  const auto move = static_cast<Move>(
      rng_.NextBounded(options_.enable_split_merge ? 6 : 4));

  switch (move) {
    case Move::kVariantSwap: {
      int v;
      mig::SliceType s;
      if (!PickRandomEdge(graph, &v, &s)) return 0;
      // Candidate replacement variants that fit the slice.
      std::vector<int> candidates;
      for (int v2 = 0; v2 < graph.num_variants(); ++v2)
        if (v2 != v && perf::PerfModel::Fits(family.Variant(v2), s))
          candidates.push_back(v2);
      if (candidates.empty()) return 0;
      const int v2 = candidates[rng_.NextBounded(candidates.size())];
      graph.AddWeight(v, s, -1);
      graph.AddWeight(v2, s, +1);
      return 2;
    }
    case Move::kSliceMove: {
      int v;
      mig::SliceType s;
      if (!PickRandomEdge(graph, &v, &s)) return 0;
      std::vector<mig::SliceType> candidates;
      for (mig::SliceType s2 : mig::kAllSliceTypes)
        if (s2 != s && perf::PerfModel::Fits(family.Variant(v), s2))
          candidates.push_back(s2);
      if (candidates.empty()) return 0;
      const mig::SliceType s2 = candidates[rng_.NextBounded(candidates.size())];
      graph.AddWeight(v, s, -1);
      graph.AddWeight(v, s2, +1);
      return 2;
    }
    case Move::kAdd: {
      // Uniform over valid (variant, slice) pairs.
      std::vector<std::pair<int, mig::SliceType>> candidates;
      for (int v = 0; v < graph.num_variants(); ++v)
        for (mig::SliceType s : mig::kAllSliceTypes)
          if (perf::PerfModel::Fits(family.Variant(v), s))
            candidates.emplace_back(v, s);
      if (candidates.empty()) return 0;
      const auto& [v, s] = candidates[rng_.NextBounded(candidates.size())];
      graph.AddWeight(v, s, +1);
      return 1;
    }
    case Move::kRemove: {
      if (graph.TotalInstances() <= 1) return 0;
      int v;
      mig::SliceType s;
      if (!PickRandomEdge(graph, &v, &s)) return 0;
      graph.AddWeight(v, s, -1);
      return 1;
    }
    case Move::kSplit: {
      // One instance on a wide slice -> up to 3 instances of the same
      // variant on a narrower slice type (1 removal + k additions, GED
      // 1 + k <= 4).
      int v;
      mig::SliceType s;
      if (!PickRandomEdge(graph, &v, &s)) return 0;
      std::vector<mig::SliceType> narrower;
      for (mig::SliceType s2 : mig::kAllSliceTypes)
        if (mig::ComputeSlots(s2) < mig::ComputeSlots(s) &&
            perf::PerfModel::Fits(family.Variant(v), s2))
          narrower.push_back(s2);
      if (narrower.empty()) return 0;
      const mig::SliceType s2 = narrower[rng_.NextBounded(narrower.size())];
      const int fit = mig::ComputeSlots(s) / mig::ComputeSlots(s2);
      const int k = static_cast<int>(
          1 + rng_.NextBounded(static_cast<std::uint64_t>(
                  std::min(3, std::max(1, fit)))));
      graph.AddWeight(v, s, -1);
      graph.AddWeight(v, s2, +k);
      return 1 + k;
    }
    case Move::kMerge: {
      // Up to 3 instances on one slice type fold into a single instance of
      // the same variant on a wider slice (k removals + 1 addition).
      int v;
      mig::SliceType s;
      if (!PickRandomEdge(graph, &v, &s)) return 0;
      std::vector<mig::SliceType> wider;
      for (mig::SliceType s2 : mig::kAllSliceTypes)
        if (mig::ComputeSlots(s2) > mig::ComputeSlots(s) &&
            perf::PerfModel::Fits(family.Variant(v), s2))
          wider.push_back(s2);
      if (wider.empty()) return 0;
      const mig::SliceType s2 = wider[rng_.NextBounded(wider.size())];
      const int available = graph.Weight(v, s);
      const int k = static_cast<int>(
          1 + rng_.NextBounded(static_cast<std::uint64_t>(
                  std::min(3, available))));
      graph.AddWeight(v, s, -k);
      graph.AddWeight(v, s2, +1);
      return k + 1;
    }
  }
  return 0;
}

std::optional<ConfigGraph> NeighborSampler::Sample(const ConfigGraph& center) {
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    ConfigGraph candidate = center;
    const int ged_used = ApplyRandomMove(candidate);
    if (ged_used == 0 || ged_used > options_.max_ged) continue;
    if (ged_used <= 2 &&
        rng_.NextDouble() < options_.second_move_probability) {
      // Compose a second atomic move only when the first left budget; a
      // failed or over-budget second move is rolled back.
      ConfigGraph composed = candidate;
      const int second = ApplyRandomMove(composed);
      if (second > 0 && ged_used + second <= options_.max_ged)
        candidate = composed;
    }
    if (candidate == center) continue;
    CLOVER_DCHECK(GraphEditDistance(candidate, center) <= options_.max_ged);
    if (!mapper_->IsFeasible(candidate)) continue;
    return candidate;
  }
  return std::nullopt;
}

ConfigGraph SampleRandomConfiguration(GraphMapper& mapper, RngStream& rng,
                                      models::Application app) {
  const models::ModelFamily& family = mapper.zoo().ForApplication(app);
  const auto& table = mig::MigConfigTable::Get();
  for (;;) {
    ConfigGraph graph(app, family.NumVariants());
    int instances = 0;
    for (int g = 0; g < mapper.num_gpus(); ++g) {
      const int layout_id =
          1 + static_cast<int>(rng.NextBounded(
                  static_cast<std::uint64_t>(table.NumLayouts())));
      for (mig::SliceType slice : table.Layout(layout_id).slices) {
        if (rng.NextDouble() < kEmptySliceProbability) continue;
        std::vector<int> fitting;
        for (int v = 0; v < family.NumVariants(); ++v)
          if (perf::PerfModel::Fits(family.Variant(v), slice))
            fitting.push_back(v);
        if (fitting.empty()) continue;
        graph.AddWeight(fitting[rng.NextBounded(fitting.size())], slice, 1);
        ++instances;
      }
    }
    if (instances == 0) continue;
    CLOVER_DCHECK(mapper.IsFeasible(graph));
    return graph;
  }
}

}  // namespace clover::graph
