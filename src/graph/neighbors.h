// Neighbor sampling in the graph-represented search space (paper Sec. 4.2).
//
// A neighbor of a center graph is any feasible graph within GED 4. The
// sampler composes one or two atomic moves:
//   variant swap   (GED 2)  one instance changes model variant
//   slice move     (GED 2)  one instance moves to a different slice type
//   add copy       (GED 1)  a new instance appears on some slice type
//   remove copy    (GED 1)  an instance is retired
// and two composite moves that are still within the GED-4 neighborhood but
// traverse the partitioning axis much faster than chance composition of
// atomic moves would:
//   split          (GED <= 4)  one instance on a big slice becomes up to 3
//                              instances of the same variant on smaller
//                              slices (1 removal + k additions)
//   merge          (GED <= 4)  up to 3 instances on a small slice type fold
//                              into one instance on a bigger slice
// Proposals that violate feasibility (OOM edges, slice demand not coverable
// by the cluster's GPUs, zero instances) are rejected. add/remove/split/
// merge are the mechanism by which the optimizer changes the degree of GPU
// sharing — e.g. growing from 10 instances (BASE) toward 70 (fully
// partitioned).
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.h"
#include "graph/config_graph.h"
#include "graph/ged.h"
#include "graph/mapping.h"

namespace clover::graph {

class NeighborSampler {
 public:
  struct Options {
    int max_ged = kNeighborhoodGed;
    // Probability of composing two atomic moves instead of one.
    double second_move_probability = 0.5;
    // Ablation knob: disable the composite split/merge moves so only the
    // four atomic moves are proposed (bench/ablation_optimizer measures how
    // much the composite moves accelerate traversal of the partitioning
    // axis).
    bool enable_split_merge = true;
  };

  NeighborSampler(GraphMapper* mapper, std::uint64_t seed);
  NeighborSampler(GraphMapper* mapper, std::uint64_t seed,
                  const Options& options);

  // Draws a feasible neighbor distinct from `center`, or nullopt when 64
  // proposals all failed (a center whose whole neighborhood is infeasible
  // is pathological but possible).
  std::optional<ConfigGraph> Sample(const ConfigGraph& center);

 private:
  enum class Move { kVariantSwap, kSliceMove, kAdd, kRemove, kSplit, kMerge };

  // Applies one random move in place; returns the GED the move consumed, or
  // 0 when no such move exists (e.g. remove with a single instance).
  int ApplyRandomMove(ConfigGraph& graph);

  // Picks a random existing edge (weight > 0); false when none.
  bool PickRandomEdge(const ConfigGraph& graph, int* variant,
                      mig::SliceType* slice);

  GraphMapper* mapper_;
  Options options_;
  RngStream rng_;
};

// Draws one uniformly random feasible configuration in the raw (x_p, x_v)
// space: a random layout per GPU, a random fitting variant per slice (or,
// with probability 0.1, none). Used by Blover's random search and by
// Clover's blind first invocation (paper Sec. 5.2.2: "it starts blindly").
ConfigGraph SampleRandomConfiguration(GraphMapper& mapper, RngStream& rng,
                                      models::Application app);

}  // namespace clover::graph
