// The Clover configuration graph (paper Definition 1, Sec. 4.2).
//
// A directed bipartite graph between model-variant vertices and MIG
// slice-type vertices; the weight of edge (v, s) is the number of instances
// of variant v hosted on slices of type s anywhere in the cluster. Thanks
// to MIG's performance isolation, two deployments with the same graph have
// identical accuracy/energy/latency — the graph is the quotient of (x_p,
// x_v) that removes this redundancy, and edge weights are additive in the
// number of GPUs (the paper's two arguments for optimizing in graph space).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mig/mig_config.h"
#include "models/zoo.h"
#include "serving/deployment.h"

namespace clover::graph {

class ConfigGraph {
 public:
  ConfigGraph(models::Application app, int num_variants);

  int num_variants() const { return num_variants_; }
  models::Application app() const { return app_; }

  int Weight(int variant, mig::SliceType slice) const;
  void SetWeight(int variant, mig::SliceType slice, int weight);
  // Adds `delta` (may be negative); the result must stay >= 0.
  void AddWeight(int variant, mig::SliceType slice, int delta);

  // Total edge weight = number of service instances.
  int TotalInstances() const;

  // Instance count per slice type (the demand the decomposition solver must
  // cover with per-GPU layouts).
  mig::SliceCounts SliceDemand() const;

  // Stable 64-bit key for the evaluation cache. Equal graphs have equal
  // keys; collisions are guarded by operator== at the caller.
  std::uint64_t Key() const;

  bool operator==(const ConfigGraph& other) const;

  std::string ToString(const models::ModelZoo& zoo) const;

  // Projects a concrete deployment onto its configuration graph.
  static ConfigGraph FromDeployment(const serving::Deployment& deployment,
                                    const models::ModelZoo& zoo);

 private:
  std::size_t EdgeIndex(int variant, mig::SliceType slice) const;

  models::Application app_;
  int num_variants_;
  std::vector<int> weights_;  // num_variants x kNumSliceTypes, row-major
};

}  // namespace clover::graph
