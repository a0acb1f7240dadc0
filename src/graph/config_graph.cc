#include "graph/config_graph.h"

#include <sstream>

#include "common/check.h"
#include "common/rng.h"

namespace clover::graph {

ConfigGraph::ConfigGraph(models::Application app, int num_variants)
    : app_(app), num_variants_(num_variants) {
  CLOVER_CHECK(num_variants_ > 0);
  weights_.assign(
      static_cast<std::size_t>(num_variants_) * mig::kNumSliceTypes, 0);
}

std::size_t ConfigGraph::EdgeIndex(int variant, mig::SliceType slice) const {
  CLOVER_DCHECK(variant >= 0 && variant < num_variants_);
  return static_cast<std::size_t>(variant) * mig::kNumSliceTypes +
         static_cast<std::size_t>(slice);
}

int ConfigGraph::Weight(int variant, mig::SliceType slice) const {
  return weights_[EdgeIndex(variant, slice)];
}

void ConfigGraph::SetWeight(int variant, mig::SliceType slice, int weight) {
  CLOVER_CHECK(weight >= 0);
  weights_[EdgeIndex(variant, slice)] = weight;
}

void ConfigGraph::AddWeight(int variant, mig::SliceType slice, int delta) {
  int& w = weights_[EdgeIndex(variant, slice)];
  CLOVER_CHECK_MSG(w + delta >= 0, "edge weight would become negative");
  w += delta;
}

int ConfigGraph::TotalInstances() const {
  int total = 0;
  for (int w : weights_) total += w;
  return total;
}

mig::SliceCounts ConfigGraph::SliceDemand() const {
  mig::SliceCounts demand{};
  for (int v = 0; v < num_variants_; ++v)
    for (mig::SliceType slice : mig::kAllSliceTypes)
      demand[static_cast<std::size_t>(slice)] += Weight(v, slice);
  return demand;
}

std::uint64_t ConfigGraph::Key() const {
  // FNV-1a over weights with a SplitMix finalizer; weights are small ints
  // so this is collision-free in practice for the search-space sizes here
  // (operator== still guards the cache).
  std::uint64_t h = 0xCBF29CE484222325ULL ^
                    (static_cast<std::uint64_t>(app_) << 32) ^
                    static_cast<std::uint64_t>(num_variants_);
  for (int w : weights_) {
    h ^= static_cast<std::uint64_t>(w) + 0x9E3779B9ULL;
    h *= 0x100000001B3ULL;
  }
  std::uint64_t state = h;
  return SplitMix64(state);
}

bool ConfigGraph::operator==(const ConfigGraph& other) const {
  return app_ == other.app_ && num_variants_ == other.num_variants_ &&
         weights_ == other.weights_;
}

std::string ConfigGraph::ToString(const models::ModelZoo& zoo) const {
  const models::ModelFamily& family = zoo.ForApplication(app_);
  std::ostringstream os;
  bool first = true;
  for (int v = 0; v < num_variants_; ++v) {
    for (mig::SliceType slice : mig::kAllSliceTypes) {
      const int w = Weight(v, slice);
      if (w == 0) continue;
      if (!first) os << ", ";
      first = false;
      os << family.Variant(v).name << "@" << mig::Name(slice) << "x" << w;
    }
  }
  if (first) os << "(empty)";
  return os.str();
}

ConfigGraph ConfigGraph::FromDeployment(const serving::Deployment& deployment,
                                        const models::ModelZoo& zoo) {
  const models::ModelFamily& family = zoo.ForApplication(deployment.app);
  ConfigGraph graph(deployment.app, family.NumVariants());
  for (const serving::InstanceSpec& spec : deployment.Instances())
    graph.AddWeight(spec.variant_ordinal, spec.slice, 1);
  return graph;
}

}  // namespace clover::graph
