// Cluster deployments: the concrete form of the optimization variables
// (x_p, x_v) from paper Sec. 4.1.
//
// A Deployment assigns each of the n GPUs a MIG layout (x_p) and each slice
// of that layout a model variant or "empty" (x_v). One service instance
// runs per occupied slice. The configuration graph (graph/config_graph.h)
// is the quotient of this representation under MIG's performance isolation:
// only (variant, slice-type) pairs matter for the objective.
#pragma once

#include <string>
#include <vector>

#include "mig/mig_config.h"
#include "mig/partition.h"
#include "models/zoo.h"

namespace clover::serving {

// Sentinel: slice hosts no model (drawn static power only).
inline constexpr int kEmptySlice = -1;

struct GpuAssignment {
  int layout_id = 1;                  // MIG layout (paper Fig. 1 numbering)
  std::vector<int> variant_ordinals;  // one per slice; kEmptySlice allowed

  const mig::MigLayout& layout() const {
    return mig::MigConfigTable::Get().Layout(layout_id);
  }
};

// One service instance = one occupied slice.
struct InstanceSpec {
  int gpu_index = 0;
  int slice_index = 0;  // within the GPU's layout
  mig::SliceType slice = mig::SliceType::k7g;
  int variant_ordinal = 0;
};

struct Deployment {
  models::Application app = models::Application::kClassification;
  std::vector<GpuAssignment> gpus;

  int NumGpus() const { return static_cast<int>(gpus.size()); }

  // All occupied slices, in (gpu, slice) order.
  std::vector<InstanceSpec> Instances() const;
  int NumInstances() const;

  // Validates structure: layout/slice arity, variant ordinals within the
  // family, memory fit on every occupied slice, and at least one instance.
  // Throws CheckError on violation.
  void Validate(const models::ModelZoo& zoo) const;

  // True iff every occupied slice passes the memory-fit predicate and there
  // is at least one instance (non-throwing variant of Validate).
  bool IsFeasible(const models::ModelZoo& zoo) const;

  std::string ToString(const models::ModelZoo& zoo) const;
};

// True iff `a` and `b` serve the same application with the same instance
// list: gpu, slice index, slice type and variant of every occupied slice.
// A layout change that leaves every instance in place compares equal, so it
// is not a commit for a live executor.
bool SameInstances(const Deployment& a, const Deployment& b);

// --- Canonical deployments used by the paper's schemes (Sec. 5.1) ---

// Same layout on every GPU, same variant on every slice.
Deployment MakeUniform(models::Application app, int num_gpus, int layout_id,
                       int variant_ordinal);

// BASE: highest-quality variant on unpartitioned GPUs.
Deployment MakeBase(models::Application app, int num_gpus);

// CO2OPT: finest partition (seven 1g slices) hosting the smallest variant.
// Requires the family's smallest variant to fit a 1g slice (true for the
// paper's zoo).
Deployment MakeCo2Opt(models::Application app, int num_gpus,
                      const models::ModelZoo& zoo);

}  // namespace clover::serving
