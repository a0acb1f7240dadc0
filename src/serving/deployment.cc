#include "serving/deployment.h"

#include <sstream>

#include "common/check.h"
#include "perf/perf_model.h"

namespace clover::serving {

std::vector<InstanceSpec> Deployment::Instances() const {
  std::vector<InstanceSpec> instances;
  for (int g = 0; g < NumGpus(); ++g) {
    const GpuAssignment& gpu = gpus[static_cast<std::size_t>(g)];
    const mig::MigLayout& layout = gpu.layout();
    for (int s = 0; s < layout.NumSlices(); ++s) {
      const int ordinal = gpu.variant_ordinals[static_cast<std::size_t>(s)];
      if (ordinal == kEmptySlice) continue;
      instances.push_back(InstanceSpec{
          g, s, layout.slices[static_cast<std::size_t>(s)], ordinal});
    }
  }
  return instances;
}

int Deployment::NumInstances() const {
  int count = 0;
  for (const GpuAssignment& gpu : gpus)
    for (int ordinal : gpu.variant_ordinals)
      if (ordinal != kEmptySlice) ++count;
  return count;
}

bool SameInstances(const Deployment& a, const Deployment& b) {
  if (a.app != b.app) return false;
  const std::vector<InstanceSpec> ia = a.Instances();
  const std::vector<InstanceSpec> ib = b.Instances();
  if (ia.size() != ib.size()) return false;
  for (std::size_t i = 0; i < ia.size(); ++i) {
    if (ia[i].gpu_index != ib[i].gpu_index ||
        ia[i].slice_index != ib[i].slice_index ||
        ia[i].slice != ib[i].slice ||
        ia[i].variant_ordinal != ib[i].variant_ordinal)
      return false;
  }
  return true;
}

void Deployment::Validate(const models::ModelZoo& zoo) const {
  CLOVER_CHECK_MSG(!gpus.empty(), "deployment has no GPUs");
  const models::ModelFamily& family = zoo.ForApplication(app);
  int instances = 0;
  for (const GpuAssignment& gpu : gpus) {
    const mig::MigLayout& layout = gpu.layout();
    CLOVER_CHECK_MSG(
        static_cast<int>(gpu.variant_ordinals.size()) == layout.NumSlices(),
        "variant assignment arity " << gpu.variant_ordinals.size()
                                    << " != layout slices "
                                    << layout.NumSlices());
    for (int s = 0; s < layout.NumSlices(); ++s) {
      const int ordinal = gpu.variant_ordinals[static_cast<std::size_t>(s)];
      if (ordinal == kEmptySlice) continue;
      ++instances;
      CLOVER_CHECK_MSG(ordinal >= 0 && ordinal < family.NumVariants(),
                       "variant ordinal " << ordinal << " out of range");
      const models::ModelVariant& variant = family.Variant(ordinal);
      const mig::SliceType slice = layout.slices[static_cast<std::size_t>(s)];
      CLOVER_CHECK_MSG(perf::PerfModel::Fits(variant, slice),
                       variant.name << " does not fit "
                                    << mig::Name(slice));
    }
  }
  CLOVER_CHECK_MSG(instances > 0, "deployment hosts no instances");
}

bool Deployment::IsFeasible(const models::ModelZoo& zoo) const {
  if (gpus.empty()) return false;
  const models::ModelFamily& family = zoo.ForApplication(app);
  int instances = 0;
  for (const GpuAssignment& gpu : gpus) {
    const mig::MigLayout& layout = gpu.layout();
    if (static_cast<int>(gpu.variant_ordinals.size()) != layout.NumSlices())
      return false;
    for (int s = 0; s < layout.NumSlices(); ++s) {
      const int ordinal = gpu.variant_ordinals[static_cast<std::size_t>(s)];
      if (ordinal == kEmptySlice) continue;
      if (ordinal < 0 || ordinal >= family.NumVariants()) return false;
      const mig::SliceType slice = layout.slices[static_cast<std::size_t>(s)];
      if (!perf::PerfModel::Fits(family.Variant(ordinal), slice)) return false;
      ++instances;
    }
  }
  return instances > 0;
}

std::string Deployment::ToString(const models::ModelZoo& zoo) const {
  const models::ModelFamily& family = zoo.ForApplication(app);
  std::ostringstream os;
  for (int g = 0; g < NumGpus(); ++g) {
    const GpuAssignment& gpu = gpus[static_cast<std::size_t>(g)];
    const mig::MigLayout& layout = gpu.layout();
    os << "gpu" << g << " cfg" << gpu.layout_id << " {";
    for (int s = 0; s < layout.NumSlices(); ++s) {
      if (s) os << ", ";
      os << mig::ComputeSlots(layout.slices[static_cast<std::size_t>(s)])
         << "g:";
      const int ordinal = gpu.variant_ordinals[static_cast<std::size_t>(s)];
      os << (ordinal == kEmptySlice ? "-" : family.Variant(ordinal).name);
    }
    os << "}";
    if (g + 1 < NumGpus()) os << "  ";
  }
  return os.str();
}

Deployment MakeUniform(models::Application app, int num_gpus, int layout_id,
                       int variant_ordinal) {
  CLOVER_CHECK(num_gpus > 0);
  Deployment deployment;
  deployment.app = app;
  const mig::MigLayout& layout = mig::MigConfigTable::Get().Layout(layout_id);
  for (int g = 0; g < num_gpus; ++g) {
    GpuAssignment gpu;
    gpu.layout_id = layout_id;
    gpu.variant_ordinals.assign(
        static_cast<std::size_t>(layout.NumSlices()), variant_ordinal);
    deployment.gpus.push_back(std::move(gpu));
  }
  return deployment;
}

Deployment MakeBase(models::Application app, int num_gpus) {
  const models::ModelFamily& family =
      models::DefaultZoo().ForApplication(app);
  return MakeUniform(app, num_gpus, /*layout_id=*/1,
                     family.NumVariants() - 1);
}

Deployment MakeCo2Opt(models::Application app, int num_gpus,
                      const models::ModelZoo& zoo) {
  const models::ModelFamily& family = zoo.ForApplication(app);
  CLOVER_CHECK_MSG(
      perf::PerfModel::Fits(family.Smallest(), mig::SliceType::k1g),
      family.family_name << " smallest variant must fit a 1g slice");
  const int finest = mig::MigConfigTable::Get().NumLayouts();
  return MakeUniform(app, num_gpus, finest, /*variant_ordinal=*/0);
}

}  // namespace clover::serving
