// Model variants and families (paper Table 1 + Sec. 2).
//
// A model *family* (YOLOv5, ALBERT, EfficientNet) exposes several *variants*
// with increasing parameter counts, accuracy, and compute cost. Clover
// encodes variants as ordinal values (Sec. 4.1); ordinal 0 is the smallest
// variant and the highest ordinal is the quality used by the BASE scheme.
#pragma once

#include <string>
#include <vector>

#include "common/tokens.h"
#include "mig/slice_type.h"

namespace clover::models {

// Which of the paper's three inference applications a family serves.
enum class Application {
  kDetection = 0,       // object detection, MS COCO
  kLanguage = 1,        // extractive QA, SQuADv2
  kClassification = 2,  // image classification, ImageNet
};

inline constexpr int kNumApplications = 3;

inline constexpr EnumToken<Application> kApplicationTokens[] = {
    {"detection", Application::kDetection},
    {"language", Application::kLanguage},
    {"classification", Application::kClassification},
};

// Display name for tables and reports ("Detection", ...).
std::string_view ApplicationName(Application app);

struct ModelVariant {
  std::string name;        // e.g. "EfficientNet-B7"
  int ordinal = 0;         // position within the family, 0 = smallest
  double accuracy = 0.0;   // published metric value (%, family-specific)
  double flops_g = 0.0;    // giga-FLOPs per inference query
  double params_m = 0.0;   // parameters, millions
  double weight_mem_gb = 0.0;      // device memory for weights
  double activation_mem_gb = 0.0;  // working-set memory during inference
  // Number of A100 compute slices the variant's kernels can keep busy; the
  // roofline latency model saturates at this width (see perf/perf_model.h).
  double saturation_slices = 1.0;

  // Total device memory the serving process needs.
  double TotalMemGb() const { return weight_mem_gb + activation_mem_gb; }
};

struct ModelFamily {
  Application app = Application::kClassification;
  std::string family_name;   // e.g. "EfficientNet"
  std::string dataset;       // e.g. "ImageNet"
  std::string metric;        // e.g. "top-1 %"
  // Fraction of a slice's peak FLOP/s the family's kernels achieve
  // (arithmetic-intensity / kernel-efficiency factor of the roofline model).
  double achieved_peak_fraction = 0.3;
  // Fixed per-query overhead (pre/post-processing, host<->device transfer,
  // framework dispatch) that does not shrink with more GPU resources.
  double overhead_ms = 10.0;
  std::vector<ModelVariant> variants;  // ascending ordinal

  int NumVariants() const { return static_cast<int>(variants.size()); }
  const ModelVariant& Variant(int ordinal) const;
  const ModelVariant& Smallest() const { return variants.front(); }
  const ModelVariant& Largest() const { return variants.back(); }
};

}  // namespace clover::models
