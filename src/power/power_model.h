// Node power model.
//
// Instantaneous power per GPU decomposes into
//   P = P_gpu_idle + P_host_idle                      (always drawn)
//     + P_gpu_dyn_max * (slots_s/7) * u(v,s)          (per busy slice)
//     + P_host_dyn    * (slots_s/7)                   (per busy slice)
// where u(v,s) is the SM utilization of the hosted variant. Idle and empty
// slices draw no dynamic power. This is the structure that produces the
// paper's Opportunity 2: an unpartitioned GPU hosting one model burns the
// full static budget for one request stream, while a partitioned GPU
// amortizes it over up to 7 streams at high per-slice utilization.
//
// Because dynamic power is constant during service, window energy is linear
// in per-slice busy time — the simulator only needs busy-second accounting,
// not power sampling.
#pragma once

#include "mig/slice_type.h"
#include "models/variant.h"

namespace clover::power {

class PowerModel {
 public:
  // Constant draw per GPU (GPU board idle + attributed host idle), watts.
  static double StaticWattsPerGpu();

  // Dynamic draw (GPU + host) while a slice of `slice` type serves
  // `variant`, watts. Zero when the slice idles.
  static double DynamicWatts(const models::ModelVariant& variant,
                             mig::SliceType slice);
};

}  // namespace clover::power
