// The cost of reconfiguring a GPU's MIG partition.
//
// Repartitioning a GPU with MIG requires destroying the current GPU
// instances, creating the new ones, and re-initializing an inference server
// on every slice (loading model weights to device memory). The node serves
// no traffic while this happens; Clover pays this cost on every candidate
// evaluation and it is included in all reported results (paper Sec. 4.3).
#pragma once

namespace clover::mig {

// Reconfiguration latency model, calibrated to the order of magnitude of
// `nvidia-smi mig` operations plus model-server restart observed in public
// MIG studies (seconds, not milliseconds).
struct RepartitionCostModel {
  // Destroying + creating GPU instances when the layout changes.
  double partition_seconds = 5.0;
  // Server process restart + CUDA context creation per instance.
  double instance_startup_seconds = 1.5;
  // Weight-loading throughput: seconds per million parameters (covers host
  // I/O + PCIe transfer + allocator warmup).
  double seconds_per_million_params = 0.015;

  // Model-load time for a variant with `params_millions` parameters.
  double ModelLoadSeconds(double params_millions) const {
    return instance_startup_seconds +
           seconds_per_million_params * params_millions;
  }

  // Total offline time for a node whose layout changed and whose slowest
  // new instance has `max_params_millions` parameters (instances load in
  // parallel, one server process per slice).
  double NodeOfflineSeconds(bool layout_changed,
                            double max_params_millions) const {
    double t = layout_changed ? partition_seconds : 0.0;
    if (max_params_millions > 0.0) t += ModelLoadSeconds(max_params_millions);
    return t;
  }
};

}  // namespace clover::mig
