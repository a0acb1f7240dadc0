// Calibration constants for the performance and power models.
//
// Single source of truth for every number that stands in for a measurement
// the paper took on real hardware. Values are first-order approximations of
// an NVIDIA A100-40GB node (2× AMD EPYC 7542 hosts, 2 GPUs per node, as in
// the paper's testbed) and of public MIG characterizations (MISO, IPDPSW'22
// "Characterizing MIG for ML workloads"). The evaluation reproduces the
// paper's *relative* trends; absolute joules/milliseconds depend on these
// constants and are documented in docs/EXPERIMENTS.md.
#pragma once

namespace clover::perf {

// Sustained FP32-tensor throughput of one full A100 (paper: "ten NVIDIA
// A100 GPUs (195 TFLOPS)" => 19.5 TFLOP/s per GPU).
inline constexpr double kGpuPeakTflops = 19.5;

// Peak throughput of a single compute slice (1g).
inline constexpr double kSlicePeakTflops = kGpuPeakTflops / 7.0;

// Multiplicative service-time jitter: real serving latency varies with
// input size (image content, sequence length). Sampled per request as
// max(0, 1 + sigma * N(0,1)), truncated at +/- 3 sigma.
inline constexpr double kServiceJitterSigma = 0.08;

// --- Power model (per GPU, node overheads attributed per GPU) ---

// Idle board power of an A100 with MIG enabled.
inline constexpr double kGpuIdleWatts = 20.0;
// Additional dynamic power of the GPU at 100% utilization of all 7 slices.
inline constexpr double kGpuMaxDynamicWatts = 345.0;
// Fraction of a slice's dynamic budget drawn whenever it is serving,
// independent of SM occupancy (clock boost, memory system, scheduler): an
// A100 slice running a tiny kernel stream still draws a large share of its
// active power. The occupancy-dependent remainder scales with u(v,s).
inline constexpr double kActivePowerFloor = 0.2;
// Host CPU/memory/NIC idle power attributed to each of the node's 2 GPUs.
inline constexpr double kHostIdleWattsPerGpu = 10.0;
// Host dynamic power per GPU at 100% average GPU busy fraction (data
// loading, pre/post-processing track the inference rate).
inline constexpr double kHostDynamicWattsPerGpu = 60.0;

// Datacenter power usage effectiveness (paper Sec. 5.1: constant 1.5,
// following the Uptime Institute 2022 survey).
inline constexpr double kPue = 1.5;

}  // namespace clover::perf
