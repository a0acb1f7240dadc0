// The benchmark's workloads. Each fills `result` with its end-to-end
// metrics and, when args.trace is set, with the per-layer metrics of an
// extra traced run. Inputs come from args.seed alone.
#pragma once

#include "bench.h"

namespace perfbench {

void RunClusterPaper(const Args& args, Result* result);
void RunFleetGeo(const Args& args, Result* result);
void RunFleetFluid(const Args& args, Result* result);
void RunLiveOpenLoop(const Args& args, Result* result);

}  // namespace perfbench
