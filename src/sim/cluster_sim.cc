#include "sim/cluster_sim.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "perf/perf_model.h"
#include "power/power_model.h"

namespace clover::sim {

ClusterSim::ClusterSim(serving::Deployment initial,
                       const models::ModelZoo& zoo,
                       const carbon::CarbonTrace* trace,
                       const SimOptions& options)
    : zoo_(&zoo),
      trace_(trace),
      options_(options),
      deployment_(std::move(initial)),
      arrivals_(options.arrival_rate_qps, options.seed, options.burst),
      jitter_rng_(options.seed, "service-jitter"),
      meter_(deployment_.NumGpus()),
      accountant_(options.pue) {
  CLOVER_CHECK(trace_ != nullptr);
  deployment_.Validate(zoo);
  CLOVER_CHECK(options_.window_seconds > 0.0);
  base_rate_qps_ = options_.arrival_rate_qps;
  BuildFaultTransitions();
  // One completion event per busy instance plus a few wake events is the
  // queue's whole steady-state population; reserving once here keeps the
  // event loop allocation-free.
  events_.Reserve(kMaxInstances + 8);
  BuildInstances(deployment_,
                 std::vector<double>(
                     static_cast<std::size_t>(deployment_.NumGpus()), 0.0));
  pending_arrival_ = arrivals_.NextArrivalTime();
}

void ClusterSim::BuildFaultTransitions() {
  options_.faults.Validate();
  for (const GpuFault& fault : options_.faults.gpu_faults) {
    CLOVER_CHECK_MSG(fault.gpu_index < deployment_.NumGpus(),
                     "gpu fault names gpu " << fault.gpu_index
                                            << " of a "
                                            << deployment_.NumGpus()
                                            << "-gpu cluster");
    fault_transitions_.push_back({fault.start_s,
                                  FaultTransition::Kind::kGpuDown,
                                  fault.gpu_index, 1.0});
    fault_transitions_.push_back({fault.end_s, FaultTransition::Kind::kGpuUp,
                                  fault.gpu_index, 1.0});
  }
  for (const FlashCrowd& crowd : options_.faults.flash_crowds) {
    fault_transitions_.push_back({crowd.start_s,
                                  FaultTransition::Kind::kCrowdOn, 0,
                                  crowd.rate_multiplier});
    fault_transitions_.push_back({crowd.end_s,
                                  FaultTransition::Kind::kCrowdOff, 0,
                                  crowd.rate_multiplier});
  }
  if (fault_transitions_.empty()) return;
  // Deterministic order: time, then recoveries/crowd-offs before new
  // failures at the same instant (a zero-gap recover->fail sequence on one
  // GPU must pass through the recovered state), then GPU index.
  std::sort(fault_transitions_.begin(), fault_transitions_.end(),
            [](const FaultTransition& a, const FaultTransition& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.kind != b.kind)
                return static_cast<int>(a.kind) > static_cast<int>(b.kind);
              return a.gpu_index < b.gpu_index;
            });
  gpu_fault_depth_.assign(static_cast<std::size_t>(deployment_.NumGpus()), 0);
}

void ClusterSim::BuildInstances(const serving::Deployment& deployment,
                                const std::vector<double>& online_at_per_gpu) {
  // Carries over instances of unaffected GPUs (matched by gpu/slice/variant)
  // is handled by the caller via ApplyDeployment; this builds from scratch,
  // preserving `old` entries passed back in instances_ beforehand.
  const models::ModelFamily& family = zoo_->ForApplication(deployment.app);
  instances_.clear();
  for (const serving::InstanceSpec& spec : deployment.Instances()) {
    SimInstance instance;
    instance.id = next_id_++;
    instance.gpu_index = spec.gpu_index;
    const models::ModelVariant& variant = family.Variant(spec.variant_ordinal);
    instance.base_service_ms =
        perf::PerfModel::LatencyMs(family, variant, spec.slice);
    instance.dynamic_watts = power::PowerModel::DynamicWatts(variant,
                                                             spec.slice);
    instance.accuracy = variant.accuracy;
    instance.online_at =
        online_at_per_gpu[static_cast<std::size_t>(spec.gpu_index)];
    instances_.push_back(instance);
  }
  CLOVER_CHECK_MSG(instances_.size() <= kMaxInstances,
                   "instance count " << instances_.size()
                                     << " exceeds simulator capacity");
  id_to_index_.assign(static_cast<std::size_t>(next_id_), -1);
  for (std::size_t i = 0; i < instances_.size(); ++i)
    id_to_index_[static_cast<std::size_t>(instances_[i].id)] =
        static_cast<std::int32_t>(i);
  RebuildDispatchOrder();
  RefreshAvailability();
  // Schedule a wake when delayed instances come online.
  for (const SimInstance& instance : instances_)
    if (instance.online_at > now_)
      events_.Push(Event{instance.online_at, kWakeEventId, 0.0});
}

void ClusterSim::RebuildDispatchOrder() {
  dispatch_order_.resize(instances_.size());
  for (std::size_t i = 0; i < instances_.size(); ++i) dispatch_order_[i] = i;
  std::sort(dispatch_order_.begin(), dispatch_order_.end(),
            [&](std::size_t a, std::size_t b) {
              if (instances_[a].accuracy != instances_[b].accuracy)
                return instances_[a].accuracy > instances_[b].accuracy;
              if (instances_[a].base_service_ms !=
                  instances_[b].base_service_ms)
                return instances_[a].base_service_ms <
                       instances_[b].base_service_ms;
              return instances_[a].id < instances_[b].id;
            });
  index_to_position_.resize(instances_.size());
  for (std::size_t p = 0; p < dispatch_order_.size(); ++p)
    index_to_position_[dispatch_order_[p]] = p;
}

void ClusterSim::RefreshAvailability() {
  avail_[0] = avail_[1] = 0;
  for (std::size_t p = 0; p < dispatch_order_.size(); ++p) {
    const SimInstance& instance = instances_[dispatch_order_[p]];
    if (!instance.busy && !instance.draining && instance.online_at <= now_ &&
        !GpuFaulted(instance.gpu_index))
      SetAvailable(p);
  }
}

int ClusterSim::FirstAvailablePosition() const {
  if (avail_[0] != 0) return std::countr_zero(avail_[0]);
  if (avail_[1] != 0) return 64 + std::countr_zero(avail_[1]);
  return -1;
}

void ClusterSim::SetAvailable(std::size_t position) {
  avail_[position >> 6] |= (1ULL << (position & 63));
}

void ClusterSim::ClearAvailable(std::size_t position) {
  avail_[position >> 6] &= ~(1ULL << (position & 63));
}

double ClusterSim::NextFaultTime() const {
  return next_fault_ < fault_transitions_.size()
             ? fault_transitions_[next_fault_].time
             : std::numeric_limits<double>::infinity();
}

void ClusterSim::AdvanceTo(double t) {
  CLOVER_CHECK_MSG(t >= now_, "AdvanceTo moving backwards");
  // Single-scan dispatch: the three event sources (fault transition,
  // pending arrival, completion/wake heap) are polled once per iteration
  // and the winner is dispatched inline. A window closes before any event
  // at or past its end, and ties break fault <= arrival <= completion.
  //
  // `window_end` and `next_fault` change only at a window close / fault
  // dispatch respectively, so they are hoisted out of the per-event loop
  // and refreshed at exactly those points (a fault transition can also
  // silence or restart the arrival stream, but pending_arrival_ is a
  // member re-read each iteration, so no refresh is needed for it).
  double window_end = window_start_ + options_.window_seconds;
  double next_fault = NextFaultTime();
  for (;;) {
    const double next_heap = events_.Empty()
                                 ? std::numeric_limits<double>::infinity()
                                 : events_.TopTime();
    const double next_event =
        std::min(std::min(pending_arrival_, next_fault), next_heap);
    if (std::min(t, next_event) >= window_end) {
      now_ = window_end;
      CloseWindow();
      window_end = window_start_ + options_.window_seconds;
      continue;
    }
    if (next_event > t) {
      now_ = t;
      return;
    }
    if (next_fault <= pending_arrival_ && next_fault <= next_heap) {
      now_ = next_fault;
      ApplyFaultTransition(fault_transitions_[next_fault_++]);
      next_fault = NextFaultTime();
    } else if (pending_arrival_ <= next_heap) {
      const double arrival = pending_arrival_;
      pending_arrival_ = arrivals_.NextArrivalTime();
      now_ = arrival;
      HandleArrival(arrival);
    } else {
      const Event event = events_.Pop();
      now_ = event.time;
      if (event.instance_id == kWakeEventId) {
        HandleWake(event.time);
      } else {
        HandleCompletion(event);
      }
    }
  }
}

void ClusterSim::CloseWindow() {
  const double window_end = window_start_ + options_.window_seconds;
  WindowRecord record;
  record.start_s = window_start_;
  record.duration_s = options_.window_seconds;
  record.arrivals = window_acc_.arrivals();
  record.completions = window_acc_.completions();
  record.p95_ms = window_acc_.p95_ms();
  record.mean_ms = window_acc_.mean_ms();
  record.max_ms = window_acc_.max_ms();
  record.weighted_accuracy = window_acc_.weighted_accuracy();
  record.energy_j = meter_.DrainWindowJoules(options_.window_seconds);
  record.ci = trace_->At(window_start_);
  record.carbon_g = accountant_.AccountEnergy(record.ci, record.energy_j);
  windows_.push_back(record);
  window_acc_.Reset();
  window_start_ = window_end;
  // Window edges are the arena epoch: every transient handed out since the
  // previous close (fault retry batches, reconfig masks) is dead by now.
  arena_.Reset();
  // Window close is the sim's own boundary (per-event counters would blow
  // the enabled-but-idle overhead budget; a window covers ~1e5 events).
  CLOVER_OBS_COUNT("sim.windows_closed", 1);
  CLOVER_OBS_COUNT("sim.window_arrivals", record.arrivals);
  CLOVER_OBS_COUNT("sim.window_completions", record.completions);
  CLOVER_OBS_OBSERVE("sim.window_p95_ms", record.p95_ms);
}

void ClusterSim::HandleArrival(double t) {
  ++total_arrivals_;
  window_acc_.AddArrival();
  if (probe_active_) probe_acc_.AddArrival();
  const int position = queue_.empty() ? FirstAvailablePosition() : -1;
  if (position >= 0) {
    StartService(static_cast<std::size_t>(position), t);
  } else {
    queue_.push_back(t);
  }
}

void ClusterSim::HandleCompletion(const Event& event) {
  const std::int32_t index =
      id_to_index_[static_cast<std::size_t>(event.instance_id)];
  if (index < 0 && cancelled_completions_ > 0) {
    // Stale completion of a service a GPU fault aborted: the request was
    // already retried at the failure instant; the event is a husk.
    --cancelled_completions_;
    return;
  }
  CLOVER_CHECK_MSG(index >= 0, "completion for retired instance");
  SimInstance& instance = instances_[static_cast<std::size_t>(index)];
  CLOVER_DCHECK(instance.busy);
  instance.busy = false;

  const double latency_ms = SecondsToMs(event.time - event.aux);
  ++total_completions_;
  total_accuracy_sum_ += instance.accuracy;
  overall_latency_.Add(latency_ms);
  window_acc_.AddCompletion(latency_ms, instance.accuracy);
  if (probe_active_) probe_acc_.AddCompletion(latency_ms, instance.accuracy);

  if (instance.draining) return;
  const std::size_t position =
      index_to_position_[static_cast<std::size_t>(index)];
  SetAvailable(position);
  if (!queue_.empty()) {
    // Invariant: a non-empty queue implies no instance was available, so
    // the freed instance is the (unique) greedy choice.
    const double enqueue_time = queue_.front();
    queue_.pop_front();
    StartService(position, enqueue_time);
  }
}

void ClusterSim::HandleWake(double t) {
  (void)t;
  RefreshAvailability();
  TryDispatchQueue();
}

void ClusterSim::TryDispatchQueue() {
  while (!queue_.empty()) {
    const int position = FirstAvailablePosition();
    if (position < 0) return;
    const double enqueue_time = queue_.front();
    queue_.pop_front();
    StartService(static_cast<std::size_t>(position), enqueue_time);
  }
}

void ClusterSim::StartService(std::size_t position, double enqueue_time) {
  const std::size_t index = dispatch_order_[position];
  SimInstance& instance = instances_[index];
  CLOVER_DCHECK(!instance.busy && !instance.draining);
  CLOVER_DCHECK(!GpuFaulted(instance.gpu_index));
  ClearAvailable(position);
  instance.busy = true;

  double service_s;
  if (options_.service_model == ServiceModel::kExponential) {
    // Exponential service: a uniform fleet is an exact M/M/c queue, the
    // configuration the analytic oracles (sim/analytic.h) describe.
    service_s =
        jitter_rng_.NextExponential(1.0 / MsToSeconds(instance.base_service_ms));
  } else {
    // Truncated multiplicative jitter: inputs vary (image content, sequence
    // length) but service time never goes negative or explodes.
    const double sigma = options_.service_jitter_sigma;
    double jitter = 1.0 + sigma * jitter_rng_.NextGaussianFast();
    jitter = std::clamp(jitter, 1.0 - 3.0 * sigma, 1.0 + 3.0 * sigma);
    service_s = MsToSeconds(instance.base_service_ms * jitter);
  }

  const double wait_s = now_ - enqueue_time;
  total_wait_s_ += wait_s;
  ++total_starts_;
  if (wait_s > 0.0) ++total_waited_;
  total_busy_s_ += service_s;

  meter_.AddBusy(service_s, instance.dynamic_watts);
  if (probe_active_) probe_dynamic_j_ += service_s * instance.dynamic_watts;

  instance.service_enqueue_time = enqueue_time;
  instance.service_end_s = now_ + service_s;
  events_.Push(Event{now_ + service_s, instance.id, enqueue_time});
}

double ClusterSim::ApplyDeployment(const serving::Deployment& next,
                                   const mig::RepartitionCostModel& cost) {
  next.Validate(*zoo_);
  CLOVER_CHECK(next.NumGpus() == deployment_.NumGpus());
  CLOVER_CHECK(next.app == deployment_.app);

  const serving::ReconfigPlan plan =
      serving::PlanReconfiguration(deployment_, next, *zoo_, cost);
  if (plan.Empty()) return now_;

  // Drain: stop dispatching to affected GPUs, let in-flight work finish.
  // Draining instances take no new work, so the drain ends at the latest
  // in-flight completion — or earlier, if a fault transition on the way
  // aborts the last of them; hence each advance stops at the next fault.
  for (const serving::GpuReconfigPlan& gpu : plan.gpus) {
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      if (instances_[i].gpu_index != gpu.gpu_index) continue;
      instances_[i].draining = true;
      ClearAvailable(index_to_position_[i]);
    }
  }
  for (;;) {
    double drain_end = -1.0;
    for (const SimInstance& instance : instances_)
      if (instance.draining && instance.busy)
        drain_end = std::max(drain_end, instance.service_end_s);
    if (drain_end < 0.0) break;
    AdvanceTo(std::min(drain_end, NextFaultTime()));
  }

  // The drain may have closed windows, which resets the arena: allocate the
  // per-GPU plan arrays only now.
  const auto num_gpus = static_cast<std::size_t>(deployment_.NumGpus());
  bool* affected = arena_.AllocateArray<bool>(num_gpus);
  double* offline_s = arena_.AllocateArray<double>(num_gpus);
  std::fill(affected, affected + num_gpus, false);
  std::fill(offline_s, offline_s + num_gpus, 0.0);
  for (const serving::GpuReconfigPlan& gpu : plan.gpus) {
    affected[static_cast<std::size_t>(gpu.gpu_index)] = true;
    offline_s[static_cast<std::size_t>(gpu.gpu_index)] = gpu.offline_seconds;
  }

  // Swap: keep unaffected instances (with their state), create new ones for
  // affected GPUs with their per-GPU online time.
  const double start = now_;
  const models::ModelFamily& family = zoo_->ForApplication(next.app);
  std::vector<SimInstance> kept;
  kept.reserve(instances_.size());
  for (const SimInstance& instance : instances_)
    if (!instance.draining) kept.push_back(instance);

  for (const serving::InstanceSpec& spec : next.Instances()) {
    if (!affected[static_cast<std::size_t>(spec.gpu_index)]) continue;
    SimInstance instance;
    instance.id = next_id_++;
    instance.gpu_index = spec.gpu_index;
    const models::ModelVariant& variant = family.Variant(spec.variant_ordinal);
    instance.base_service_ms =
        perf::PerfModel::LatencyMs(family, variant, spec.slice);
    instance.dynamic_watts =
        power::PowerModel::DynamicWatts(variant, spec.slice);
    instance.accuracy = variant.accuracy;
    instance.online_at =
        start + offline_s[static_cast<std::size_t>(spec.gpu_index)];
    kept.push_back(instance);
  }
  instances_ = std::move(kept);
  CLOVER_CHECK_MSG(instances_.size() <= kMaxInstances,
                   "instance count exceeds simulator capacity");

  id_to_index_.assign(static_cast<std::size_t>(next_id_), -1);
  for (std::size_t i = 0; i < instances_.size(); ++i)
    id_to_index_[static_cast<std::size_t>(instances_[i].id)] =
        static_cast<std::int32_t>(i);
  RebuildDispatchOrder();
  RefreshAvailability();

  double ready = start;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    if (instances_[i].online_at > now_) {
      events_.Push(Event{instances_[i].online_at, kWakeEventId, 0.0});
      ready = std::max(ready, instances_[i].online_at);
    }
  }

  deployment_ = next;
  TryDispatchQueue();
  return ready;
}

void ClusterSim::SetArrivalRate(double qps) {
  CLOVER_CHECK_MSG(qps >= 0.0, "negative arrival rate");
  options_.arrival_rate_qps = qps;
  base_rate_qps_ = qps;
  ApplyEffectiveArrivalRate();
}

void ClusterSim::ApplyEffectiveArrivalRate() {
  // Recomputed from the active set every time (rather than multiplied /
  // divided incrementally) so repeated crowds cannot accumulate rounding
  // drift: the rate outside every window is exactly base_rate_qps_.
  double multiplier = 1.0;
  for (double m : active_crowds_) multiplier *= m;
  arrivals_.ResetRate(base_rate_qps_ * multiplier, now_);
  pending_arrival_ = arrivals_.NextArrivalTime();
}

void ClusterSim::ApplyFaultTransition(const FaultTransition& transition) {
  switch (transition.kind) {
    case FaultTransition::Kind::kGpuDown: {
      const auto gpu = static_cast<std::size_t>(transition.gpu_index);
      if (++gpu_fault_depth_[gpu] == 1) FailGpu(transition.gpu_index);
      break;
    }
    case FaultTransition::Kind::kGpuUp: {
      const auto gpu = static_cast<std::size_t>(transition.gpu_index);
      CLOVER_CHECK_MSG(gpu_fault_depth_[gpu] > 0,
                       "recovery without matching failure");
      if (--gpu_fault_depth_[gpu] == 0) RecoverGpu(transition.gpu_index);
      break;
    }
    case FaultTransition::Kind::kCrowdOn:
      active_crowds_.push_back(transition.multiplier);
      ApplyEffectiveArrivalRate();
      break;
    case FaultTransition::Kind::kCrowdOff: {
      // Remove one matching multiplier (schedules may nest crowds).
      for (std::size_t i = 0; i < active_crowds_.size(); ++i) {
        if (active_crowds_[i] == transition.multiplier) {
          active_crowds_.erase(active_crowds_.begin() +
                               static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      ApplyEffectiveArrivalRate();
      break;
    }
  }
}

void ClusterSim::FailGpu(int gpu_index) {
  // Fail-stop: every instance on the GPU leaves the dispatch pool at once.
  // In-flight requests are lost and retried — back to the head of the FIFO
  // (they are the oldest waiters, re-inserted in enqueue order) with their
  // original enqueue times, so the retry is visible as queueing delay. The
  // aborted service's unspent energy (failure instant -> planned
  // completion) is refunded; work performed up to the failure stays
  // billed. The instance's id is retired so the stale completion event
  // still in the heap is swallowed when it fires.
  double* retried = arena_.AllocateArray<double>(instances_.size());
  std::size_t num_retried = 0;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    SimInstance& instance = instances_[i];
    if (instance.gpu_index != gpu_index) continue;
    ClearAvailable(index_to_position_[i]);
    if (!instance.busy) continue;
    instance.busy = false;
    retried[num_retried++] = instance.service_enqueue_time;
    const double unserved_s = instance.service_end_s - now_;
    meter_.RefundBusy(unserved_s, instance.dynamic_watts);
    if (probe_active_) probe_dynamic_j_ -= unserved_s * instance.dynamic_watts;
    total_busy_s_ -= unserved_s;
    ++cancelled_completions_;
    const std::int32_t retired_id = instance.id;
    instance.id = next_id_++;
    id_to_index_.resize(static_cast<std::size_t>(next_id_), -1);
    id_to_index_[static_cast<std::size_t>(retired_id)] = -1;
    id_to_index_[static_cast<std::size_t>(instance.id)] =
        static_cast<std::int32_t>(i);
  }
  // Newest first, so the oldest enqueue time ends up at the queue head and
  // FIFO order is preserved across the retry.
  std::sort(retried, retried + num_retried,
            [](double a, double b) { return a > b; });
  for (std::size_t i = 0; i < num_retried; ++i) queue_.push_front(retried[i]);
  // The survivors pick the backlog up immediately: without this dispatch
  // the queue would starve until the next completion/wake even with idle
  // capacity elsewhere.
  TryDispatchQueue();
}

void ClusterSim::RecoverGpu(int gpu_index) {
  (void)gpu_index;
  // Recovered instances rejoin the pool (unless still draining, mid-load,
  // or on another active fault) and the backlog drains into them.
  RefreshAvailability();
  TryDispatchQueue();
}

int ClusterSim::num_busy_instances() const {
  int busy = 0;
  for (const SimInstance& instance : instances_)
    if (instance.busy) ++busy;
  return busy;
}

int ClusterSim::num_failed_gpus() const {
  int failed = 0;
  for (int depth : gpu_fault_depth_)
    if (depth > 0) ++failed;
  return failed;
}

double ClusterSim::OnlineGpuFraction() const {
  const int total = deployment_.NumGpus();
  return total > 0
             ? static_cast<double>(total - num_failed_gpus()) /
                   static_cast<double>(total)
             : 1.0;
}

Measurement ClusterSim::Measure(double duration_s) {
  CLOVER_CHECK(duration_s > 0.0);
  probe_acc_.Reset();
  probe_dynamic_j_ = 0.0;
  probe_active_ = true;
  AdvanceTo(now_ + duration_s);
  probe_active_ = false;

  Measurement measurement;
  measurement.completions = probe_acc_.completions();
  measurement.duration_s = duration_s;
  measurement.p95_ms = probe_acc_.p95_ms();
  measurement.mean_ms = probe_acc_.mean_ms();
  measurement.weighted_accuracy = probe_acc_.weighted_accuracy();
  const double energy_j =
      power::PowerModel::StaticWattsPerGpu() * num_gpus() * duration_s +
      probe_dynamic_j_;
  measurement.energy_per_request_j =
      measurement.completions
          ? energy_j / static_cast<double>(measurement.completions)
          : std::numeric_limits<double>::infinity();
  measurement.throughput_qps =
      static_cast<double>(measurement.completions) / duration_s;
  return measurement;
}

}  // namespace clover::sim
