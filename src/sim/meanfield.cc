#include "sim/meanfield.h"

#include <algorithm>

#include "common/check.h"
#include "common/units.h"
#include "power/power_model.h"

namespace clover::sim {
namespace {

ServerClasses CollapseDeployment(const serving::Deployment& deployment,
                                 const models::ModelZoo& zoo) {
  std::vector<InstanceGroup> instances;
  for (const serving::InstanceSpec& spec : deployment.Instances())
    instances.push_back({spec.variant_ordinal, spec.slice, 1});
  return CollapseClasses(zoo.ForApplication(deployment.app), instances);
}

}  // namespace

MeanFieldSim::MeanFieldSim(const serving::Deployment& initial,
                           const models::ModelZoo& zoo,
                           const carbon::CarbonTrace* trace,
                           const SimOptions& options)
    : fleet_(CollapseDeployment(initial, zoo)),
      window_split_(fleet_.classes.size()),
      num_gpus_(initial.NumGpus()),
      trace_(trace),
      options_(options),
      accountant_(perf::kPue) {
  CLOVER_CHECK(trace_ != nullptr);
  CLOVER_CHECK(num_gpus_ > 0);
  CLOVER_CHECK(options_.window_seconds > 0.0);
  CLOVER_CHECK(options_.arrival_rate_qps >= 0.0);
  CLOVER_CHECK_MSG(options_.faults.Empty(),
                   "the mean-field tier does not model faults");
  CLOVER_CHECK_MSG(!options_.burst.enabled(),
                   "the mean-field tier does not model bursts");
  rate_qps_ = options_.arrival_rate_qps;
  window_ci_ = trace_->At(window_start_);
}

void MeanFieldSim::SetArrivalRate(double qps) {
  CLOVER_CHECK(qps >= 0.0);
  rate_qps_ = qps;
}

void MeanFieldSim::AdvanceTo(double t) {
  if (own_tails_ == nullptr) own_tails_ = std::make_unique<MmcTailCache>();
  AdvanceTo(t, own_tails_.get());
}

void MeanFieldSim::AdvanceTo(double t, MmcTailCache* tails) {
  CLOVER_CHECK_MSG(t >= now_, "mean-field time cannot run backwards");
  for (;;) {
    const double window_end = window_start_ + options_.window_seconds;
    if (t < window_end - 1e-9) {
      Integrate(t);
      return;
    }
    Integrate(window_end);
    CloseWindow(tails);
  }
}

void MeanFieldSim::Integrate(double end) {
  const double dt = end - now_;
  if (dt <= 0.0) {
    now_ = end;
    return;
  }
  const double arriving = rate_qps_ * dt;
  arrival_mass_ += arriving;
  window_arrival_mass_ += arriving;

  // Accuracy-greedy saturation cascade over the class capacities for this
  // interval: high-accuracy classes absorb offered mass first, exactly as
  // the simulator's dispatch order fills instances.
  double remaining = backlog_ + arriving;
  const double backlog_before = backlog_;
  for (const ServerClass& cls : fleet_.classes) {
    const double capacity =
        static_cast<double>(cls.count) / MsToSeconds(cls.service_ms) * dt;
    const double serve = std::min(remaining, capacity);
    remaining -= serve;
    if (serve > 0.0) {
      const double busy_s = serve * MsToSeconds(cls.service_ms);
      total_busy_s_ += busy_s;
      window_dynamic_j_ += busy_s * cls.dynamic_watts;
      window_accuracy_mass_ += serve * cls.accuracy;
      accuracy_mass_ += serve * cls.accuracy;
      window_served_ += serve;
      served_mass_ += serve;
    }
  }
  backlog_ = remaining;
  // Trapezoidal backlog integral — the mean queue mass feeds the overload
  // latency estimate at window close.
  window_backlog_integral_ += 0.5 * (backlog_before + backlog_) * dt;
  now_ = end;
}

void MeanFieldSim::CloseWindow(MmcTailCache* tails) {
  const double window_s = options_.window_seconds;
  WindowRecord record;
  record.start_s = window_start_;
  record.duration_s = window_s;

  // Integerized mass deltas: floors of the cumulative masses at the edges,
  // so window counters sum exactly to the run totals.
  const auto cum_arrivals = static_cast<std::uint64_t>(arrival_mass_);
  const auto cum_completions = static_cast<std::uint64_t>(served_mass_);
  record.arrivals = cum_arrivals - window_edge_arrivals_;
  record.completions = cum_completions - window_edge_completions_;
  window_edge_arrivals_ = cum_arrivals;
  window_edge_completions_ = cum_completions;

  record.weighted_accuracy =
      window_served_ > 0.0 ? window_accuracy_mass_ / window_served_ : 0.0;

  // Energy: static floor for every GPU plus the dynamic busy integral —
  // the same decomposition EnergyMeter::DrainWindowJoules applies.
  record.energy_j =
      power::PowerModel::StaticWattsPerGpu() * static_cast<double>(num_gpus_) *
          window_s +
      window_dynamic_j_;
  total_energy_j_ += record.energy_j;
  record.ci = window_ci_;
  record.carbon_g = accountant_.AccountEnergy(record.ci, record.energy_j);
  total_carbon_g_ += record.carbon_g;

  // Window latency from the queueing recipe (sim/queueing.h) at the
  // window's mean offered rate; overloaded windows get a fluid backlog-
  // drain wait instead (the queue is a mass, not a sample).
  const double lambda = window_arrival_mass_ / window_s;
  const bool overloaded =
      backlog_ > 1e-9 * std::max(1.0, window_arrival_mass_) ||
      lambda >= 0.999 * fleet_.capacity_qps;
  if (window_served_ <= 0.0) {
    record.mean_ms = 0.0;
    record.p95_ms = 0.0;
  } else {
    // The cascade split of the window's served mass: classes fill in
    // order, so the load split is the prefix that fits.
    const LoadSplit split =
        SplitLoad(fleet_, window_served_, window_s, window_split_.data());
    if (overloaded) {
      // Fluid overload: waits are backlog drains at full capacity. The
      // mean wait uses the window-average backlog, the tail the edge
      // backlog.
      const double mean_wait_s =
          window_backlog_integral_ / window_s / fleet_.capacity_qps;
      const double tail_wait_s = backlog_ / fleet_.capacity_qps;
      record.mean_ms = split.mean_service_ms + SecondsToMs(mean_wait_s);
      record.p95_ms = split.p95_service_ms + SecondsToMs(tail_wait_s);
    } else {
      const MmcTail& tail = tails->Get(fleet_.Mmc(std::max(lambda, 1e-12)),
                                       options_.service_model);
      const Latency latency =
          ComposeLatency(split, tail, options_.service_model,
                         options_.service_jitter_sigma);
      record.mean_ms = latency.mean_ms;
      record.p95_ms = latency.p95_ms;
    }
  }
  // The fluid tier has no per-request samples, so the window max is the
  // p95 estimate (documented; consumers needing a true max use rung 3).
  record.max_ms = record.p95_ms;

  // Synthetic run-level distribution: 95% of the window's completions at
  // the mean, the rest at the p95.
  if (record.completions > 0 && record.p95_ms > 0.0) {
    const std::uint64_t bulk = static_cast<std::uint64_t>(
        0.95 * static_cast<double>(record.completions));
    AddToRun(&mean_run_, record.mean_ms, bulk);
    AddToRun(&tail_run_, record.p95_ms, record.completions - bulk);
  }

  windows_.push_back(record);
  ++steps_;
  window_start_ += window_s;
  window_ci_ = trace_->At(window_start_);
  window_dynamic_j_ = 0.0;
  window_served_ = 0.0;
  window_accuracy_mass_ = 0.0;
  window_arrival_mass_ = 0.0;
  window_backlog_integral_ = 0.0;
}

void MeanFieldSim::AddToRun(PendingRun* run, double value,
                            std::uint64_t count) {
  const std::size_t bin = LogHistogramQuantile::BinIndex(value);
  if (run->count > 0 && bin == run->bin) {
    run->count += count;
    return;
  }
  FlushRun(run);
  *run = {value, bin, count};
}

void MeanFieldSim::FlushRun(PendingRun* run) const {
  if (run->count == 0) return;
  Histogram().Add(run->value, run->count);
  run->count = 0;
}

LogHistogramQuantile& MeanFieldSim::Histogram() const {
  if (overall_latency_ == nullptr)
    overall_latency_ = std::make_unique<LogHistogramQuantile>();
  return *overall_latency_;
}

const LogHistogramQuantile& MeanFieldSim::latency_histogram() const {
  FlushRun(&mean_run_);
  FlushRun(&tail_run_);
  return Histogram();
}

std::uint64_t MeanFieldSim::total_arrivals() const {
  return static_cast<std::uint64_t>(arrival_mass_);
}

std::uint64_t MeanFieldSim::total_completions() const {
  return static_cast<std::uint64_t>(served_mass_);
}

double MeanFieldSim::OverallWeightedAccuracy() const {
  return served_mass_ > 0.0 ? accuracy_mass_ / served_mass_ : 0.0;
}

}  // namespace clover::sim
