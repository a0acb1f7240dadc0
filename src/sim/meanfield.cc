#include "sim/meanfield.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/units.h"
#include "perf/perf_model.h"
#include "power/power_model.h"
#include "sim/analytic.h"

namespace clover::sim {
namespace {

// Collapses a Deployment into mean-field server classes, sorted in the
// simulator's dispatch order (accuracy desc, then service time asc).
std::vector<MeanFieldClass> CollapseDeployment(
    const serving::Deployment& deployment, const models::ModelZoo& zoo) {
  const models::ModelFamily& family = zoo.ForApplication(deployment.app);
  std::vector<MeanFieldClass> classes;
  for (const serving::InstanceSpec& spec : deployment.Instances()) {
    const models::ModelVariant& variant = family.Variant(spec.variant_ordinal);
    MeanFieldClass cls;
    cls.service_ms = perf::PerfModel::LatencyMs(family, variant, spec.slice);
    cls.dynamic_watts = power::PowerModel::DynamicWatts(variant, spec.slice);
    cls.accuracy = variant.accuracy;
    cls.count = 1;
    auto same = std::find_if(classes.begin(), classes.end(),
                             [&](const MeanFieldClass& c) {
                               return c.service_ms == cls.service_ms &&
                                      c.dynamic_watts == cls.dynamic_watts &&
                                      c.accuracy == cls.accuracy;
                             });
    if (same != classes.end()) {
      ++same->count;
    } else {
      classes.push_back(cls);
    }
  }
  // The simulator's dispatch order: highest accuracy first, fastest first
  // among equals — the greedy cascade must fill classes in this order.
  std::sort(classes.begin(), classes.end(),
            [](const MeanFieldClass& a, const MeanFieldClass& b) {
              if (a.accuracy != b.accuracy) return a.accuracy > b.accuracy;
              return a.service_ms < b.service_ms;
            });
  return classes;
}

}  // namespace

MeanFieldSim::MeanFieldSim(const serving::Deployment& initial,
                           const models::ModelZoo& zoo,
                           const carbon::CarbonTrace* trace,
                           const SimOptions& options)
    : classes_(CollapseDeployment(initial, zoo)),
      num_gpus_(initial.NumGpus()),
      trace_(trace),
      options_(options),
      accountant_(trace, options.pue) {
  CLOVER_CHECK_MSG(!classes_.empty(), "mean-field sim needs >= 1 class");
  CLOVER_CHECK(num_gpus_ > 0);
  CLOVER_CHECK(options_.window_seconds > 0.0);
  CLOVER_CHECK(options_.arrival_rate_qps >= 0.0);
  CLOVER_CHECK_MSG(options_.faults.Empty(),
                   "the mean-field tier does not model faults");
  CLOVER_CHECK_MSG(!options_.burst.enabled(),
                   "the mean-field tier does not model bursts");
  for (const MeanFieldClass& cls : classes_) {
    CLOVER_CHECK(cls.count > 0 && cls.service_ms > 0.0);
    total_rate_qps_ +=
        static_cast<double>(cls.count) / MsToSeconds(cls.service_ms);
    total_instances_ += cls.count;
  }
  rate_qps_ = options_.arrival_rate_qps;
}

void MeanFieldSim::SetArrivalRate(double qps) {
  CLOVER_CHECK(qps >= 0.0);
  rate_qps_ = qps;
}

void MeanFieldSim::AdvanceTo(double t) {
  CLOVER_CHECK_MSG(t >= now_, "mean-field time cannot run backwards");
  for (;;) {
    const double window_end = window_start_ + options_.window_seconds;
    if (t < window_end - 1e-9) {
      Integrate(t);
      return;
    }
    Integrate(window_end);
    CloseWindow();
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
  for (const MeanFieldClass& cls : classes_) {
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

void MeanFieldSim::CloseWindow() {
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
  record.carbon_g = accountant_.AccountWindow(window_start_, record.energy_j);
  record.ci = trace_->At(window_start_);
  total_carbon_g_ += record.carbon_g;

  // Window latency from the aggregate M/M/c at the window's mean offered
  // rate, using the same recipes as opt/surrogate.h; overloaded windows get
  // a fluid backlog-drain wait instead (the queue is a mass, not a sample).
  const double lambda = window_arrival_mass_ / window_s;
  const double mu_eff =
      total_rate_qps_ / static_cast<double>(total_instances_);
  double mean_service_ms = 0.0;  // load-weighted over the cascade's split
  double p95_service_ms = 0.0;
  if (window_served_ > 0.0) {
    // Re-run the cascade proportions on the window's served mass: classes
    // fill in order, so the load split is the prefix that fits.
    double remaining = window_served_;
    double weighted = 0.0;
    double cumulative = 0.0;
    const double target = 0.95 * window_served_;
    bool tail_set = false;
    for (const MeanFieldClass& cls : classes_) {
      const double capacity = static_cast<double>(cls.count) /
                              MsToSeconds(cls.service_ms) * window_s;
      const double share = std::min(remaining, capacity);
      remaining -= share;
      weighted += share * cls.service_ms;
      cumulative += share;
      if (!tail_set && cumulative >= target) {
        p95_service_ms = cls.service_ms;
        tail_set = true;
      }
      if (remaining <= 0.0) break;
    }
    if (!tail_set) p95_service_ms = classes_.back().service_ms;
    mean_service_ms = weighted / window_served_;
  }

  const bool overloaded =
      backlog_ > 1e-9 * std::max(1.0, window_arrival_mass_) ||
      lambda >= 0.999 * total_rate_qps_;
  if (window_served_ <= 0.0) {
    record.mean_ms = 0.0;
    record.p95_ms = 0.0;
  } else if (overloaded) {
    // Fluid overload: waits are backlog drains at full capacity. The mean
    // wait uses the window-average backlog, the tail the edge backlog.
    const double mean_wait_s =
        window_backlog_integral_ / window_s / total_rate_qps_;
    const double tail_wait_s = backlog_ / total_rate_qps_;
    record.mean_ms = mean_service_ms + SecondsToMs(mean_wait_s);
    record.p95_ms = p95_service_ms + SecondsToMs(tail_wait_s);
  } else {
    analytic::MmcConfig mmc;
    mmc.arrival_rate = std::max(lambda, 1e-12);
    mmc.service_rate = mu_eff;
    mmc.servers = total_instances_;
    if (options_.service_model == ServiceModel::kExponential) {
      const analytic::MmcMetrics metrics = analytic::AnalyzeMmc(mmc);
      record.mean_ms = SecondsToMs(metrics.mean_sojourn_s);
      record.p95_ms = SecondsToMs(analytic::MmcSojournQuantile(mmc, 0.95));
    } else {
      // Near-deterministic service (opt/surrogate.h recipe): service p95
      // with truncated-Gaussian jitter headroom plus the M/M/c wait
      // quantile scaled by the M/G/c two-moment correction.
      const double sigma = options_.service_jitter_sigma;
      const double jitter_headroom = 1.0 + 1.64 * sigma;
      const double wait_scale = 0.5 * (1.0 + sigma * sigma);
      const analytic::MmcMetrics metrics = analytic::AnalyzeMmc(mmc);
      record.mean_ms =
          mean_service_ms + SecondsToMs(metrics.mean_wait_s * wait_scale);
      record.p95_ms =
          p95_service_ms * jitter_headroom +
          SecondsToMs(analytic::MmcWaitQuantile(mmc, 0.95) * wait_scale);
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
    overall_latency_.Add(record.mean_ms, bulk);
    overall_latency_.Add(record.p95_ms, record.completions - bulk);
  }

  windows_.push_back(record);
  ++steps_;
  window_start_ += window_s;
  window_dynamic_j_ = 0.0;
  window_served_ = 0.0;
  window_accuracy_mass_ = 0.0;
  window_arrival_mass_ = 0.0;
  window_backlog_integral_ = 0.0;
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
