#include "sim/analytic.h"

#include <cmath>

#include "common/check.h"

namespace clover::sim::analytic {
namespace {

void ValidateConfig(const MmcConfig& config) {
  CLOVER_CHECK_MSG(config.servers >= 1, "M/M/c needs >= 1 server");
  CLOVER_CHECK_MSG(config.arrival_rate > 0.0, "arrival rate must be > 0");
  CLOVER_CHECK_MSG(config.service_rate > 0.0, "service rate must be > 0");
}

double OfferedLoad(const MmcConfig& config) {
  return config.arrival_rate / config.service_rate;
}

}  // namespace

double ErlangB(int servers, double offered_load) {
  CLOVER_CHECK_MSG(servers >= 1, "Erlang B needs >= 1 server");
  CLOVER_CHECK_MSG(offered_load >= 0.0, "offered load must be >= 0");
  // B(0, a) = 1; B(k, a) = a B(k-1, a) / (k + a B(k-1, a)). Every iterate
  // lies in (0, 1], so the recurrence never overflows — unlike the a^c/c!
  // textbook form.
  double b = 1.0;
  for (int k = 1; k <= servers; ++k)
    b = offered_load * b / (static_cast<double>(k) + offered_load * b);
  return b;
}

double ErlangC(int servers, double offered_load) {
  CLOVER_CHECK_MSG(offered_load < static_cast<double>(servers),
                   "Erlang C requires a stable queue (a < c), got a = "
                       << offered_load << ", c = " << servers);
  const double b = ErlangB(servers, offered_load);
  const double rho = offered_load / static_cast<double>(servers);
  return b / (1.0 - rho * (1.0 - b));
}

MmcMetrics AnalyzeMmc(const MmcConfig& config) {
  ValidateConfig(config);
  const double a = OfferedLoad(config);
  const double c = static_cast<double>(config.servers);
  CLOVER_CHECK_MSG(a < c, "M/M/c requires rho < 1, got rho = " << a / c);

  MmcMetrics metrics;
  metrics.offered_load = a;
  metrics.utilization = a / c;
  metrics.wait_probability = ErlangC(config.servers, a);
  // Wq = C / (c mu - lambda); the conditional wait given queueing is
  // exponential with rate (c mu - lambda).
  const double drain_rate = c * config.service_rate - config.arrival_rate;
  metrics.mean_wait_s = metrics.wait_probability / drain_rate;
  metrics.mean_sojourn_s = metrics.mean_wait_s + 1.0 / config.service_rate;
  metrics.mean_queue_length = config.arrival_rate * metrics.mean_wait_s;
  metrics.mean_in_system = config.arrival_rate * metrics.mean_sojourn_s;
  return metrics;
}

std::vector<double> MmcQueueLengthPmf(const MmcConfig& config, int max_n) {
  ValidateConfig(config);
  CLOVER_CHECK(max_n >= 0);
  const double a = OfferedLoad(config);
  const double c = static_cast<double>(config.servers);
  CLOVER_CHECK_MSG(a < c, "M/M/c pmf requires rho < 1");
  const double rho = a / c;

  // Unnormalized terms t_n = a^n / n! for n <= c, then geometric with ratio
  // rho; built iteratively so nothing overflows for the sizes used here.
  // The normalizer includes the closed-form geometric tail so the pmf is
  // exact regardless of max_n.
  std::vector<double> terms(static_cast<std::size_t>(max_n) + 1, 0.0);
  double t = 1.0;  // t_0
  double sum_below_c = 0.0;
  double t_c = 1.0;
  for (int n = 0; n <= std::max(max_n, config.servers); ++n) {
    if (n <= max_n) terms[static_cast<std::size_t>(n)] = t;
    if (n < config.servers) {
      sum_below_c += t;
      t *= a / static_cast<double>(n + 1);
    } else {
      if (n == config.servers) t_c = t;
      t *= rho;
    }
  }
  // Total mass = sum_{n<c} t_n + t_c / (1 - rho).
  const double total = sum_below_c + t_c / (1.0 - rho);
  for (double& p : terms) p /= total;
  return terms;
}

double MmcWaitQuantile(const MmcConfig& config, double q) {
  return MmcWaitQuantile(config, AnalyzeMmc(config), q);
}

double MmcWaitQuantile(const MmcConfig& config, const MmcMetrics& metrics,
                       double q) {
  CLOVER_CHECK(q >= 0.0 && q < 1.0);
  if (q <= 1.0 - metrics.wait_probability) return 0.0;
  const double drain_rate = static_cast<double>(config.servers) *
                                config.service_rate -
                            config.arrival_rate;
  // P(Wq > t) = C e^{-drain t}; solve C e^{-drain t} = 1 - q.
  return std::log(metrics.wait_probability / (1.0 - q)) / drain_rate;
}

namespace {

// P(Wq + S > t) for a stable M/M/c FIFO queue: Wq is 0 with probability
// 1 - C and Exp(theta) with probability C (theta = c mu - lambda); S is
// Exp(mu) independent. Closed form for the convolution, with the repeated-
// rate limit handled explicitly.
double SojournCcdf(double t, double mu, double theta, double wait_prob) {
  if (t <= 0.0) return 1.0;
  const double no_wait = (1.0 - wait_prob) * std::exp(-mu * t);
  double waited;
  if (std::abs(theta - mu) > 1e-9 * mu) {
    waited = wait_prob *
             (theta * std::exp(-mu * t) - mu * std::exp(-theta * t)) /
             (theta - mu);
  } else {
    waited = wait_prob * (1.0 + mu * t) * std::exp(-mu * t);
  }
  return no_wait + waited;
}

}  // namespace

double MmcSojournQuantile(const MmcConfig& config, double q) {
  return MmcSojournQuantile(config, AnalyzeMmc(config), q);
}

double MmcSojournQuantile(const MmcConfig& config, const MmcMetrics& metrics,
                          double q) {
  CLOVER_CHECK(q >= 0.0 && q < 1.0);
  const double mu = config.service_rate;
  const double theta =
      static_cast<double>(config.servers) * mu - config.arrival_rate;
  const double target = 1.0 - q;  // solve ccdf(t) = 1 - q

  // Bracket: the ccdf is continuous and strictly decreasing from 1 to 0.
  double hi = 1.0 / mu;
  while (SojournCcdf(hi, mu, theta, metrics.wait_probability) > target)
    hi *= 2.0;
  double lo = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (SojournCcdf(mid, mu, theta, metrics.wait_probability) > target) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo <= 1e-12 * hi) break;
  }
  return 0.5 * (lo + hi);
}

std::vector<double> MmcKQueueLengthPmf(const MmcConfig& config, int capacity) {
  ValidateConfig(config);
  CLOVER_CHECK_MSG(capacity >= config.servers,
                   "M/M/c/K needs capacity >= servers");
  const double a = OfferedLoad(config);
  const double rho = a / static_cast<double>(config.servers);

  std::vector<double> pmf(static_cast<std::size_t>(capacity) + 1, 0.0);
  double t = 1.0;
  double total = 0.0;
  for (int n = 0; n <= capacity; ++n) {
    pmf[static_cast<std::size_t>(n)] = t;
    total += t;
    t *= (n < config.servers) ? a / static_cast<double>(n + 1) : rho;
  }
  for (double& p : pmf) p /= total;
  return pmf;
}

MmcKMetrics AnalyzeMmcK(const MmcConfig& config, int capacity) {
  const std::vector<double> pmf = MmcKQueueLengthPmf(config, capacity);

  MmcKMetrics metrics;
  metrics.blocking_probability = pmf.back();
  metrics.carried_rate =
      config.arrival_rate * (1.0 - metrics.blocking_probability);
  metrics.utilization = metrics.carried_rate /
                        (static_cast<double>(config.servers) *
                         config.service_rate);
  for (int n = 0; n <= capacity; ++n) {
    const double p = pmf[static_cast<std::size_t>(n)];
    metrics.mean_in_system += static_cast<double>(n) * p;
    if (n > config.servers)
      metrics.mean_queue_length +=
          static_cast<double>(n - config.servers) * p;
  }
  // Little's law on the admitted stream.
  if (metrics.carried_rate > 0.0) {
    metrics.mean_wait_s = metrics.mean_queue_length / metrics.carried_rate;
    metrics.mean_sojourn_s = metrics.mean_in_system / metrics.carried_rate;
  }
  return metrics;
}

}  // namespace clover::sim::analytic
