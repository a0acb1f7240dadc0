// Unit tests for the closed-form queueing oracles (sim/analytic.h): known
// special cases, internal identities (Little's law, pmf conservation), and
// the M/M/c/K <-> M/M/c / Erlang-B bridges. The differential comparison
// against the simulator lives in sim_differential_test.cc.
#include "sim/analytic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/check.h"

namespace clover::sim::analytic {
namespace {

TEST(ErlangBTest, SingleServerClosedForm) {
  // B(1, a) = a / (1 + a).
  for (double a : {0.1, 0.5, 1.0, 3.0, 10.0})
    EXPECT_NEAR(ErlangB(1, a), a / (1.0 + a), 1e-12);
}

TEST(ErlangBTest, MatchesDirectSumForSmallSystems) {
  // B(c, a) = (a^c/c!) / sum_{k<=c} a^k/k!, computed directly.
  for (int c : {2, 3, 5, 8}) {
    for (double a : {0.5, 2.0, 4.0, 7.5}) {
      double term = 1.0, sum = 1.0;
      for (int k = 1; k <= c; ++k) {
        term *= a / k;
        sum += term;
      }
      EXPECT_NEAR(ErlangB(c, a), term / sum, 1e-12)
          << "c=" << c << " a=" << a;
    }
  }
}

TEST(ErlangBTest, ZeroLoadNeverBlocks) {
  EXPECT_DOUBLE_EQ(ErlangB(4, 0.0), 0.0);
}

TEST(ErlangCTest, SingleServerIsRho) {
  // M/M/1: P(wait) = rho.
  for (double rho : {0.1, 0.5, 0.9})
    EXPECT_NEAR(ErlangC(1, rho), rho, 1e-12);
}

TEST(ErlangCTest, AtLeastErlangBAndAtMostOne) {
  for (int c : {1, 2, 4, 16, 64}) {
    for (double rho : {0.2, 0.6, 0.95}) {
      const double a = rho * c;
      const double b = ErlangB(c, a);
      const double p_wait = ErlangC(c, a);
      EXPECT_GE(p_wait, b);
      EXPECT_LE(p_wait, 1.0);
    }
  }
}

TEST(ErlangCTest, RejectsUnstableQueue) {
  EXPECT_THROW(ErlangC(2, 2.0), CheckError);
  EXPECT_THROW(ErlangC(2, 2.5), CheckError);
}

TEST(AnalyzeMmcTest, MatchesMm1ClosedForms) {
  // M/M/1 at lambda = 8, mu = 10: Wq = rho/(mu - lambda), L = rho/(1-rho).
  MmcConfig config;
  config.arrival_rate = 8.0;
  config.service_rate = 10.0;
  config.servers = 1;
  const MmcMetrics metrics = AnalyzeMmc(config);
  EXPECT_NEAR(metrics.utilization, 0.8, 1e-12);
  EXPECT_NEAR(metrics.wait_probability, 0.8, 1e-12);
  EXPECT_NEAR(metrics.mean_wait_s, 0.8 / 2.0, 1e-12);
  EXPECT_NEAR(metrics.mean_sojourn_s, 1.0 / 2.0, 1e-12);  // 1/(mu - lambda)
  EXPECT_NEAR(metrics.mean_in_system, 4.0, 1e-12);        // rho/(1-rho)
}

TEST(AnalyzeMmcTest, LittlesLawHoldsAcrossTheGrid) {
  for (int c : {1, 2, 4, 8, 32}) {
    for (double rho : {0.1, 0.5, 0.85, 0.97}) {
      MmcConfig config;
      config.servers = c;
      config.service_rate = 25.0;
      config.arrival_rate = rho * c * config.service_rate;
      const MmcMetrics metrics = AnalyzeMmc(config);
      EXPECT_NEAR(metrics.mean_queue_length,
                  config.arrival_rate * metrics.mean_wait_s, 1e-9);
      EXPECT_NEAR(metrics.mean_in_system,
                  config.arrival_rate * metrics.mean_sojourn_s, 1e-9);
      // L = Lq + a (servers hold `a` customers on average).
      EXPECT_NEAR(metrics.mean_in_system,
                  metrics.mean_queue_length + metrics.offered_load, 1e-9);
    }
  }
}

TEST(QueueLengthPmfTest, MatchesMetricsAndConserves) {
  MmcConfig config;
  config.servers = 3;
  config.service_rate = 10.0;
  config.arrival_rate = 24.0;  // rho = 0.8
  const MmcMetrics metrics = AnalyzeMmc(config);
  // 400 terms of a rho=0.8 geometric tail leave < 1e-30 unaccounted.
  const std::vector<double> pmf = MmcQueueLengthPmf(config, 400);
  const double total = std::accumulate(pmf.begin(), pmf.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);

  double l = 0.0, lq = 0.0, p_wait = 0.0;
  for (std::size_t n = 0; n < pmf.size(); ++n) {
    l += static_cast<double>(n) * pmf[n];
    if (n >= static_cast<std::size_t>(config.servers)) {
      lq += static_cast<double>(n - 3) * pmf[n];
      p_wait += pmf[n];  // PASTA: arrivals wait iff all servers busy
    }
  }
  EXPECT_NEAR(l, metrics.mean_in_system, 1e-6);
  EXPECT_NEAR(lq, metrics.mean_queue_length, 1e-6);
  EXPECT_NEAR(p_wait, metrics.wait_probability, 1e-9);
}

TEST(WaitQuantileTest, InvertsTheWaitDistribution) {
  MmcConfig config;
  config.servers = 4;
  config.service_rate = 20.0;
  config.arrival_rate = 60.0;  // rho = 0.75
  const MmcMetrics metrics = AnalyzeMmc(config);
  // Below the no-wait mass the quantile is 0.
  EXPECT_DOUBLE_EQ(MmcWaitQuantile(config, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(
      MmcWaitQuantile(config, 1.0 - metrics.wait_probability - 1e-6), 0.0);
  // Above it, P(Wq <= t_q) = q by the closed form.
  const double drain =
      config.servers * config.service_rate - config.arrival_rate;
  for (double q : {0.9, 0.95, 0.99}) {
    const double t = MmcWaitQuantile(config, q);
    const double cdf =
        1.0 - metrics.wait_probability * std::exp(-drain * t);
    EXPECT_NEAR(cdf, q, 1e-12);
  }
}

// The overloads that take the caller's AnalyzeMmc metrics give the same
// bits as the ones that evaluate them.
TEST(WaitQuantileTest, MetricsOverloadsMatch) {
  for (const int servers : {1, 4, 10}) {
    for (const double rho : {0.2, 0.75, 0.97}) {
      MmcConfig config;
      config.servers = servers;
      config.service_rate = 12.5;
      config.arrival_rate = rho * servers * config.service_rate;
      const MmcMetrics metrics = AnalyzeMmc(config);
      for (const double q : {0.5, 0.95, 0.999}) {
        EXPECT_EQ(MmcWaitQuantile(config, metrics, q),
                  MmcWaitQuantile(config, q));
        EXPECT_EQ(MmcSojournQuantile(config, metrics, q),
                  MmcSojournQuantile(config, q));
      }
    }
  }
}

TEST(SojournQuantileTest, ExactForMm1) {
  // M/M/1 sojourn time is Exp(mu - lambda): the quantile has a closed form
  // the bisection must reproduce to solver precision.
  MmcConfig config;
  config.servers = 1;
  config.service_rate = 10.0;
  config.arrival_rate = 7.0;
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const double exact = -std::log(1.0 - q) /
                         (config.service_rate - config.arrival_rate);
    EXPECT_NEAR(MmcSojournQuantile(config, q), exact, 1e-9 * exact)
        << "q=" << q;
  }
}

TEST(SojournQuantileTest, MonotoneAndBoundedByService) {
  MmcConfig config;
  config.servers = 4;
  config.service_rate = 5.0;
  config.arrival_rate = 14.0;
  double previous = 0.0;
  for (double q : {0.1, 0.5, 0.9, 0.95, 0.99}) {
    const double t = MmcSojournQuantile(config, q);
    EXPECT_GT(t, previous);
    // Sojourn >= service: the quantile dominates the pure-service quantile.
    EXPECT_GE(t, -std::log(1.0 - q) / config.service_rate * 0.999);
    previous = t;
  }
}

TEST(MmcKTest, CapacityEqualServersIsErlangB) {
  // M/M/c/c (no queue): blocking = Erlang B, zero wait.
  MmcConfig config;
  config.servers = 5;
  config.service_rate = 10.0;
  config.arrival_rate = 35.0;  // a = 3.5
  const MmcKMetrics metrics = AnalyzeMmcK(config, 5);
  EXPECT_NEAR(metrics.blocking_probability, ErlangB(5, 3.5), 1e-12);
  EXPECT_NEAR(metrics.mean_wait_s, 0.0, 1e-12);
  EXPECT_NEAR(metrics.mean_sojourn_s, 1.0 / config.service_rate, 1e-12);
}

TEST(MmcKTest, ConvergesToMmcAsCapacityGrows) {
  MmcConfig config;
  config.servers = 3;
  config.service_rate = 10.0;
  config.arrival_rate = 21.0;  // rho = 0.7
  const MmcMetrics unbounded = AnalyzeMmc(config);
  const MmcKMetrics bounded = AnalyzeMmcK(config, 400);
  EXPECT_NEAR(bounded.blocking_probability, 0.0, 1e-9);
  EXPECT_NEAR(bounded.mean_wait_s, unbounded.mean_wait_s, 1e-6);
  EXPECT_NEAR(bounded.mean_in_system, unbounded.mean_in_system, 1e-6);
  EXPECT_NEAR(bounded.utilization, unbounded.utilization, 1e-9);
}

TEST(MmcKTest, StableForOverload) {
  // A bounded system is defined past rho = 1: it just sheds load.
  MmcConfig config;
  config.servers = 2;
  config.service_rate = 10.0;
  config.arrival_rate = 100.0;  // rho = 5
  const MmcKMetrics metrics = AnalyzeMmcK(config, 10);
  EXPECT_GT(metrics.blocking_probability, 0.5);
  EXPECT_LT(metrics.utilization, 1.0);
  EXPECT_NEAR(metrics.carried_rate,
              config.arrival_rate * (1.0 - metrics.blocking_probability),
              1e-9);
  const std::vector<double> pmf = MmcKQueueLengthPmf(config, 10);
  EXPECT_NEAR(std::accumulate(pmf.begin(), pmf.end(), 0.0), 1.0, 1e-12);
}

TEST(MmcKTest, RejectsCapacityBelowServers) {
  MmcConfig config;
  config.servers = 4;
  config.service_rate = 10.0;
  config.arrival_rate = 10.0;
  EXPECT_THROW(AnalyzeMmcK(config, 3), CheckError);
}

}  // namespace
}  // namespace clover::sim::analytic
