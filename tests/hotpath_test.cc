// Unit gates for the simulator hot-path machinery: the SoA event queue,
// batched Poisson arrival draws, the table-driven histogram bin map, and
// the ziggurat gaussian. Each of these replaced a
// slower-but-obviously-correct implementation; the tests here pin the
// replacement to its reference so future tuning cannot silently change
// simulation results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <vector>

#include "common/quantile.h"
#include "common/rng.h"
#include "common/units.h"
#include "carbon/trace.h"
#include "models/zoo.h"
#include "serving/deployment.h"
#include "sim/arrivals.h"
#include "sim/cluster_sim.h"
#include "sim/event_queue.h"

namespace clover {
namespace {

// ---- SoA event queue ------------------------------------------------------

TEST(EventQueueTest, PopsInTimeOrderAgainstReferenceHeap) {
  sim::EventQueue queue;
  std::priority_queue<double, std::vector<double>, std::greater<>> reference;
  RngStream rng(42, "event-queue-test");
  // Interleaved pushes and pops, including duplicate timestamps.
  for (int round = 0; round < 2000; ++round) {
    const int pushes = static_cast<int>(rng.Next() % 4);
    for (int i = 0; i < pushes; ++i) {
      const double t = std::floor(rng.NextDouble() * 1000.0) / 16.0;
      queue.Push({t, static_cast<std::int32_t>(round), 0.0});
      reference.push(t);
    }
    if (!queue.Empty() && (rng.Next() & 1) != 0u) {
      EXPECT_EQ(queue.TopTime(), reference.top());
      EXPECT_EQ(queue.Pop().time, reference.top());
      reference.pop();
    }
  }
  while (!queue.Empty()) {
    EXPECT_EQ(queue.Pop().time, reference.top());
    reference.pop();
  }
  EXPECT_TRUE(reference.empty());
}

// ---- Batched Poisson arrivals ---------------------------------------------

// The batch contract (sim/arrivals.h kGapBatchSize): pre-drawing unit
// gaps and dividing at consumption time is bit-identical to the lazy
// scalar NextExponential(rate) sequence — across batch-refill boundaries
// and across ResetRate, which changes the divisor mid-batch.
TEST(PoissonArrivalsTest, BatchedDrawsMatchScalarReference) {
  const std::uint64_t seed = 7;
  const double rate = 120.0;
  sim::PoissonArrivals arrivals(rate, seed);
  RngStream reference_rng(seed, "poisson-arrivals");
  double t = 0.0;
  // 3.5 batches worth, so two refill boundaries are crossed.
  for (int i = 0; i < 900; ++i) {
    t += reference_rng.NextUnitExponential() / rate;
    ASSERT_DOUBLE_EQ(arrivals.NextArrivalTime(), t) << "arrival " << i;
  }
}

TEST(PoissonArrivalsTest, ResetRateStaysBitIdenticalToScalarReference) {
  const std::uint64_t seed = 11;
  sim::PoissonArrivals arrivals(100.0, seed);
  RngStream reference_rng(seed, "poisson-arrivals");
  double t = 0.0;
  double rate = 100.0;
  for (int i = 0; i < 300; ++i) {
    t += reference_rng.NextUnitExponential() / rate;
    ASSERT_DOUBLE_EQ(arrivals.NextArrivalTime(), t);
  }
  // Mid-batch rate change. The stream prefetches one arrival ahead, so
  // the gap already consumed for the pending arrival is discarded (the
  // reference must skip it too) and the next gap divides by the new rate.
  rate = 250.0;
  arrivals.ResetRate(rate, t);
  reference_rng.NextUnitExponential();  // the discarded prefetched gap
  t += reference_rng.NextUnitExponential() / rate;
  for (int i = 0; i < 300; ++i) {
    ASSERT_DOUBLE_EQ(arrivals.NextArrivalTime(), t);
    t += reference_rng.NextUnitExponential() / rate;
  }
}

TEST(PoissonArrivalsTest, SilencedStreamConsumesNoDraws) {
  const std::uint64_t seed = 13;
  sim::PoissonArrivals arrivals(100.0, seed);
  RngStream reference_rng(seed, "poisson-arrivals");
  double t = reference_rng.NextUnitExponential() / 100.0;
  ASSERT_DOUBLE_EQ(arrivals.NextArrivalTime(), t);
  arrivals.ResetRate(0.0, t);
  EXPECT_TRUE(std::isinf(arrivals.NextArrivalTime()));
  // Re-enabling resumes the gap sequence exactly where the stream left it:
  // the gap prefetched for the (discarded) second arrival is skipped, and
  // silence itself consumed nothing.
  arrivals.ResetRate(50.0, 400.0);
  reference_rng.NextUnitExponential();  // the discarded prefetched gap
  const double expected = 400.0 + reference_rng.NextUnitExponential() / 50.0;
  ASSERT_DOUBLE_EQ(arrivals.NextArrivalTime(), expected);
}

// ---- Table-driven histogram bin map ---------------------------------------

// The defining map (quantile.cc ReferenceBinIndex), restated here as an
// independent reference: one log10 per call.
std::size_t Log10BinIndex(double x) {
  if (!(x > LogHistogramQuantile::kMinValue)) return 0;
  const double position = std::log10(x / LogHistogramQuantile::kMinValue) *
                          LogHistogramQuantile::kBinsPerDecade;
  const auto bin = static_cast<std::size_t>(position) + 1;
  return std::min(bin, LogHistogramQuantile::kNumBins - 1);
}

TEST(LogHistogramBinIndexTest, MatchesLog10ReferenceAroundEveryBoundary) {
  // Every bin boundary value, probed just below, at, and just above in ULP
  // steps — exactly where a table edge would be off by one.
  for (std::size_t bin = 1; bin + 1 < LogHistogramQuantile::kNumBins;
       ++bin) {
    const double boundary =
        LogHistogramQuantile::kMinValue *
        std::pow(10.0, static_cast<double>(bin - 1) /
                           LogHistogramQuantile::kBinsPerDecade);
    for (double x :
         {std::nextafter(boundary, 0.0), boundary,
          std::nextafter(boundary, 1e30)}) {
      ASSERT_EQ(LogHistogramQuantile::BinIndex(x), Log10BinIndex(x))
          << "bin " << bin << " x " << x;
    }
  }
  // Range edges and clamps.
  for (double x : {0.0, 1e-9, LogHistogramQuantile::kMinValue,
                   LogHistogramQuantile::kMaxValue, 1e12}) {
    EXPECT_EQ(LogHistogramQuantile::BinIndex(x), Log10BinIndex(x)) << x;
  }
}

TEST(LogHistogramBinIndexTest, RepresentativeRoundTrips) {
  for (std::size_t bin = 0; bin < LogHistogramQuantile::kNumBins; ++bin) {
    EXPECT_EQ(LogHistogramQuantile::BinIndex(
                  LogHistogramQuantile::BinRepresentative(bin)),
              bin)
        << "bin " << bin;
  }
}

TEST(LogHistogramBinIndexTest, DenseSweepAgreesWithReference) {
  // Geometric sweep over the whole covered range at ~40 points per bin.
  double x = LogHistogramQuantile::kMinValue / 4.0;
  const double step = std::pow(
      10.0, 1.0 / (LogHistogramQuantile::kBinsPerDecade * 40.0));
  while (x < LogHistogramQuantile::kMaxValue * 4.0) {
    ASSERT_EQ(LogHistogramQuantile::BinIndex(x), Log10BinIndex(x)) << x;
    x *= step;
  }
}

// ---- Ziggurat gaussian ----------------------------------------------------

TEST(NextGaussianFastTest, MomentsMatchTheStandardNormal) {
  RngStream rng(123, "ziggurat-moments");
  const int n = 2'000'000;
  double sum = 0.0, sum2 = 0.0, sum3 = 0.0, sum4 = 0.0;
  double min_seen = 0.0, max_seen = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussianFast();
    sum += g;
    sum2 += g * g;
    sum3 += g * g * g;
    sum4 += g * g * g * g;
    min_seen = std::min(min_seen, g);
    max_seen = std::max(max_seen, g);
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.005);
  EXPECT_NEAR(var, 1.0, 0.01);
  EXPECT_NEAR(sum3 / n, 0.0, 0.02);       // skewness ~ 0
  EXPECT_NEAR(sum4 / n, 3.0, 0.05);       // kurtosis ~ 3
  // The tail path past the ziggurat base layer (|x| > 3.4426) must be
  // exercised: P(|X| > 3.44) ~ 5.8e-4, so ~1150 expected draws out there.
  EXPECT_LT(min_seen, -3.5);
  EXPECT_GT(max_seen, 3.5);
  // And bounded: values beyond ~6 sigma are vanishingly unlikely at n=2M.
  EXPECT_GT(min_seen, -7.0);
  EXPECT_LT(max_seen, 7.0);
}

TEST(NextGaussianFastTest, TailProbabilitiesMatch) {
  RngStream rng(77, "ziggurat-tails");
  const int n = 1'000'000;
  int beyond1 = 0, beyond2 = 0, beyond3 = 0;
  for (int i = 0; i < n; ++i) {
    const double g = std::abs(rng.NextGaussianFast());
    if (g > 1.0) ++beyond1;
    if (g > 2.0) ++beyond2;
    if (g > 3.0) ++beyond3;
  }
  // Two-sided tail masses: 31.73%, 4.55%, 0.27%.
  EXPECT_NEAR(static_cast<double>(beyond1) / n, 0.3173, 0.004);
  EXPECT_NEAR(static_cast<double>(beyond2) / n, 0.0455, 0.002);
  EXPECT_NEAR(static_cast<double>(beyond3) / n, 0.0027, 0.0005);
}

// ---- Whole-simulator determinism ------------------------------------------

// Twin runs of one configuration must agree bit for bit: the hot-path
// machinery above (SoA queue, batched draws, bin tables, ziggurat)
// is allowed to be fast, not to be approximately deterministic.
TEST(ClusterSimHotPathTest, TwinRunsAreBitIdentical) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const carbon::CarbonTrace trace("hotpath-flat", 3600.0,
                                  std::vector<double>(8, 250.0));
  sim::SimOptions options;
  options.arrival_rate_qps = 140.0;
  options.window_seconds = 300.0;
  options.seed = 9;
  const serving::Deployment base =
      serving::MakeBase(models::Application::kClassification, 4);

  sim::ClusterSim a(base, zoo, &trace, options);
  sim::ClusterSim b(base, zoo, &trace, options);
  a.AdvanceTo(3600.0);
  b.AdvanceTo(3600.0);

  EXPECT_EQ(a.total_arrivals(), b.total_arrivals());
  EXPECT_EQ(a.total_completions(), b.total_completions());
  EXPECT_EQ(a.total_energy_j(), b.total_energy_j());
  EXPECT_EQ(a.total_carbon_g(), b.total_carbon_g());
  EXPECT_EQ(a.OverallP95Ms(), b.OverallP95Ms());
  EXPECT_EQ(a.OverallQuantileMs(0.99), b.OverallQuantileMs(0.99));
  ASSERT_EQ(a.windows().size(), b.windows().size());
  for (std::size_t i = 0; i < a.windows().size(); ++i) {
    EXPECT_EQ(a.windows()[i].completions, b.windows()[i].completions);
    EXPECT_EQ(a.windows()[i].p95_ms, b.windows()[i].p95_ms);
    EXPECT_EQ(a.windows()[i].energy_j, b.windows()[i].energy_j);
  }
}

}  // namespace
}  // namespace clover
