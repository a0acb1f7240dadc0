#include "common/quantile.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace clover {

double ExactQuantile::Quantile(double q) {
  if (samples_.empty()) return 0.0;
  CLOVER_CHECK(q >= 0.0 && q <= 1.0);
  // Nearest-rank: the ceil(q*n)-th order statistic (1-based).
  const std::size_t n = samples_.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  auto nth = samples_.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples_.begin(), nth, samples_.end());
  return *nth;
}

// kDecades is a hand-written constant (std::log10 is not constexpr on all
// toolchains); pin it to the actual range.
static_assert(LogHistogramQuantile::kMinValue * 1e10 ==
                  LogHistogramQuantile::kMaxValue,
              "kDecades must equal log10(kMaxValue / kMinValue)");

LogHistogramQuantile::LogHistogramQuantile() { bins_.assign(kNumBins, 0); }

namespace {

// The defining bin map: one std::log10 per call. BinIndex() answers the
// same question through precomputed boundary tables (Add runs once per
// completion, tens of millions of times per wall-second); this reference
// stays the source of truth the tables are built from, and the unit test
// cross-checks the two around every boundary.
std::size_t ReferenceBinIndex(double x) {
  if (!(x > LogHistogramQuantile::kMinValue)) return 0;
  const double position = std::log10(x / LogHistogramQuantile::kMinValue) *
                          LogHistogramQuantile::kBinsPerDecade;
  const auto bin = static_cast<std::size_t>(position) + 1;
  return std::min(bin, LogHistogramQuantile::kNumBins - 1);
}

// Biased exponent range covered by (kMinValue, first double of the top bin):
// 2^-7 <= 0.01 < 2^-6 and 1e8 < 2^27.
constexpr int kMinBiasedExp = 1023 - 7;
constexpr int kMaxBiasedExp = 1023 + 27;
constexpr int kNumExps = kMaxBiasedExp - kMinBiasedExp + 1;
constexpr int kMantissaBuckets = 64;  // top-6 mantissa bits per exponent

struct BinTables {
  // boundary[k]: smallest positive double whose reference bin is >= k.
  // boundary[0] is unused (bin 0 is the "<= kMinValue" clamp).
  std::array<double, LogHistogramQuantile::kNumBins> boundary;
  // start[(e - kMinBiasedExp) * 64 + m6]: reference bin of the smallest
  // double with biased exponent e and top-6 mantissa bits m6. Each bucket
  // spans a small fraction of one log10 bin, so the refine loop below
  // almost never advances (at most once).
  std::array<std::uint16_t, kNumExps * kMantissaBuckets> start;
};

BinTables BuildBinTables() {
  BinTables t{};
  // Bisect each boundary over the positive-double bit space (bit order is
  // value order for positive finite doubles).
  std::uint64_t lo_bits = std::bit_cast<std::uint64_t>(
      LogHistogramQuantile::kMinValue);
  std::uint64_t hi_bits = std::bit_cast<std::uint64_t>(1e9);
  t.boundary[0] = 0.0;
  for (std::size_t k = 1; k < t.boundary.size(); ++k) {
    std::uint64_t lo = lo_bits;   // ReferenceBinIndex < k here
    std::uint64_t hi = hi_bits;   // ReferenceBinIndex >= k here
    CLOVER_CHECK(ReferenceBinIndex(std::bit_cast<double>(hi)) >= k);
    while (lo + 1 < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (ReferenceBinIndex(std::bit_cast<double>(mid)) >= k) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    t.boundary[k] = std::bit_cast<double>(hi);
    lo_bits = lo;  // boundaries are nondecreasing; restart below the last
  }
  for (int e = 0; e < kNumExps; ++e) {
    for (int m = 0; m < kMantissaBuckets; ++m) {
      const std::uint64_t bits =
          (static_cast<std::uint64_t>(e + kMinBiasedExp) << 52) |
          (static_cast<std::uint64_t>(m) << 46);
      t.start[static_cast<std::size_t>(e * kMantissaBuckets + m)] =
          static_cast<std::uint16_t>(
              ReferenceBinIndex(std::bit_cast<double>(bits)));
    }
  }
  return t;
}

// Namespace-scope dynamic initializer: the tables are built before main()
// runs, keeping the one-time bisection out of any timed region and the
// static-local guard branch off the per-Add fast path.
const BinTables kBinTables = BuildBinTables();

}  // namespace

std::size_t LogHistogramQuantile::BinIndex(double x) {
  if (!(x > kMinValue)) return 0;  // also catches NaN
  const BinTables& t = kBinTables;
  if (x >= t.boundary[kNumBins - 1]) return kNumBins - 1;  // also +inf
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const int e = static_cast<int>(bits >> 52);  // sign bit is 0: x > 0
  const int m6 = static_cast<int>((bits >> 46) & 0x3F);
  std::size_t bin =
      t.start[static_cast<std::size_t>((e - kMinBiasedExp) * kMantissaBuckets + m6)];
  while (x >= t.boundary[bin + 1]) ++bin;
  return bin;
}

void LogHistogramQuantile::Add(double x) {
  ++bins_[BinOf(x)];
  ++count_;
}

void LogHistogramQuantile::Add(double x, std::uint64_t count) {
  if (count == 0) return;
  bins_[BinOf(x)] += count;
  count_ += count;
}

double LogHistogramQuantile::BinRepresentative(std::size_t bin) {
  if (bin == 0) return kMinValue;
  if (bin >= kNumBins - 1) return kMaxValue;
  const double lo = kMinValue * std::pow(10.0, static_cast<double>(bin - 1) /
                                                   kBinsPerDecade);
  const double hi =
      kMinValue * std::pow(10.0, static_cast<double>(bin) / kBinsPerDecade);
  return std::sqrt(lo * hi);
}

void LogHistogramQuantile::MergeShifted(const LogHistogramQuantile& other,
                                        double shift) {
  CLOVER_CHECK(&other != this);
  CLOVER_CHECK(shift >= 0.0);
  for (std::size_t bin = 0; bin < other.bins_.size(); ++bin) {
    if (other.bins_[bin] == 0) continue;
    Add(BinValue(bin) + shift, other.bins_[bin]);
  }
}

double LogHistogramQuantile::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  CLOVER_CHECK(q >= 0.0 && q <= 1.0);
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  std::uint64_t cumulative = 0;
  for (std::size_t bin = 0; bin < bins_.size(); ++bin) {
    cumulative += bins_[bin];
    if (cumulative >= rank) return BinValue(bin);
  }
  return kMaxValue;
}

void LogHistogramQuantile::Reset() {
  std::fill(bins_.begin(), bins_.end(), 0);
  count_ = 0;
}

}  // namespace clover
