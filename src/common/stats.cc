#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace clover {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  return count_ ? m2_ / static_cast<double>(count_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::Reset() { *this = RunningStats(); }

}  // namespace clover
