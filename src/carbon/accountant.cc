#include "carbon/accountant.h"

#include "common/check.h"
#include "common/units.h"

namespace clover::carbon {

CarbonAccountant::CarbonAccountant(double pue) : pue_(pue) {
  CLOVER_CHECK(pue_ >= 1.0);
}

double CarbonAccountant::AccountEnergy(double ci, double it_joules) {
  CLOVER_CHECK(it_joules >= 0.0);
  const double grams = CarbonGrams(it_joules, ci, pue_);
  total_grams_ += grams;
  total_it_joules_ += it_joules;
  return grams;
}

}  // namespace clover::carbon
