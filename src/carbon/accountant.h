// Carbon accounting: Carbon = Energy × Carbon Intensity (paper Sec. 2),
// integrated window by window with the facility PUE applied. This is the
// repo's analogue of the paper's modified carbontracker service.
#pragma once

namespace clover::carbon {

class CarbonAccountant {
 public:
  // `pue`: facility power usage effectiveness multiplier (paper uses 1.5).
  explicit CarbonAccountant(double pue);

  // Accounts `it_joules` of IT energy consumed over a window at grid
  // intensity `ci` (gCO2/kWh). Callers sample the CI trace at the window's
  // start, like carbontracker's periodic sampling. Returns the grams
  // attributed.
  double AccountEnergy(double ci, double it_joules);

  double total_grams() const { return total_grams_; }
  double total_it_joules() const { return total_it_joules_; }
  double pue() const { return pue_; }

 private:
  double pue_;
  double total_grams_ = 0.0;
  double total_it_joules_ = 0.0;
};

}  // namespace clover::carbon
