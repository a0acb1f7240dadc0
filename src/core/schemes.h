// The competing schemes of the paper's evaluation (Sec. 5.1).
//
//   BASE    highest-quality variant on every unpartitioned GPU
//   CO2OPT  most aggressive partition (19) + smallest variant everywhere
//   BLOVER  carbon-aware random search in the raw (x_p, x_v) space
//   CLOVER  the full system: graph-space simulated annealing + cache
//   ORACLE  exhaustively profiled offline; switches instantly and free
#pragma once

#include <string_view>

#include "common/tokens.h"

namespace clover::core {

enum class Scheme {
  kBase = 0,
  kCo2Opt = 1,
  kBlover = 2,
  kClover = 3,
  kOracle = 4,
};

inline constexpr int kNumSchemes = 5;

inline constexpr EnumToken<Scheme> kSchemeTokens[] = {
    {"base", Scheme::kBase},     {"co2opt", Scheme::kCo2Opt},
    {"blover", Scheme::kBlover}, {"clover", Scheme::kClover},
    {"oracle", Scheme::kOracle},
};

// Display name for tables and reports ("BASE", "CLOVER", ...).
std::string_view SchemeName(Scheme scheme);

}  // namespace clover::core
