// Token tables: the lower-case words that name enum values in campaign
// specs, cell names and command-line flags. Each enum declares its one
// table next to itself (core/schemes.h, models/variant.h,
// carbon/trace_generator.h, fleet/router.h); every parser and printer of
// the enum reads that table.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace clover {

template <typename Enum>
struct EnumToken {
  const char* token;
  Enum value;
};

// The value `token` names in `table`, or nullopt when it names none.
template <typename Enum, std::size_t N>
constexpr std::optional<Enum> ParseToken(const EnumToken<Enum> (&table)[N],
                                         std::string_view token) {
  for (const EnumToken<Enum>& entry : table)
    if (token == entry.token) return entry.value;
  return std::nullopt;
}

// The token that names `value` in `table` ("?" when it has none).
template <typename Enum, std::size_t N>
constexpr const char* TokenOf(const EnumToken<Enum> (&table)[N], Enum value) {
  for (const EnumToken<Enum>& entry : table)
    if (entry.value == value) return entry.token;
  return "?";
}

// Every token of `table` in table order, joined by '|' ("a|b|c").
template <typename Enum, std::size_t N>
std::string TokenList(const EnumToken<Enum> (&table)[N]) {
  std::string list;
  for (const EnumToken<Enum>& entry : table) {
    if (!list.empty()) list += '|';
    list += entry.token;
  }
  return list;
}

}  // namespace clover
