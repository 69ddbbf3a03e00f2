// Whole-token number parsing for every textual interface: CLI flags,
// spec parameters, size lists, the service wire protocol and its
// manifests and cache lines. Each caller turns a failure into its own
// error text (or into damage, for on-disk records).
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace dynbcast {

/// `text` as a T when all of it is that number, within T's range:
/// decimal digits, led by '-' only for a signed T, plus a fraction, an
/// exponent, "inf" or "nan" for a floating-point T. "2x", " 2", "+2" and
/// "" fail, and an unsigned T takes no sign, so "-1" cannot wrap around
/// to the type's maximum.
template <typename T>
[[nodiscard]] std::optional<T> parseWhole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace dynbcast
