#ifndef LAZYREP_CORE_PARSE_NUMBER_H_
#define LAZYREP_CORE_PARSE_NUMBER_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace lazyrep::core {

/// Writes "bad value for <name>: '<text>' (<reason>)" to *error and returns
/// false: the one message for a flag, environment or spec value that does
/// not parse or is out of range.
inline bool BadValue(std::string_view name, std::string_view text,
                     std::string_view reason, std::string* error) {
  *error = "bad value for " + std::string(name) + ": '" + std::string(text) +
           "' (" + std::string(reason) + ")";
  return false;
}

/// Strict number parsing for command-line flags, environment overrides and
/// spec strings. The whole of `text` must be one base-10 number: no leading
/// space or '+', no trailing characters, no sign on an unsigned type, no hex;
/// a double must be finite. The value must lie in [lo, hi]. On success stores
/// it in *out and returns true. Otherwise leaves *out untouched, writes
/// "bad value for <name>: '<text>' (<reason>)" to *error and returns false.
/// Header-only with no lazyrep dependency, so every layer can use it (net
/// parses --topology specs with it).
template <typename T>
bool ParseNumber(std::string_view name, std::string_view text, T lo, T hi,
                 T* out, std::string* error) {
  static_assert(std::is_arithmetic_v<T>);
  auto fail = [&](const std::string& reason) {
    return BadValue(name, text, reason, error);
  };
  auto show = [](T v) {
    if constexpr (std::is_floating_point_v<T>) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", static_cast<double>(v));
      return std::string(buf);
    } else {
      return std::to_string(v);
    }
  };
  T value{};
  const char* end = text.data() + text.size();
  std::from_chars_result r = std::from_chars(text.data(), end, value);
  const bool overflow = r.ec == std::errc::result_out_of_range;
  bool finite = true;
  if constexpr (std::is_floating_point_v<T>) {
    finite = overflow || std::isfinite(value);  // "inf" and "nan" parse
  }
  if ((r.ec != std::errc() && !overflow) || r.ptr != end || !finite) {
    return fail(std::is_floating_point_v<T> ? "not a finite number"
                                            : "not a base-10 integer");
  }
  if (overflow || value < lo || value > hi) {
    if (hi != std::numeric_limits<T>::max()) {
      return fail("want " + show(lo) + " to " + show(hi));
    }
    return fail(overflow ? "out of range" : "want at least " + show(lo));
  }
  *out = value;
  return true;
}

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_PARSE_NUMBER_H_
