// Strict parsing of numbers from outside input: command-line flags and
// `--set` values. strtoull alone wraps "-1" to 2^64-1, saturates an
// overflowing value and stops at the first non-digit ("12abc" is 12); atof
// turns "abc" into 0. These accept a value only when the whole string is one
// number that fits the destination.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

namespace puno::sim {

/// Unsigned decimal that fits T: no sign, no trailing characters, no
/// overflow.
template <class T>
  requires(std::is_unsigned_v<T> && !std::is_same_v<T, bool>)
[[nodiscard]] bool parse_number(std::string_view v, T& out) {
  const std::string s(v);
  if (s.find('-') != std::string::npos) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE ||
      n > std::numeric_limits<T>::max()) {
    return false;
  }
  out = static_cast<T>(n);
  return true;
}

/// Finite double in strtod syntax; the whole string, no ERANGE.
[[nodiscard]] inline bool parse_number(std::string_view v, double& out) {
  const std::string s(v);
  char* end = nullptr;
  errno = 0;
  const double d = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(d)) {
    return false;
  }
  out = d;
  return true;
}

/// The value of a numeric command-line flag. A value that does not parse,
/// or a negative double, prints "bad NAME 'TEXT' (expected ...)" on stderr
/// and exits with status 2, the usage-error status of every tool here.
template <class T>
[[nodiscard]] T flag_value(std::string_view name, std::string_view text) {
  T v{};
  if (parse_number(text, v) && !(v < T{})) return v;
  std::string expected = "a finite number >= 0";
  if constexpr (!std::is_same_v<T, double>) {
    expected = "an integer from 0 to " +
               std::to_string(std::numeric_limits<T>::max());
  }
  std::fprintf(stderr, "bad %.*s '%.*s' (expected %s)\n",
               static_cast<int>(name.size()), name.data(),
               static_cast<int>(text.size()), text.data(), expected.c_str());
  std::exit(2);
}

}  // namespace puno::sim
