// Numeric flag values of the command-line tools (hetsched_cli,
// hetsched_serve): the whole string must parse, so "8x", "abc", "nan",
// "inf" and out-of-range values exit through usage() instead of being
// truncated or read as 0.
#pragma once

#include <charconv>
#include <cmath>
#include <string>
#include <system_error>

namespace hetsched::tools {

/// Prints `why` and the tool's usage, then exits with code 2. Each tool
/// defines it.
[[noreturn]] void usage(const char* why);

/// `--name=v` as an integer in [lo, hi].
inline long long int_flag(const char* name, const std::string& v,
                          long long lo, long long hi) {
  long long x = 0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, x);
  if (v.empty() || ec != std::errc() || ptr != end || x < lo || x > hi)
    usage(("--" + std::string(name) + " takes an integer in [" +
           std::to_string(lo) + ", " + std::to_string(hi) + "], got '" + v +
           "'")
              .c_str());
  return x;
}

/// `--name=v` as a finite number >= 0.
inline double real_flag(const char* name, const std::string& v) {
  double x = 0.0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, x);
  if (v.empty() || ec != std::errc() || ptr != end || !std::isfinite(x) ||
      x < 0.0)
    usage(("--" + std::string(name) +
           " takes a finite number >= 0, got '" + v + "'")
              .c_str());
  return x;
}

}  // namespace hetsched::tools
