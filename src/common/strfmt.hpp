// printf-style string formatting helpers.
//
// libstdc++ 12 does not ship <format>, so the benches and table renderer use
// these small wrappers instead.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>

namespace ipass {

// Format with printf semantics into a std::string.  Formats once into a
// stack buffer; only a result of 256 bytes or more is formatted a second
// time, straight into the string.
inline std::string strf(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0 && static_cast<std::size_t>(n) < sizeof buf) {
    out.assign(buf, static_cast<std::size_t>(n));
  } else if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

// "12.3" style fixed formatting.
inline std::string fixed(double v, int decimals = 2) { return strf("%.*f", decimals, v); }

// "96.8%" style percentage of a ratio (0.968 -> "96.8%").
inline std::string percent(double ratio, int decimals = 1) {
  return strf("%.*f%%", decimals, ratio * 100.0);
}

}  // namespace ipass
