// The one JSON writer of the library.  Every JSON document ipass emits —
// served responses and errors, kits::kit_json, core::export decision
// reports and the golden files — is built by appending to a caller's
// std::string with these two functions.
//
// Numbers print with std::to_chars(general, 17), whose output is
// byte-identical to the %.17g scheme the golden files were written in
// (tests/common/test_jsonfmt.cpp checks that against snprintf over
// millions of doubles).  17 significant digits round-trip every finite
// binary64 exactly: strtod inverts them.
#pragma once

#include <charconv>
#include <string>
#include <string_view>

namespace ipass {

// Append `v` as %.17g prints it ("0.10000000000000001", "1e+300", "inf").
inline void append_json_number(std::string& out, double v) {
  char buf[32];  // sign + 17 digits + point + "e-308" fits with room to spare
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

// Append `value` as a quoted JSON string: `"` and `\` are backslashed,
// \n and \t use their short escapes and every other byte below 0x20 is
// \u00xx (lowercase hex).  Bytes from 0x20 up pass through unchanged.
inline void append_json_string(std::string& out, std::string_view value) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
        break;
    }
  }
  out += '"';
}

}  // namespace ipass
