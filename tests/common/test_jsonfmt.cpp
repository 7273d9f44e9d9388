// The one JSON writer against its oracles.  append_json_number must print
// exactly what snprintf("%.17g") prints — the format every golden file,
// served response and kit document was written in — over a seeded set of
// random bit patterns, integers, fractions, every power of ten across the
// binary64 range with its neighbours, and the special values.
// append_json_string must escape exactly like the library's former
// json_escape did (kept below as the oracle).
#include "common/jsonfmt.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/rng.hpp"

namespace ipass {
namespace {

std::string oracle_number(double v) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
  return std::string(buf, static_cast<std::size_t>(n));
}

std::string written_number(double v) {
  std::string out;
  append_json_number(out, v);
  return out;
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

// Compares the writer with the oracle on one value; counts mismatches and
// reports only the first few so a systematic break stays readable.
class Differential {
 public:
  void check(double v) {
    ++checked_;
    out_.clear();
    append_json_number(out_, v);
    const std::string want = oracle_number(v);
    if (out_ == want) return;
    if (++mismatches_ <= 5) {
      ADD_FAILURE() << "writer '" << out_ << "' vs %.17g '" << want << "'";
    }
  }
  std::size_t checked() const { return checked_; }
  std::size_t mismatches() const { return mismatches_; }

 private:
  std::string out_;
  std::size_t checked_ = 0;
  std::size_t mismatches_ = 0;
};

TEST(JsonFmt, NumberMatchesPrintfOnRandomBitPatterns) {
  Differential d;
  Pcg32 rng(20261017, 1);
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t hi = rng.next_u32();
    d.check(from_bits(hi << 32 | rng.next_u32()));
  }
  EXPECT_EQ(d.mismatches(), 0U) << "of " << d.checked();
}

TEST(JsonFmt, NumberMatchesPrintfOnIntegersAndFractions) {
  Differential d;
  for (int i = -100000; i <= 100000; ++i) d.check(i);
  Pcg32 rng(20261017, 2);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t hi = rng.next_u32();
    const std::uint64_t r = hi << 32 | rng.next_u32();
    d.check(static_cast<double>(r >> 11));        // integers in [0, 2^53)
    d.check(static_cast<double>(r >> 11) * 0x1p-53);  // fractions in [0, 1)
  }
  for (int k = 0; k <= 53; ++k) {
    const double p = std::ldexp(1.0, k);
    d.check(p - 1.0);
    d.check(p);
    d.check(p + 1.0);
    d.check(-p);
  }
  EXPECT_EQ(d.mismatches(), 0U) << "of " << d.checked();
}

TEST(JsonFmt, NumberMatchesPrintfAroundEveryPowerOfTen) {
  // Covers the %g switch between fixed and exponent notation (exponent
  // -5 and 17) and both ends of the range, denormals and overflow included.
  Differential d;
  for (int e = -330; e <= 310; ++e) {
    const std::string text = "1e" + std::to_string(e);
    const double p = std::strtod(text.c_str(), nullptr);
    double down = p;
    double up = p;
    d.check(p);
    d.check(-p);
    for (int step = 0; step < 3; ++step) {
      down = std::nextafter(down, 0.0);
      up = std::nextafter(up, std::numeric_limits<double>::infinity());
      d.check(down);
      d.check(up);
      d.check(-up);
    }
  }
  EXPECT_EQ(d.mismatches(), 0U) << "of " << d.checked();
}

TEST(JsonFmt, NumberMatchesPrintfOnSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {0.0, -0.0, inf, -inf, nan, -nan,
                         std::numeric_limits<double>::denorm_min(),
                         -std::numeric_limits<double>::denorm_min(), DBL_MIN,
                         DBL_MAX, -DBL_MAX, DBL_EPSILON, 0.1, 1e-5, 1e16, 1e17}) {
    EXPECT_EQ(written_number(v), oracle_number(v));
  }
  EXPECT_EQ(written_number(0.1), "0.10000000000000001");
  EXPECT_EQ(written_number(-0.0), "-0");
  EXPECT_EQ(written_number(1e300), "1.0000000000000001e+300");
  EXPECT_EQ(written_number(inf), "inf");
}

TEST(JsonFmt, NumberRoundTripsThroughStrtod) {
  Pcg32 rng(20261017, 3);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t hi = rng.next_u32();
    const double v = from_bits(hi << 32 | rng.next_u32());
    if (!std::isfinite(v)) continue;
    const double back = std::strtod(written_number(v).c_str(), nullptr);
    ASSERT_EQ(std::memcmp(&back, &v, sizeof v), 0) << written_number(v);
  }
}

TEST(JsonFmt, NumberAppendsAfterExistingText) {
  std::string out = "{\"x\": ";
  append_json_number(out, 2.5);
  out += ", \"y\": ";
  append_json_number(out, -3);
  EXPECT_EQ(out, "{\"x\": 2.5, \"y\": -3");
}

// The escaping of the library's former json_escape, verbatim: the oracle
// append_json_string must reproduce byte for byte.
std::string legacy_escape(const std::string& value) {
  std::string out;
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

std::string written_string(const std::string& value) {
  std::string out;
  append_json_string(out, value);
  return out;
}

TEST(JsonFmt, StringEscapesEveryByteLikeTheFormerEscaper) {
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    EXPECT_EQ(written_string(one), "\"" + legacy_escape(one) + "\"") << "byte " << b;
  }
  std::string mixed = "a\"b\\c\nd\te\r\b\f";
  mixed += '\0';
  mixed += "\x1f\x7f caf\xc3\xa9";
  EXPECT_EQ(written_string(mixed), "\"" + legacy_escape(mixed) + "\"");
}

TEST(JsonFmt, StringEscapesAreTheDocumentedOnes) {
  EXPECT_EQ(written_string(""), "\"\"");
  EXPECT_EQ(written_string("plain"), "\"plain\"");
  EXPECT_EQ(written_string("q\"b\\"), "\"q\\\"b\\\\\"");
  EXPECT_EQ(written_string("\n\t"), "\"\\n\\t\"");
  EXPECT_EQ(written_string("\r\x01\x1f"), "\"\\u000d\\u0001\\u001f\"");
  EXPECT_EQ(written_string(std::string(1, '\0')), "\"\\u0000\"");
  std::string out = "id=";
  append_json_string(out, "r1");
  EXPECT_EQ(out, "id=\"r1\"");
}

}  // namespace
}  // namespace ipass
