// strf formats into a 256-byte stack buffer and only formats a second time
// when the result does not fit; the bytes must not depend on which path ran.
#include "common/strfmt.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ipass {
namespace {

TEST(Strf, EmptyResult) {
  EXPECT_EQ(strf("%s", ""), "");
  EXPECT_EQ(strf(""), "");
}

TEST(Strf, ResultsAroundTheStackBufferSize) {
  // 255 bytes fit the buffer with its terminator; 256 and up take the
  // second pass.
  for (const std::size_t n : {1U, 255U, 256U, 257U, 4096U}) {
    const std::string text(n, 'x');
    EXPECT_EQ(strf("%s", text.c_str()), text) << n;
    // The same length reached through conversions: a number plus padding.
    const std::string tail(n - 1, 'y');
    EXPECT_EQ(strf("%d%s", 7, tail.c_str()), "7" + tail) << n;
  }
}

TEST(Strf, FormatsLikePrintf) {
  EXPECT_EQ(strf("%zu items, %.3f s, '%-4s'", std::size_t{12}, 1.5, "ab"),
            "12 items, 1.500 s, 'ab  '");
  EXPECT_EQ(strf("%*d", 300, 5), std::string(299, ' ') + "5");
  EXPECT_EQ(fixed(3.14159), "3.14");
  EXPECT_EQ(percent(0.968), "96.8%");
}

}  // namespace
}  // namespace ipass
