#include "common/crc32c.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

namespace ipass {
namespace {

// Published CRC-32C (Castagnoli) check values; RFC 3720 appendix B.4 and
// the canonical "123456789" check word.  A table-generation or
// pre/post-conditioning bug cannot pass these.
TEST(Crc32c, KnownVectors) {
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283U);
  EXPECT_EQ(crc32c("", 0), 0x00000000U);

  unsigned char zeros[32];
  std::memset(zeros, 0, sizeof(zeros));
  EXPECT_EQ(crc32c(zeros, sizeof(zeros)), 0x8A9136AAU);

  unsigned char ones[32];
  std::memset(ones, 0xFF, sizeof(ones));
  EXPECT_EQ(crc32c(ones, sizeof(ones)), 0x62A8AB43U);

  unsigned char ascending[32];
  for (unsigned i = 0; i < 32; ++i) ascending[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(crc32c(ascending, sizeof(ascending)), 0x46DD794EU);
}

TEST(Crc32c, StreamingMatchesOneShot) {
  const std::string data =
      "the journal CRC must not depend on how appends chunk the bytes";
  const std::uint32_t whole = crc32c(data.data(), data.size());
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    std::uint32_t crc = crc32c_extend(0, data.data(), cut);
    crc = crc32c_extend(crc, data.data() + cut, data.size() - cut);
    EXPECT_EQ(crc, whole) << "split at " << cut;
  }
}

// The dispatched path (the CRC32 instruction where the CPU has it) and the
// portable table agree at every length and alignment, streamed or not.
TEST(Crc32c, DispatchedPathMatchesTheTable) {
  std::string data(300, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>((i * 167 + 13) ^ (i >> 3));
  }
  for (std::size_t offset = 0; offset < 9; ++offset) {
    for (std::size_t size = 0; offset + size <= data.size(); size += 7) {
      const char* p = data.data() + offset;
      EXPECT_EQ(crc32c(p, size), crc32c_extend_table(0, p, size))
          << "offset " << offset << " size " << size;
      EXPECT_EQ(crc32c_extend(0x12345678U, p, size),
                crc32c_extend_table(0x12345678U, p, size))
          << "offset " << offset << " size " << size;
    }
  }
  EXPECT_EQ(crc32c_extend_table(0, "123456789", 9), 0xE3069283U);
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::string data = "{\"id\": \"r1\", \"kit_name\": \"ltcc-ceramic\"}";
  const std::uint32_t good = crc32c(data.data(), data.size());
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
      EXPECT_NE(crc32c(data.data(), data.size()), good)
          << "flip at byte " << byte << " bit " << bit;
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
    }
  }
}

}  // namespace
}  // namespace ipass
