#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define IPASS_CRC32C_SSE42 1
#endif

namespace ipass {

namespace {

// Slice-by-4 tables: table[0] is the classic byte-at-a-time table, the
// higher slices fold four input bytes per iteration (~3-4x the throughput
// of the byte loop, still completely portable).
constexpr std::uint32_t kPoly = 0x82F63B78U;

constexpr std::array<std::array<std::uint32_t, 256>, 4> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 4> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1U) ? (kPoly ^ (c >> 1U)) : (c >> 1U);
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    t[1][i] = (t[0][i] >> 8U) ^ t[0][t[0][i] & 0xFFU];
    t[2][i] = (t[1][i] >> 8U) ^ t[0][t[1][i] & 0xFFU];
    t[3][i] = (t[2][i] >> 8U) ^ t[0][t[2][i] & 0xFFU];
  }
  return t;
}

constexpr std::array<std::array<std::uint32_t, 256>, 4> kTables = make_tables();

#ifdef IPASS_CRC32C_SSE42
// The CRC32 instruction works on the same reflected, pre-inverted state as
// the table loop; little-endian 8-byte loads feed it bytes in stream order.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_extend_sse42(
    std::uint32_t crc, const unsigned char* p, std::size_t size) {
  std::uint64_t c = crc ^ 0xFFFFFFFFU;
  while (size >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
    p += 8;
    size -= 8;
  }
  auto c32 = static_cast<std::uint32_t>(c);
  while (size > 0) {
    c32 = _mm_crc32_u8(c32, *p++);
    --size;
  }
  return c32 ^ 0xFFFFFFFFU;
}

// Set during static initialization; a CRC taken before that (another
// translation unit's initializer) reads false and uses the table.
const bool kHasSse42 = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
}();
#endif

}  // namespace

std::uint32_t crc32c_extend(std::uint32_t crc, const void* data, std::size_t size) {
#ifdef IPASS_CRC32C_SSE42
  if (kHasSse42) {
    return crc32c_extend_sse42(crc, static_cast<const unsigned char*>(data), size);
  }
#endif
  return crc32c_extend_table(crc, data, size);
}

std::uint32_t crc32c_extend_table(std::uint32_t crc, const void* data,
                                  std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xFFFFFFFFU;
  while (size >= 4) {
    // Byte-wise load keeps the fold endianness-independent.
    c ^= static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8U) |
         (static_cast<std::uint32_t>(p[2]) << 16U) |
         (static_cast<std::uint32_t>(p[3]) << 24U);
    c = kTables[3][c & 0xFFU] ^ kTables[2][(c >> 8U) & 0xFFU] ^
        kTables[1][(c >> 16U) & 0xFFU] ^ kTables[0][(c >> 24U) & 0xFFU];
    p += 4;
    size -= 4;
  }
  while (size > 0) {
    c = kTables[0][(c ^ *p++) & 0xFFU] ^ (c >> 8U);
    --size;
  }
  return c ^ 0xFFFFFFFFU;
}

}  // namespace ipass
