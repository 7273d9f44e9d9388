// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78) — the checksum
// iSCSI, ext4 and every serious storage format use for on-disk integrity.
// The serve journal stamps every record with it so that a torn or corrupted
// tail is detected on recovery instead of being replayed as garbage.
//
// On x86-64 CPUs with SSE4.2 the CRC32 instruction computes it (about ten
// times the table's throughput); elsewhere a portable slice-by-4 table
// does.  Both give the same bits, so journal files written on one machine
// recover on any other.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ipass {

// Extend a running CRC-32C with `size` bytes.  Streaming over chunks is
// bit-identical to one shot over the concatenation.
std::uint32_t crc32c_extend(std::uint32_t crc, const void* data, std::size_t size);

// The portable table path, whatever the CPU (tests compare it with the
// dispatched one).
std::uint32_t crc32c_extend_table(std::uint32_t crc, const void* data, std::size_t size);

// One-shot CRC-32C of a buffer (crc32c("123456789") == 0xE3069283).
inline std::uint32_t crc32c(const void* data, std::size_t size) {
  return crc32c_extend(0U, data, size);
}

}  // namespace ipass
