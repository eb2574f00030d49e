// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte ranges.
//
// Used by the framed-file codec (src/data/framed.*) behind checkpoints,
// shard files and tuned configs to detect torn or bit-rotted files before
// any field is trusted. Table-driven, slicing-by-8: eight table lookups
// advance the CRC over eight bytes at a time, and a trailing n mod 8 bytes
// go one byte per step. What matters is that the checksum is standard
// (verifiable with `python3 -c 'import zlib; print(hex(zlib.crc32(data)))'`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cumf {

/// Running CRC-32: feed `crc` from the previous call to continue a stream
/// (start with 0). Matches zlib's crc32().
std::uint32_t crc32(std::uint32_t crc, const void* data, std::size_t n);

inline std::uint32_t crc32(std::string_view bytes) {
  return crc32(0, bytes.data(), bytes.size());
}

}  // namespace cumf
