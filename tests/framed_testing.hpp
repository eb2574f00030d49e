// Test inputs shared by the framed-file readers' rejection tests.
#pragma once

#include <cstdint>
#include <string>

namespace cumf {

/// The valid magic and version of `frame` followed by a u64 payload length
/// of 2^64 - 22 and a 16-byte body. `header + length + 4` wraps to 2, so a
/// reader that checks the length by adding instead of subtracting accepts
/// it and reads the CRC from 2 bytes before the buffer.
inline std::string with_hostile_length(const std::string& frame) {
  std::string bytes = frame.substr(0, 12);
  const std::uint64_t length = ~std::uint64_t{0} - 21;
  bytes.append(reinterpret_cast<const char*>(&length), sizeof(length));
  bytes.append(16, '\0');
  return bytes;
}

}  // namespace cumf
