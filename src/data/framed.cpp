#include "data/framed.hpp"

#include <algorithm>
#include <cstdio>

#include "common/crc32.hpp"

namespace cumf {

const char* to_string(FrameReject reason) {
  switch (reason) {
    case FrameReject::io:
      return "io";
    case FrameReject::bad_magic:
      return "bad_magic";
    case FrameReject::version_skew:
      return "version_skew";
    case FrameReject::truncated:
      return "truncated";
    case FrameReject::bad_crc:
      return "bad_crc";
    case FrameReject::malformed:
      return "malformed";
    case FrameReject::mismatch:
      return "mismatch";
  }
  return "unknown";
}

FrameError::FrameError(FrameReject reason, std::string_view artifact,
                       const std::string& detail)
    : CheckError(std::string(artifact) + " [" + to_string(reason) +
                 "]: " + detail),
      reason_(reason) {}

std::string frame(std::string_view magic, std::uint32_t version,
                  std::string_view payload) {
  std::string out;
  out.reserve(magic.size() + 16 + payload.size());
  out.append(magic);
  ByteWriter w(out);
  w.put(version);
  w.put<std::uint64_t>(payload.size());
  out.append(payload);
  w.put(crc32(payload));
  return out;
}

std::string_view unframe(std::string_view magic, std::uint32_t version,
                         std::string_view bytes, std::string_view what) {
  constexpr std::size_t kHeader = 8 + 4 + 8;  // magic + version + length
  if (bytes.size() < kHeader) {
    // A short file that does not even start like the magic is the wrong
    // kind of file, not a torn one.
    if (bytes.substr(0, magic.size()) !=
        magic.substr(0, std::min(bytes.size(), magic.size()))) {
      throw FrameError(FrameReject::bad_magic, what,
                       "shorter than the header and not \"" +
                           std::string(magic) + "\"");
    }
    throw FrameError(FrameReject::truncated, what,
                     "shorter than the header");
  }
  if (bytes.substr(0, magic.size()) != magic) {
    throw FrameError(FrameReject::bad_magic, what,
                     "expected leading \"" + std::string(magic) + "\"");
  }
  std::uint32_t file_version = 0;
  std::memcpy(&file_version, bytes.data() + 8, sizeof(file_version));
  if (file_version != version) {
    throw FrameError(FrameReject::version_skew, what,
                     "file version " + std::to_string(file_version) +
                         ", reader supports " + std::to_string(version));
  }
  std::uint64_t payload_len = 0;
  std::memcpy(&payload_len, bytes.data() + 12, sizeof(payload_len));
  // Subtraction form: `kHeader + payload_len + 4` would wrap for a hostile
  // length and let the CRC read land outside the buffer.
  if (bytes.size() - kHeader < payload_len ||
      bytes.size() - kHeader - payload_len < sizeof(std::uint32_t)) {
    throw FrameError(FrameReject::truncated, what,
                     "header promises " + std::to_string(payload_len) +
                         " payload bytes, file has " +
                         std::to_string(bytes.size() - kHeader));
  }
  const std::string_view payload = bytes.substr(kHeader, payload_len);
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + kHeader + payload_len,
              sizeof(stored_crc));
  if (stored_crc != crc32(payload)) {
    throw FrameError(FrameReject::bad_crc, what,
                     "stored CRC does not match payload");
  }
  // A frame is the whole file: anything after the CRC (say, another file
  // concatenated onto this one) would otherwise be silently ignored.
  const std::size_t extra = bytes.size() - kHeader - payload_len - 4;
  if (extra != 0) {
    throw FrameError(FrameReject::malformed, what,
                     std::to_string(extra) + " bytes after the CRC");
  }
  return payload;
}

void read_file(const std::string& path, std::string& out) {
  const std::string what = "file '" + path + "'";
  out.clear();
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    throw FrameError(FrameReject::io, what, "cannot open");
  }
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    out.append(buf, got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    throw FrameError(FrameReject::io, what, "read error");
  }
}

}  // namespace cumf
