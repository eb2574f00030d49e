// The one CRC-framed file codec behind every binary artifact: training
// checkpoints (data/checkpoint), shard tiles, meta and test sets
// (data/shards) and tuned configs (tune/tune).
//
// Layout (fixed-width little-endian, the only layout this codebase targets):
//
//   [0..8)       magic ("CUMFCKPT", "CUMFTILE", "CUMFSHRD", "CUMFTEST",
//                "CUMFTUNE")
//   [8..12)      u32 format version
//   [12..20)     u64 payload length
//   [20..20+len) payload (artifact-specific)
//   [..+4)       u32 CRC-32 of the payload (common/crc32.hpp)
//
// The reader trusts nothing before it is checked: wrong magic, version
// skew, a short file and a CRC mismatch each raise FrameError with a
// distinct FrameReject reason; bytes after the CRC and a CRC-valid but
// unparseable payload are `malformed`, and the payload parsers add
// `mismatch` (valid, but for another run or tile). Writers go through atomic_write_file, so a crash mid-write never
// leaves a damaged file under a valid name.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/check.hpp"

namespace cumf {

/// Why a framed file was rejected.
enum class FrameReject {
  io,            ///< cannot open/read the file at all
  bad_magic,     ///< not the expected kind of cumf file
  version_skew,  ///< written by an incompatible format version
  truncated,     ///< shorter than its header promises (torn write)
  bad_crc,       ///< payload checksum mismatch (corruption)
  malformed,     ///< bytes after the CRC, or a payload that doesn't parse
  mismatch,      ///< valid file, but for a different run, tile or dataset
};

/// The reason's snake_case id ("bad_crc", "mismatch", …) that diagnostics
/// print in brackets; "unknown" for a value outside the enum.
const char* to_string(FrameReject reason);

/// Thrown on any rejected framed file. what() reads
/// "<artifact> [<reason id>]: <detail>", so every CLI prints the same
/// "rejected " + what() diagnostic.
class FrameError : public CheckError {
 public:
  FrameError(FrameReject reason, std::string_view artifact,
             const std::string& detail);
  FrameReject reason() const noexcept { return reason_; }

 private:
  FrameReject reason_;
};

/// Renders magic | version | length | payload | CRC. `magic` is 8 bytes.
std::string frame(std::string_view magic, std::uint32_t version,
                  std::string_view payload);

/// Validates magic, version, length and CRC, and that `bytes` ends exactly
/// at the CRC, and returns a view of the payload inside `bytes` (no copy).
/// `what` names the artifact in errors.
std::string_view unframe(std::string_view magic, std::uint32_t version,
                         std::string_view bytes, std::string_view what);

/// Replaces `out` with the whole file at `path`; throws FrameError (io).
void read_file(const std::string& path, std::string& out);

/// Appends fixed-width scalars in native (little-endian) byte order.
class ByteWriter {
 public:
  explicit ByteWriter(std::string& out) : out_(out) {}

  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* bytes = reinterpret_cast<const char*>(&value);
    out_.append(bytes, sizeof(T));
  }

  void put_f32(float v) { put(std::bit_cast<std::uint32_t>(v)); }
  void put_f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }

 private:
  std::string& out_;
};

/// Bounds-checked cursor over a payload; any overrun is a torn write.
/// `what` names the artifact in errors; both views must outlive the reader.
class ByteReader {
 public:
  ByteReader(std::string_view buf, std::string_view what)
      : buf_(buf), what_(what) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (buf_.size() - pos_ < sizeof(T)) {
      throw FrameError(FrameReject::truncated, what_,
                       "payload ends mid-field");
    }
    T value;
    std::memcpy(&value, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  float get_f32() { return std::bit_cast<float>(get<std::uint32_t>()); }
  double get_f64() { return std::bit_cast<double>(get<std::uint64_t>()); }

  /// Reads an element count stored as `Count` and caps it by what the
  /// remaining payload can hold, so a corrupted-but-CRC-valid count never
  /// becomes a huge allocation.
  template <typename Count = std::uint64_t>
  Count get_count(std::size_t elem_bytes) {
    const auto n = get<Count>();
    if (n > remaining() / elem_bytes) {
      throw FrameError(FrameReject::malformed, what_,
                       "element count exceeds payload size");
    }
    return n;
  }

  std::size_t remaining() const noexcept { return buf_.size() - pos_; }
  std::string_view what() const noexcept { return what_; }

 private:
  std::string_view buf_;
  std::string_view what_;
  std::size_t pos_ = 0;
};

}  // namespace cumf
