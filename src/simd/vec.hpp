// Portable fixed-width SIMD layer for the hot-path kernels.
//
// The paper's kernels (get_hermitian tiling, the CG solve) live or die by
// data-parallel arithmetic; on the CPU reproduction that means vector
// registers. This header wraps GCC/Clang vector extensions behind small
// fixed-width value types — vf8 (8 × float) for elementwise work, vd8
// (8 × double) for reduction accumulators, vu8 (8 × uint32) for the bit
// manipulation in the FP16 unpack — with a scalar-array fallback selected at
// configure time (CMake option CUMF_SIMD, which defines CUMF_SIMD_ENABLED).
//
// Numerical contract, relied on by the differential tests:
//  - elementwise ops (add/mul/select/convert) are bitwise identical to the
//    scalar loops they replace — every lane performs the same IEEE op;
//  - reductions (hsum after lane-parallel accumulation) reassociate the sum,
//    so results are ULP-close, not bitwise equal, to a sequential loop.
//    Products of two floats widened to double are exact (24+24 ≤ 53 bits),
//    so lane accumulation in vd8 only reorders exactly-representable terms.
//
// Both kernel variants (scalar and SIMD) are always compiled; KernelPath
// selects per call, and kDefaultPath reflects the configure-time choice.
// With CUMF_SIMD=OFF the "simd" path still runs — through the scalar-array
// fallback below — so differential tests are meaningful in every config.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace cumf::simd {

/// Which implementation of a dual-path kernel to run.
enum class KernelPath { scalar, simd };

const char* to_string(KernelPath path) noexcept;

#if defined(CUMF_SIMD_ENABLED) && CUMF_SIMD_ENABLED && \
    (defined(__GNUC__) || defined(__clang__))
#define CUMF_SIMD_VEXT 1
#else
#define CUMF_SIMD_VEXT 0
#endif

/// True when the vector-extension backend is compiled in.
inline constexpr bool kSimdCompiled = CUMF_SIMD_VEXT != 0;

/// What production call sites use when the caller has no opinion.
inline constexpr KernelPath kDefaultPath =
    kSimdCompiled ? KernelPath::simd : KernelPath::scalar;

/// Human-readable backend tag for bench/report output.
const char* backend_name() noexcept;

#if CUMF_SIMD_VEXT

using f32x8 = float __attribute__((vector_size(32)));
using u32x8 = std::uint32_t __attribute__((vector_size(32)));
using i32x8 = std::int32_t __attribute__((vector_size(32)));

/// 8 packed floats. Loads/stores go through memcpy, so unaligned pointers
/// are fine (compiles to movups / vmovups).
struct vf8 {
  static constexpr std::size_t kLanes = 8;
  f32x8 v;

  static vf8 zero() noexcept { return {f32x8{}}; }
  static vf8 broadcast(float x) noexcept {
    return {f32x8{x, x, x, x, x, x, x, x}};
  }
  static vf8 load(const float* p) noexcept {
    vf8 r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
  }
  void store(float* p) const noexcept { std::memcpy(p, &v, sizeof(v)); }

  friend vf8 operator+(vf8 a, vf8 b) noexcept { return {a.v + b.v}; }
  friend vf8 operator-(vf8 a, vf8 b) noexcept { return {a.v - b.v}; }
  friend vf8 operator*(vf8 a, vf8 b) noexcept { return {a.v * b.v}; }
  vf8& operator+=(vf8 o) noexcept {
    v += o.v;
    return *this;
  }

  float lane(std::size_t i) const noexcept { return v[i]; }
};

using f64x8 = double __attribute__((vector_size(64)));

/// 8 packed doubles — reduction accumulator. Lane l sums the exact
/// products of lane l in call order, and hsum() reduces in a fixed order
/// (the one of the former pair of 4-lane accumulators, so the kernels that
/// moved from that pair kept their bits).
struct vd8 {
  static constexpr std::size_t kLanes = 8;
  f64x8 v;

  static vd8 zero() noexcept { return {f64x8{}}; }
  /// All 8 lanes widened to double (exact — every float is a double).
  static vd8 widen(vf8 a) noexcept {
    return {__builtin_convertvector(a.v, f64x8)};
  }
  /// acc += widen(a) * widen(b), one exact product per lane.
  void mul_acc(vf8 a, vf8 b) noexcept { v += widen(a).v * widen(b).v; }
  /// Same with a pre-widened left operand — hoists a's conversion out of
  /// loops that reuse it across many right operands (e.g. gemv rows).
  void mul_acc(vd8 a_wide, vf8 b) noexcept { v += a_wide.v * widen(b).v; }

  /// ((v0+v2)+(v1+v3)) + ((v4+v6)+(v5+v7)).
  double hsum() const noexcept {
    return ((v[0] + v[2]) + (v[1] + v[3])) + ((v[4] + v[6]) + (v[5] + v[7]));
  }
};

/// 8 packed uint32 — bit manipulation for the FP16 unpack/pack.
struct vu8 {
  static constexpr std::size_t kLanes = 8;
  u32x8 v;

  static vu8 broadcast(std::uint32_t x) noexcept {
    return {u32x8{x, x, x, x, x, x, x, x}};
  }
  /// Widening load of 8 consecutive uint16 values.
  static vu8 load_u16(const std::uint16_t* p) noexcept {
    using u16x8 = std::uint16_t __attribute__((vector_size(16)));
    u16x8 narrow;
    std::memcpy(&narrow, p, sizeof(narrow));
    return {__builtin_convertvector(narrow, u32x8)};
  }
  /// Narrowing store of the low 16 bits of each lane.
  void store_u16(std::uint16_t* p) const noexcept {
    using u16x8 = std::uint16_t __attribute__((vector_size(16)));
    const u16x8 narrow = __builtin_convertvector(v, u16x8);
    std::memcpy(p, &narrow, sizeof(narrow));
  }

  friend vu8 operator&(vu8 a, vu8 b) noexcept { return {a.v & b.v}; }
  friend vu8 operator|(vu8 a, vu8 b) noexcept { return {a.v | b.v}; }
  friend vu8 operator+(vu8 a, vu8 b) noexcept { return {a.v + b.v}; }
  friend vu8 operator-(vu8 a, vu8 b) noexcept { return {a.v - b.v}; }
  friend vu8 operator<<(vu8 a, int s) noexcept { return {a.v << s}; }
  friend vu8 operator>>(vu8 a, int s) noexcept { return {a.v >> s}; }
  vu8 operator~() const noexcept { return {~v}; }

  /// Lanewise a == b / a >= b / a > b as all-ones / all-zeros masks.
  static vu8 eq(vu8 a, vu8 b) noexcept {
    return {std::bit_cast<u32x8>(a.v == b.v)};
  }
  static vu8 ge(vu8 a, vu8 b) noexcept {
    return {std::bit_cast<u32x8>(a.v >= b.v)};
  }
  static vu8 gt(vu8 a, vu8 b) noexcept {
    return {std::bit_cast<u32x8>(a.v > b.v)};
  }
  /// mask ? a : b, with mask lanes all-ones or all-zeros.
  static vu8 select(vu8 mask, vu8 a, vu8 b) noexcept {
    return {(mask.v & a.v) | (~mask.v & b.v)};
  }

  vf8 as_float() const noexcept { return {std::bit_cast<f32x8>(v)}; }
  static vu8 from_float(vf8 f) noexcept { return {std::bit_cast<u32x8>(f.v)}; }

  /// True when any lane is nonzero.
  bool any() const noexcept {
    const u32x8 folded =
        v | __builtin_shufflevector(v, v, 4, 5, 6, 7, 0, 1, 2, 3);
    return (folded[0] | folded[1] | folded[2] | folded[3]) != 0;
  }
};

#else  // scalar-array fallback: same API, element loops

struct vf8 {
  static constexpr std::size_t kLanes = 8;
  float v[8];

  static vf8 zero() noexcept { return vf8{{0, 0, 0, 0, 0, 0, 0, 0}}; }
  static vf8 broadcast(float x) noexcept {
    return vf8{{x, x, x, x, x, x, x, x}};
  }
  static vf8 load(const float* p) noexcept {
    vf8 r;
    std::memcpy(r.v, p, sizeof(r.v));
    return r;
  }
  void store(float* p) const noexcept { std::memcpy(p, v, sizeof(v)); }

  friend vf8 operator+(vf8 a, vf8 b) noexcept {
    vf8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  friend vf8 operator-(vf8 a, vf8 b) noexcept {
    vf8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  friend vf8 operator*(vf8 a, vf8 b) noexcept {
    vf8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  vf8& operator+=(vf8 o) noexcept {
    for (std::size_t i = 0; i < kLanes; ++i) v[i] += o.v[i];
    return *this;
  }

  float lane(std::size_t i) const noexcept { return v[i]; }
};

/// Reduction accumulator — see the vector-ext backend's vd8 doc.
struct vd8 {
  static constexpr std::size_t kLanes = 8;
  double v[8];

  static vd8 zero() noexcept { return vd8{{0, 0, 0, 0, 0, 0, 0, 0}}; }
  static vd8 widen(vf8 a) noexcept {
    vd8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i];
    return r;
  }
  void mul_acc(vf8 a, vf8 b) noexcept {
    for (std::size_t i = 0; i < kLanes; ++i) {
      v[i] += static_cast<double>(a.v[i]) * static_cast<double>(b.v[i]);
    }
  }
  void mul_acc(vd8 a_wide, vf8 b) noexcept {
    for (std::size_t i = 0; i < kLanes; ++i) {
      v[i] += a_wide.v[i] * static_cast<double>(b.v[i]);
    }
  }
  double hsum() const noexcept {
    return ((v[0] + v[2]) + (v[1] + v[3])) + ((v[4] + v[6]) + (v[5] + v[7]));
  }
};

struct vu8 {
  static constexpr std::size_t kLanes = 8;
  std::uint32_t v[8];

  static vu8 broadcast(std::uint32_t x) noexcept {
    return vu8{{x, x, x, x, x, x, x, x}};
  }
  static vu8 load_u16(const std::uint16_t* p) noexcept {
    vu8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = p[i];
    return r;
  }
  void store_u16(std::uint16_t* p) const noexcept {
    for (std::size_t i = 0; i < kLanes; ++i) {
      p[i] = static_cast<std::uint16_t>(v[i]);
    }
  }

#define CUMF_VU8_BINOP(opname, expr)                     \
  friend vu8 opname(vu8 a, vu8 b) noexcept {             \
    vu8 r;                                               \
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = (expr); \
    return r;                                            \
  }
  CUMF_VU8_BINOP(operator&, a.v[i] & b.v[i])
  CUMF_VU8_BINOP(operator|, a.v[i] | b.v[i])
  CUMF_VU8_BINOP(operator+, a.v[i] + b.v[i])
  CUMF_VU8_BINOP(operator-, a.v[i] - b.v[i])
#undef CUMF_VU8_BINOP
  friend vu8 operator<<(vu8 a, int s) noexcept {
    vu8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] << s;
    return r;
  }
  friend vu8 operator>>(vu8 a, int s) noexcept {
    vu8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] >> s;
    return r;
  }
  vu8 operator~() const noexcept {
    vu8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = ~v[i];
    return r;
  }

  static vu8 eq(vu8 a, vu8 b) noexcept {
    vu8 r;
    for (std::size_t i = 0; i < kLanes; ++i) {
      r.v[i] = a.v[i] == b.v[i] ? ~0u : 0u;
    }
    return r;
  }
  static vu8 ge(vu8 a, vu8 b) noexcept {
    vu8 r;
    for (std::size_t i = 0; i < kLanes; ++i) {
      r.v[i] = a.v[i] >= b.v[i] ? ~0u : 0u;
    }
    return r;
  }
  static vu8 gt(vu8 a, vu8 b) noexcept {
    vu8 r;
    for (std::size_t i = 0; i < kLanes; ++i) {
      r.v[i] = a.v[i] > b.v[i] ? ~0u : 0u;
    }
    return r;
  }
  static vu8 select(vu8 mask, vu8 a, vu8 b) noexcept {
    return (mask & a) | (~mask & b);
  }

  vf8 as_float() const noexcept {
    vf8 r;
    for (std::size_t i = 0; i < kLanes; ++i) {
      r.v[i] = std::bit_cast<float>(v[i]);
    }
    return r;
  }
  static vu8 from_float(vf8 f) noexcept {
    vu8 r;
    for (std::size_t i = 0; i < kLanes; ++i) {
      r.v[i] = std::bit_cast<std::uint32_t>(f.v[i]);
    }
    return r;
  }

  bool any() const noexcept {
    std::uint32_t folded = 0;
    for (std::size_t i = 0; i < kLanes; ++i) folded |= v[i];
    return folded != 0;
  }
};

#endif  // CUMF_SIMD_VEXT

}  // namespace cumf::simd
