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

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

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

/// Transposing load of an 8×8 block: cols[k].lane(l) = rows[l][k]. Pure
/// data movement, so bitwise exact. The 128-bit exchange is done by the
/// loads (each register takes its upper half straight from memory), which
/// leaves 16 in-register shuffles instead of 24.
inline void load_transposed8(const float* const (&rows)[8],
                             vf8 (&cols)[8]) noexcept {
  using f32x4 = float __attribute__((vector_size(16)));
  const auto half_pair = [&](int lo, int hi, int k0) {
    f32x4 a;
    f32x4 b;
    std::memcpy(&a, rows[lo] + k0, sizeof(a));
    std::memcpy(&b, rows[hi] + k0, sizeof(b));
    return f32x8{__builtin_shufflevector(a, b, 0, 1, 2, 3, 4, 5, 6, 7)};
  };
#pragma GCC unroll 2
  for (int k0 = 0; k0 < 8; k0 += 4) {
    // Row l's elements k0..k0+3 in the low half, row l+4's in the high.
    const f32x8 b0 = half_pair(0, 4, k0);
    const f32x8 b1 = half_pair(1, 5, k0);
    const f32x8 b2 = half_pair(2, 6, k0);
    const f32x8 b3 = half_pair(3, 7, k0);
    const f32x8 t0 = __builtin_shufflevector(b0, b1, 0, 8, 1, 9, 4, 12, 5, 13);
    const f32x8 t1 =
        __builtin_shufflevector(b0, b1, 2, 10, 3, 11, 6, 14, 7, 15);
    const f32x8 t2 = __builtin_shufflevector(b2, b3, 0, 8, 1, 9, 4, 12, 5, 13);
    const f32x8 t3 =
        __builtin_shufflevector(b2, b3, 2, 10, 3, 11, 6, 14, 7, 15);
    cols[k0].v = __builtin_shufflevector(t0, t2, 0, 1, 8, 9, 4, 5, 12, 13);
    cols[k0 + 1].v =
        __builtin_shufflevector(t0, t2, 2, 3, 10, 11, 6, 7, 14, 15);
    cols[k0 + 2].v = __builtin_shufflevector(t1, t3, 0, 1, 8, 9, 4, 5, 12, 13);
    cols[k0 + 3].v =
        __builtin_shufflevector(t1, t3, 2, 3, 10, 11, 6, 7, 14, 15);
  }
}

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
#if defined(__AVX512F__)
    // One vcvtps2pd zmm; GCC lowers the generic conversion to two ymm
    // halves plus an insert. (The all-lanes zero-masking form, because the
    // unmasked intrinsic trips GCC 12's -Wmaybe-uninitialized.)
    return {std::bit_cast<f64x8>(
        _mm512_maskz_cvtps_pd(0xFF, std::bit_cast<__m256>(a.v)))};
#else
    return {__builtin_convertvector(a.v, f64x8)};
#endif
  }
  /// acc += widen(a) * widen(b), one exact product per lane.
  void mul_acc(vf8 a, vf8 b) noexcept { v += widen(a).v * widen(b).v; }
  /// Same with a pre-widened left operand — hoists a's conversion out of
  /// loops that reuse it across many right operands (e.g. gemv rows).
  void mul_acc(vd8 a_wide, vf8 b) noexcept { v += a_wide.v * widen(b).v; }

  friend vd8 operator+(vd8 a, vd8 b) noexcept { return {a.v + b.v}; }
  /// Every lane rounded to float (round to nearest even, as a cast).
  vf8 narrow() const noexcept { return {__builtin_convertvector(v, f32x8)}; }
  double lane(std::size_t i) const noexcept { return v[i]; }

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
  /// Lanewise unsigned minimum.
  static vu8 min(vu8 a, vu8 b) noexcept { return {a.v < b.v ? a.v : b.v}; }

  vf8 as_float() const noexcept { return {std::bit_cast<f32x8>(v)}; }
  static vu8 from_float(vf8 f) noexcept { return {std::bit_cast<u32x8>(f.v)}; }

  std::uint32_t lane(std::size_t i) const noexcept { return v[i]; }
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

inline void load_transposed8(const float* const (&rows)[8],
                             vf8 (&cols)[8]) noexcept {
  for (std::size_t k = 0; k < 8; ++k) {
    for (std::size_t l = 0; l < 8; ++l) {
      cols[k].v[l] = rows[l][k];
    }
  }
}

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
  friend vd8 operator+(vd8 a, vd8 b) noexcept {
    vd8 r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  vf8 narrow() const noexcept {
    vf8 r;
    for (std::size_t i = 0; i < kLanes; ++i) {
      r.v[i] = static_cast<float>(v[i]);
    }
    return r;
  }
  double lane(std::size_t i) const noexcept { return v[i]; }
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
  static vu8 min(vu8 a, vu8 b) noexcept {
    vu8 r;
    for (std::size_t i = 0; i < kLanes; ++i) {
      r.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
    }
    return r;
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

  std::uint32_t lane(std::size_t i) const noexcept { return v[i]; }
};

#endif  // CUMF_SIMD_VEXT

}  // namespace cumf::simd
