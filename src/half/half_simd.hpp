// Vectorized FP16 ⇄ FP32 conversion for the hot paths.
//
// The CG-FP16 solver reads f² halves per matvec and the fp16_staging mode of
// get_hermitian rounds every staged θ element through binary16; both paths
// were previously elementwise calls into half::to_float / half::from_float.
// This header provides 8-wide branchless conversions on simd::vu8 lanes.
//
// The algorithms are the classic exponent-rebias tricks (Giesen,
// "float->half variants"): unpack shifts the half's exponent/mantissa into
// float position and rebias-adds (127−15)<<23, fixing up Inf/NaN with a
// second rebias and subnormals with an exact magic-number subtraction; pack
// uses the reverse rebias with an explicit round-to-nearest-even increment
// and a magic-addition for results that land in the subnormal half range.
// Both are exact: the differential tests check bitwise equality against the
// scalar `half` class over every 16-bit pattern (unpack / round-trip) and
// over random + boundary floats (pack), including NaN payload propagation.
//
// When the compiler targets F16C (vector-extension backend built with
// -march=native on an x86-64 host that has it), both directions use the
// hardware conversions vcvtph2ps / vcvtps2ph (round to nearest even)
// instead. The pack is bit-identical to half::from_float as is; the unpack
// differs only on signalling-NaN inputs, which the hardware quiets, so a
// one-mask fix-up clears the quiet bit again on exactly those lanes.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "half/half.hpp"
#include "simd/vec.hpp"

#if CUMF_SIMD_VEXT && defined(__F16C__)
#include <immintrin.h>
#define CUMF_HALF_F16C 1
#else
#define CUMF_HALF_F16C 0
#endif

namespace cumf {

/// Converts 8 packed half-bit patterns to 8 floats.
inline simd::vf8 half_to_float8(const half* src) noexcept {
  using simd::vu8;
  // half is a single uint16_t; reinterpret the array as raw bit patterns.
  const vu8 h = vu8::load_u16(reinterpret_cast<const std::uint16_t*>(src));
#if CUMF_HALF_F16C
  __m128i raw;
  std::memcpy(&raw, src, sizeof(raw));
  const vu8 o = vu8::from_float(
      {std::bit_cast<simd::f32x8>(_mm256_cvtph_ps(raw))});
  // NaN lanes (|h| > 0x7C00) must carry the half's own bit 9 in float bit
  // 22; the hardware forces it to 1. Clearing it where h has it clear
  // restores the signalling NaNs and leaves every other lane untouched.
  const vu8 nan =
      vu8::gt(h & vu8::broadcast(0x7FFFu), vu8::broadcast(0x7C00u));
  const vu8 quieted = nan & ~(h << 13) & vu8::broadcast(0x00400000u);
  return (o & ~quieted).as_float();
#else
  const vu8 sign = (h & vu8::broadcast(0x8000u)) << 16;
  vu8 o = (h & vu8::broadcast(0x7FFFu)) << 13;
  const vu8 exp = o & vu8::broadcast(0x0F800000u);  // 0x7C00 << 13

  // Rebias 15 → 127; Inf/NaN need the exponent field topped out, which is
  // exactly one more rebias of the same size ((255−31)−(127−15) = 112).
  o = o + vu8::broadcast(0x38000000u);
  const vu8 infnan = vu8::eq(exp, vu8::broadcast(0x0F800000u));
  o = o + (infnan & vu8::broadcast(0x38000000u));

  // Zero/subnormal: bump the exponent to 2^-14 and subtract 2^-14; the
  // subtraction is Sterbenz-exact, yielding frac·2^-24 (and ±0 for zero).
  const vu8 tiny = vu8::eq(exp, vu8::broadcast(0u));
  const simd::vf8 sub_f =
      (o + vu8::broadcast(0x00800000u)).as_float() -
      simd::vf8::broadcast(0x1.0p-14f);
  o = vu8::select(tiny, vu8::from_float(sub_f), o);

  return (o | sign).as_float();
#endif
}

/// half_to_float8 for callers that widen the floats to double straight
/// away (the CG-FP16 gemv). The F16C conversion hands back signalling NaNs
/// already quieted, which the float→double widening does to them anyway, so
/// every widened value is bitwise the same without the fix-up. Without
/// F16C this is half_to_float8.
inline simd::vf8 half_to_float8_widening(const half* src) noexcept {
#if CUMF_HALF_F16C
  __m128i raw;
  std::memcpy(&raw, src, sizeof(raw));
  return {std::bit_cast<simd::f32x8>(_mm256_cvtph_ps(raw))};
#else
  return half_to_float8(src);
#endif
}

/// Converts 8 packed floats to 8 half-bit patterns with round-to-nearest-
/// even, writing the raw uint16 patterns to `dst`.
inline void float_to_half8(simd::vf8 src, std::uint16_t* dst) noexcept {
#if CUMF_HALF_F16C
  const __m128i packed = _mm256_cvtps_ph(std::bit_cast<__m256>(src.v),
                                         _MM_FROUND_TO_NEAREST_INT);
  std::memcpy(dst, &packed, sizeof(packed));
#else
  using simd::vu8;
  vu8 u = vu8::from_float(src);
  const vu8 sign16 = (u & vu8::broadcast(0x80000000u)) >> 16;
  u = u & vu8::broadcast(0x7FFFFFFFu);

  // Inf/NaN/overflow (|x| ≥ 2^16): Inf and values that round past the half
  // range become 0x7C00; NaN keeps its quiet bit and top payload bits,
  // matching half::from_float.
  const vu8 infnan = vu8::ge(u, vu8::broadcast(0x47800000u));
  const vu8 nan = vu8::gt(u, vu8::broadcast(0x7F800000u));
  const vu8 payload =
      vu8::broadcast(0x0200u) | ((u & vu8::broadcast(0x007FFFFFu)) >> 13);
  const vu8 o_infnan = vu8::broadcast(0x7C00u) | (nan & payload);

  // Subnormal-or-zero results (|x| < 2^-14): adding 0.5f aligns the result
  // in the low mantissa bits with correct RNE; subtracting the magic's bit
  // pattern leaves the half's subnormal bits.
  const vu8 tiny = vu8::gt(vu8::broadcast(113u << 23), u);
  const vu8 magic = vu8::broadcast(126u << 23);  // 0.5f
  const vu8 o_tiny =
      vu8::from_float(u.as_float() + magic.as_float()) - magic;

  // Normal results: rebias 127 → 15 and round to nearest even on bit 13
  // (add 0xFFF plus the pre-round odd bit, then truncate).
  const vu8 mant_odd = (u >> 13) & vu8::broadcast(1u);
  vu8 o_norm = u - vu8::broadcast(0x38000000u);  // (127-15) << 23
  o_norm = o_norm + vu8::broadcast(0x0FFFu) + mant_odd;
  o_norm = o_norm >> 13;

  const vu8 o = vu8::select(infnan, o_infnan, vu8::select(tiny, o_tiny, o_norm));
  (o | sign16).store_u16(dst);
#endif
}

inline void float_to_half8(const float* src, std::uint16_t* dst) noexcept {
  float_to_half8(simd::vf8::load(src), dst);
}

/// Widens `n` halves into floats. The SIMD path and the scalar path are
/// bitwise identical (conversion is exact), so this dispatches freely.
inline void half_to_float_n(const half* src, float* dst, std::size_t n,
                            simd::KernelPath path) noexcept {
  std::size_t i = 0;
  if (path == simd::KernelPath::simd) {
    for (; i + 8 <= n; i += 8) {
      half_to_float8(src + i).store(dst + i);
    }
  }
  for (; i < n; ++i) {
    dst[i] = static_cast<float>(src[i]);
  }
}

/// Rounds `n` floats through binary16 and back (the fp16_staging transform:
/// Tensor-Core input precision, FP32 accumulate).
inline void round_through_half_n(const float* src, float* dst, std::size_t n,
                                 simd::KernelPath path) noexcept {
  std::size_t i = 0;
  if (path == simd::KernelPath::simd) {
    std::uint16_t bits[8];
    for (; i + 8 <= n; i += 8) {
      float_to_half8(src + i, bits);
      half_to_float8(reinterpret_cast<const half*>(bits)).store(dst + i);
    }
  }
  for (; i < n; ++i) {
    dst[i] = static_cast<float>(half(src[i]));
  }
}

/// Narrows `n` floats to half storage (the CG-FP16 A conversion).
inline void float_to_half_n(const float* src, half* dst, std::size_t n,
                            simd::KernelPath path) noexcept {
  std::size_t i = 0;
  if (path == simd::KernelPath::simd) {
    for (; i + 8 <= n; i += 8) {
      float_to_half8(src + i, reinterpret_cast<std::uint16_t*>(dst + i));
    }
  }
  for (; i < n; ++i) {
    dst[i] = half(src[i]);
  }
}

}  // namespace cumf
