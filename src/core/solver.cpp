#include "core/solver.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "common/check.hpp"
#include "half/half_simd.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "simd/vec.hpp"

namespace cumf {

const char* to_string(SolverKind kind) {
  switch (kind) {
    case SolverKind::LuFp32:
      return "LU-FP32";
    case SolverKind::CholeskyFp32:
      return "Cholesky-FP32";
    case SolverKind::CgFp32:
      return "CG-FP32";
    case SolverKind::CgFp16:
      return "CG-FP16";
    case SolverKind::PcgFp32:
      return "PCG-FP32";
  }
  return "unknown";
}

const char* solver_cli_name(SolverKind kind) {
  switch (kind) {
    case SolverKind::LuFp32:
      return "lu";
    case SolverKind::CholeskyFp32:
      return "cholesky";
    case SolverKind::CgFp32:
      return "cg";
    case SolverKind::CgFp16:
      return "cg16";
    case SolverKind::PcgFp32:
      return "pcg";
  }
  return "unknown";
}

std::optional<SolverKind> solver_from_cli_name(std::string_view name) {
  if (name == "lu") {
    return SolverKind::LuFp32;
  }
  if (name == "cholesky") {
    return SolverKind::CholeskyFp32;
  }
  if (name == "cg") {
    return SolverKind::CgFp32;
  }
  if (name == "cg16") {
    return SolverKind::CgFp16;
  }
  if (name == "pcg") {
    return SolverKind::PcgFp32;
  }
  return std::nullopt;
}

namespace {

bool all_finite(std::span<const real_t> v) noexcept {
  for (const real_t e : v) {
    if (!std::isfinite(e)) {
      return false;
    }
  }
  return true;
}

/// A partial batch costs about as much as a full one, and one system alone
/// about a sixth to a quarter of a full batch (f = 32..100): a batch with
/// at most half its lanes filled is solved one system at a time.
constexpr bool batch_pays_off(std::size_t count) noexcept {
  return 2 * count > kCgBatch;
}

// The two rules an FP16 pack of A must pass (fp16_pack_ok, pack_batch).
//
// Overflow: half max is 65504, and a heavy row's hermitian diagonal (which
// grows with nnz_u) can exceed it even though the FP32 value is fine. The
// pack of a finite float is ±inf exactly when 65520 ≤ |x| (65520 lies
// halfway between 65504 and 2^16, and round to nearest even goes up).
// With the key bits(|x|) − bits(65520) in unsigned arithmetic, the finite
// |x| ≥ 65520 are exactly the keys below kOverflowSpan (inf and NaN land at
// or above it), so a running minimum of keys decides without a compare per
// element.
constexpr std::uint32_t kOverflowFrom = 0x477FF000u;  // bits of 65520.0f
constexpr std::uint32_t kOverflowSpan = 0x7F800000u - kOverflowFrom;

std::uint32_t overflow_key(real_t x) noexcept {
  return (std::bit_cast<std::uint32_t>(x) & 0x7FFFFFFFu) - kOverflowFrom;
}

simd::vu8 overflow_key8(simd::vf8 x) noexcept {
  using simd::vu8;
  return (vu8::from_float(x) & vu8::broadcast(0x7FFFFFFFu)) -
         vu8::broadcast(kOverflowFrom);
}

/// Flush: a nonzero diagonal packed to zero (|a| < 2^-25) silently
/// destroys the ridge that keeps A SPD.
bool diagonal_flushed(real_t a, half h) noexcept {
  return a != 0.0f && (h.bits() & 0x7FFFu) == 0;
}

}  // namespace

SystemSolver::SystemSolver(std::size_t f, const SolverOptions& options)
    : f_(f), options_(options) {
  CUMF_EXPECTS(f_ > 0, "latent dimension must be positive");
  CUMF_EXPECTS(options_.cg_fs > 0, "CG needs at least one iteration");
  // Every kind carries the exact-LU scratch: for the approximate kinds it
  // is the breakdown fallback path, not just the primary solver.
  scratch_fp32_.resize(f_ * f_);
  pivots_.resize(f_);
  backup_.resize(f_);
  if (options_.kind == SolverKind::CgFp16) {
    scratch_fp16_.resize(f_ * f_);
  }
}

std::size_t SystemSolver::batch_width() const noexcept {
  const bool cg = options_.kind == SolverKind::CgFp32 ||
                  options_.kind == SolverKind::CgFp16;
  return cg && options_.path == simd::KernelPath::simd ? kCgBatch : 1;
}

bool SystemSolver::solve_exact(std::span<const real_t> a,
                               std::span<const real_t> b, std::span<real_t> x,
                               bool via_cholesky) {
  std::copy(a.begin(), a.end(), scratch_fp32_.begin());
  bool ok;
  if (via_cholesky) {
    ok = cholesky_factor(f_, scratch_fp32_);
    if (ok) {
      cholesky_solve(f_, scratch_fp32_, b, x);
    }
  } else {
    ok = lu_factor(f_, scratch_fp32_, pivots_);
    if (ok) {
      lu_solve(f_, scratch_fp32_, pivots_, b, x);
    }
  }
  // A factorization can "succeed" on a corrupted or nearly singular system
  // and still emit inf/NaN; a non-finite factor must never escape.
  if (ok && !all_finite(x)) {
    ok = false;
  }
  if (!ok) {
    std::copy(backup_.begin(), backup_.end(), x.begin());
    ++stats_.failures;
  }
  return ok;
}

template <typename T>
bool SystemSolver::solve_cg(std::span<const T> a,
                            std::span<const real_t> a_exact,
                            std::span<const real_t> b, std::span<real_t> x,
                            bool preconditioned) {
  CgResult result;
  bool usable = true;
  if (preconditioned) {
    // Jacobi needs a strictly positive finite diagonal; pcg_solve treats a
    // violation as a precondition error, so screen it here and degrade.
    for (std::size_t i = 0; i < f_ && usable; ++i) {
      const float d = load_as_float(a[i * f_ + i]);
      usable = std::isfinite(d) && d > 0.0f;
    }
    if (usable) {
      result = pcg_solve<T>(f_, a, b, x, options_.cg_fs, options_.cg_eps,
                            options_.path);
    }
  } else {
    result = cg_solve<T>(f_, a, b, x, options_.cg_fs, options_.cg_eps,
                         options_.path);
  }
  if (usable && !result.breakdown && all_finite(x)) {
    stats_.record_cg(result.iterations);
    return true;
  }
  return fall_back_to_lu(a_exact, b, x);
}

bool SystemSolver::fall_back_to_lu(std::span<const real_t> a_exact,
                                   std::span<const real_t> b,
                                   std::span<real_t> x) {
  // Degradation: the truncated-CG iterate is not trustworthy. Restore the
  // warm start and solve the same system with the exact LU path (LU handles
  // the indefinite matrices that break CG; a non-finite system fails there
  // too and is reported as a failure).
  ++stats_.cg_fallbacks;
  std::copy(backup_.begin(), backup_.end(), x.begin());
  return solve_exact(a_exact, b, x, /*via_cholesky=*/false);
}

bool SystemSolver::fp16_pack_ok(std::span<const real_t> a) const noexcept {
  // The overflow rule reads only the FP32 source, 8 lanes at a time; the
  // flush rule compares the f packed diagonal entries.
  simd::vu8 key8 = simd::vu8::broadcast(~0u);
  std::size_t i = 0;
  for (; i + 8 <= a.size(); i += 8) {
    key8 = simd::vu8::min(key8, overflow_key8(simd::vf8::load(a.data() + i)));
  }
  std::uint32_t key = ~0u;
  for (std::size_t l = 0; l < simd::vu8::kLanes; ++l) {
    key = std::min(key, key8.lane(l));
  }
  for (; i < a.size(); ++i) {
    key = std::min(key, overflow_key(a[i]));
  }
  bool bad = key < kOverflowSpan;
  for (std::size_t d = 0; d < f_; ++d) {
    const std::size_t k = d * f_ + d;
    bad |= diagonal_flushed(a[k], scratch_fp16_[k]);
  }
  return !bad;
}

template <typename T>
std::uint32_t SystemSolver::pack_batch(std::size_t count, const real_t* a,
                                       T* out) {
  using simd::vf8;
  using simd::vu8;
  constexpr bool kHalf = std::is_same_v<T, half>;
  const std::size_t ff = f_ * f_;
  // Lane l of key_min is system l's running minimum overflow key.
  vu8 key_min = vu8::broadcast(~0u);
  const auto store = [&](std::size_t e, vf8 column) {
    if constexpr (kHalf) {
      float_to_half8(column,
                     reinterpret_cast<std::uint16_t*>(out + e * kCgBatch));
      key_min = vu8::min(key_min, overflow_key8(column));
    } else {
      column.store(out + e * kCgBatch);
    }
  };
  // 8×8 blocks of the flattened matrices: row l of a block is elements
  // [e, e+8) of system l (a zero row for lanes past count), and its
  // transpose is those 8 elements interleaved.
  static constexpr float kZeros[8] = {};
  const std::size_t body = ff - ff % 8;
  for (std::size_t e = 0; e < body; e += 8) {
    const float* rows[kCgBatch];
#pragma GCC unroll 8
    for (std::size_t l = 0; l < kCgBatch; ++l) {
      rows[l] = l < count ? a + l * ff + e : kZeros;
    }
    vf8 cols[kCgBatch];
    simd::load_transposed8(rows, cols);
#pragma GCC unroll 8
    for (std::size_t k = 0; k < 8; ++k) {
      store(e + k, cols[k]);
    }
  }
  for (std::size_t e = body; e < ff; ++e) {
    float column[kCgBatch] = {};
    for (std::size_t l = 0; l < count; ++l) {
      column[l] = a[l * ff + e];
    }
    store(e, vf8::load(column));
  }
  std::uint32_t ok = 0;
  for (std::size_t l = 0; l < count; ++l) {
    bool lane_bad = false;
    if constexpr (kHalf) {
      lane_bad = key_min.lane(l) < kOverflowSpan;
      for (std::size_t d = 0; d < f_ && !lane_bad; ++d) {
        const std::size_t k = d * f_ + d;
        lane_bad = diagonal_flushed(a[l * ff + k], out[k * kCgBatch + l]);
      }
    }
    ok |= lane_bad ? 0u : 1u << l;
  }
  return ok;
}

std::uint32_t SystemSolver::solve_batch(
    std::size_t count, std::span<const real_t> a, std::span<const real_t> b,
    std::span<const std::span<real_t>> x) {
  const std::size_t ff = f_ * f_;
  CUMF_EXPECTS(count >= 1 && count <= batch_width(),
               "batch: count must be in [1, batch_width()]");
  CUMF_EXPECTS(a.size() >= count * ff && b.size() >= count * f_ &&
                   x.size() == count,
               "batch: A, b or x too short for the batch");
  std::uint32_t ok = 0;
  if (!batch_pays_off(count)) {
    for (std::size_t l = 0; l < count; ++l) {
      const bool lane_ok = solve(a.subspan(l * ff, ff), b.subspan(l * f_, f_),
                                 x[l]);
      ok |= lane_ok ? 1u << l : 0u;
    }
    return ok;
  }
  for (std::size_t l = 0; l < count; ++l) {
    CUMF_EXPECTS(x[l].size() == f_, "vector size mismatch");
  }
  const bool fp16 = options_.kind == SolverKind::CgFp16;
  if (batch_b_.empty()) {
    // Sized on first use: serve and implicit ALS hold a CG solver too but
    // only ever call solve().
    if (fp16) {
      batch_a16_.resize(kCgBatch * f_ * f_);
    } else {
      batch_a32_.resize(kCgBatch * f_ * f_);
    }
    batch_b_.resize(kCgBatch * f_);
    batch_x_.resize(kCgBatch * f_);
    batch_ws_.prepare(f_);
  }
  stats_.systems += count;
  std::uint32_t packed;
  if (fp16) {
    packed = pack_batch(count, a.data(), batch_a16_.data());
    stats_.fp16_converted += count * ff;
  } else {
    packed = pack_batch(count, a.data(), batch_a32_.data());
  }
  for (std::size_t i = 0; i < f_; ++i) {
    for (std::size_t l = 0; l < kCgBatch; ++l) {
      const bool used = l < count;
      batch_b_[i * kCgBatch + l] = used ? b[l * f_ + i] : real_t{0};
      batch_x_[i * kCgBatch + l] = used ? x[l][i] : real_t{0};
    }
  }

  CgResult results[kCgBatch];
  if (fp16) {
    cg_solve_batch(f_, batch_a16_.data(), batch_b_.data(), batch_x_.data(),
                   packed, options_.cg_fs, options_.cg_eps, batch_ws_,
                   results);
  } else {
    cg_solve_batch(f_, batch_a32_.data(), batch_b_.data(), batch_x_.data(),
                   packed, options_.cg_fs, options_.cg_eps, batch_ws_,
                   results);
  }

  for (std::size_t l = 0; l < count; ++l) {
    const std::span<const real_t> a_l = a.subspan(l * ff, ff);
    const std::span<const real_t> b_l = b.subspan(l * f_, f_);
    const std::span<real_t> x_l = x[l];
    bool lane_ok;
    if ((packed >> l & 1u) == 0) {
      // The same retry solve() makes: A kept in FP32, single system.
      std::copy(x_l.begin(), x_l.end(), backup_.begin());
      ++stats_.fp16_fallbacks;
      lane_ok = solve_cg<float>(a_l, a_l, b_l, x_l, /*preconditioned=*/false);
    } else {
      bool finite = !results[l].breakdown;
      for (std::size_t i = 0; i < f_ && finite; ++i) {
        finite = std::isfinite(batch_x_[i * kCgBatch + l]);
      }
      if (finite) {
        stats_.record_cg(results[l].iterations);
        for (std::size_t i = 0; i < f_; ++i) {
          x_l[i] = batch_x_[i * kCgBatch + l];
        }
        lane_ok = true;
      } else {
        // x_l still holds the warm start: the batch wrote only batch_x_.
        std::copy(x_l.begin(), x_l.end(), backup_.begin());
        lane_ok = fall_back_to_lu(a_l, b_l, x_l);
      }
    }
    ok |= lane_ok ? 1u << l : 0u;
  }
  return ok;
}

bool SystemSolver::solve(std::span<const real_t> a,
                         std::span<const real_t> b, std::span<real_t> x) {
  CUMF_EXPECTS(a.size() == f_ * f_, "A must be f*f");
  CUMF_EXPECTS(b.size() == f_ && x.size() == f_, "vector size mismatch");
  ++stats_.systems;
  std::copy(x.begin(), x.end(), backup_.begin());

  switch (options_.kind) {
    case SolverKind::LuFp32:
      return solve_exact(a, b, x, /*via_cholesky=*/false);
    case SolverKind::CholeskyFp32:
      return solve_exact(a, b, x, /*via_cholesky=*/true);
    case SolverKind::CgFp32:
      return solve_cg<float>(a, a, b, x, /*preconditioned=*/false);
    case SolverKind::PcgFp32:
      return solve_cg<float>(a, a, b, x, /*preconditioned=*/true);
    case SolverKind::CgFp16: {
      // Store A in half precision — the read side of every CG matvec then
      // moves half the bytes (Solution 4). b and x stay FP32.
      float_to_half_n(a.data(), scratch_fp16_.data(), a.size(),
                      options_.path);
      stats_.fp16_converted += a.size();
      if (!fp16_pack_ok(a)) {
        // Overflow/underflow in the pack: retry this system with A kept in
        // FP32 (the paper's Solution 3 path) rather than solving a wrong
        // system fast.
        ++stats_.fp16_fallbacks;
        return solve_cg<float>(a, a, b, x, /*preconditioned=*/false);
      }
      return solve_cg<half>(std::span<const half>(scratch_fp16_), a, b, x,
                            /*preconditioned=*/false);
    }
  }
  CUMF_ENSURES(false, "unreachable solver kind");
  return false;
}

}  // namespace cumf
