// Batched truncated CG: up to eight SPD systems at once, one per lane.
//
// The paper's `solve` step is a batched CG (one system per thread block,
// thousands in flight). cg_solve runs one system at a time, and every gemv
// row and dot product there ends in a horizontal lane sum and a short
// sequential tail, so a single host solve is latency-bound. Here each of
// the eight double lanes of simd::vd8 carries a different system: A is
// stored interleaved as A[i][j][lane] and every vector as v[i][lane], so a
// gemv row or a dot product is a vertical multiply-add across the systems,
// with no horizontal sum.
//
// Bits are kept: every lane replays cg_solve's SIMD-path arithmetic
// exactly. A gemv row (and a dot product) keeps the partial sums of the
// elements j ≡ k (mod 8) in eight accumulators, combines them in vd8::hsum's
// tree ((s0+s2)+(s1+s3))+((s4+s6)+(s5+s7)), and then adds the n mod 8 tail
// in sequence; α and β are computed per lane in double and rounded to float
// before the fused x/r/p updates. A lane that is done (converged, broken
// down, or not in the batch) is frozen by a blend rather than by a zero
// step, so its x keeps its bits (−0.0 stays −0.0, NaN never spreads).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "linalg/cg.hpp"
#include "simd/vec.hpp"

namespace cumf {

/// Systems per batch: one per double lane of simd::vd8.
inline constexpr std::size_t kCgBatch = 8;

/// Interleaved CG vectors of one batch ([i][lane], n·kCgBatch floats each)
/// plus the widened copy of the gemv input. Sized once per solver.
struct CgBatchWorkspace {
  void prepare(std::size_t n) {
    r.assign(n * kCgBatch, real_t{0});
    p.assign(n * kCgBatch, real_t{0});
    ap.assign(n * kCgBatch, real_t{0});
    in_wide.assign(n, simd::vd8::zero());
  }
  std::vector<real_t> r;
  std::vector<real_t> p;
  std::vector<real_t> ap;
  std::vector<simd::vd8> in_wide;
};

namespace detail {

/// The eight partial sums combined lanewise in vd8::hsum's order.
inline simd::vd8 hsum_tree(const simd::vd8 (&s)[8]) noexcept {
  return ((s[0] + s[2]) + (s[1] + s[3])) + ((s[4] + s[6]) + (s[5] + s[7]));
}

/// All-ones in the lanes whose bit is set in `lanes`.
inline simd::vu8 lane_mask(std::uint32_t lanes) noexcept {
  static constexpr std::uint16_t kBit[kCgBatch] = {1,  2,  4,  8,
                                                   16, 32, 64, 128};
  const simd::vu8 bit = simd::vu8::load_u16(kBit);
  return simd::vu8::eq(simd::vu8::broadcast(lanes) & bit, bit);
}

/// mask ? a : b, bitwise.
inline simd::vf8 blend(simd::vu8 mask, simd::vf8 a, simd::vf8 b) noexcept {
  return simd::vu8::select(mask, simd::vu8::from_float(a),
                           simd::vu8::from_float(b))
      .as_float();
}

/// out = A·in for every lane: the batched form of gemv's SIMD path.
template <typename T>
void gemv_batch(std::size_t n, const T* a, const real_t* in,
                simd::vd8* in_wide, real_t* out) {
  for (std::size_t j = 0; j < n; ++j) {
    in_wide[j] = simd::vd8::widen(simd::vf8::load(in + j * kCgBatch));
  }
  const std::size_t body = n - n % 8;
  for (std::size_t i = 0; i < n; ++i) {
    const T* row = a + i * n * kCgBatch;
    simd::vd8 s[8];
#pragma GCC unroll 8
    for (auto& acc : s) {
      acc = simd::vd8::zero();
    }
    for (std::size_t j = 0; j < body; j += 8) {
#pragma GCC unroll 8
      for (std::size_t k = 0; k < 8; ++k) {
        s[k].mul_acc(in_wide[j + k], load8(row + (j + k) * kCgBatch));
      }
    }
    simd::vd8 sum = hsum_tree(s);
    for (std::size_t j = body; j < n; ++j) {
      sum.mul_acc(in_wide[j], load8(row + j * kCgBatch));
    }
    sum.narrow().store(out + i * kCgBatch);
  }
}

/// Per-lane aᵀb: the batched form of dot_d's SIMD path.
inline simd::vd8 dot_batch(std::size_t n, const real_t* a,
                           const real_t* b) noexcept {
  simd::vd8 s[8];
#pragma GCC unroll 8
  for (auto& acc : s) {
    acc = simd::vd8::zero();
  }
  const std::size_t body = n - n % 8;
  for (std::size_t i = 0; i < body; i += 8) {
#pragma GCC unroll 8
    for (std::size_t k = 0; k < 8; ++k) {
      const std::size_t e = (i + k) * kCgBatch;
      s[k].mul_acc(simd::vf8::load(a + e), simd::vf8::load(b + e));
    }
  }
  simd::vd8 sum = hsum_tree(s);
  for (std::size_t i = body; i < n; ++i) {
    const std::size_t e = i * kCgBatch;
    sum.mul_acc(simd::vf8::load(a + e), simd::vf8::load(b + e));
  }
  return sum;
}

}  // namespace detail

/// cg_solve (SIMD path) for every lane l whose bit is set in `lanes`: A_l
/// is read from the interleaved `a` (element (i, j) of lane l at
/// a[(i·n + j)·kCgBatch + l]), b_l and the warm start x_l from b and x
/// ([i][lane]). results[l] and the bits of x_l are those cg_solve<T> would
/// give for that system alone. Lanes outside `lanes` keep x unchanged and
/// a default result; their A, b and x may hold anything finite.
template <typename T>
void cg_solve_batch(std::size_t n, const T* a, const real_t* b, real_t* x,
                    std::uint32_t lanes, std::uint32_t fs, real_t eps,
                    CgBatchWorkspace& ws, CgResult (&results)[kCgBatch]) {
  using simd::vd8;
  using simd::vf8;
  using simd::vu8;
  CUMF_EXPECTS(fs > 0, "cg: need at least one iteration");
  CUMF_EXPECTS(ws.in_wide.size() == n, "cg batch: workspace not prepared");
  real_t* r = ws.r.data();
  real_t* p = ws.p.data();
  real_t* ap = ws.ap.data();
  const std::size_t len = n * kCgBatch;
  const double eps_d = static_cast<double>(eps);

  for (CgResult& res : results) {
    res = CgResult{};
  }
  // r = b − A·x; p = r; rsold = rᵀr   (Algorithm 1, line 2)
  detail::gemv_batch(n, a, x, ws.in_wide.data(), r);
  for (std::size_t e = 0; e < len; ++e) {
    r[e] = b[e] - r[e];
    p[e] = r[e];
  }
  double rsold[kCgBatch] = {};
  std::uint32_t active = 0;
  const vd8 rs0 = detail::dot_batch(n, r, r);
  for (std::size_t l = 0; l < kCgBatch; ++l) {
    if ((lanes >> l & 1u) == 0) {
      continue;
    }
    rsold[l] = rs0.lane(l);
    results[l].residual_norm = std::sqrt(rsold[l]);
    if (!std::isfinite(rsold[l])) {
      results[l].breakdown = true;
    } else if (results[l].residual_norm < eps_d) {
      results[l].converged = true;
    } else {
      active |= 1u << l;
    }
  }

  for (std::uint32_t j = 0; j < fs && active != 0; ++j) {
    detail::gemv_batch(n, a, p, ws.in_wide.data(), ap);  // line 4
    const vd8 pap = detail::dot_batch(n, p, ap);
    float alpha[kCgBatch] = {};
    for (std::size_t l = 0; l < kCgBatch; ++l) {
      if ((active >> l & 1u) == 0) {
        continue;
      }
      if (!(pap.lane(l) > kCgBreakdownEps)) {
        results[l].breakdown = true;
        active &= ~(1u << l);
        continue;
      }
      alpha[l] = static_cast<real_t>(rsold[l] / pap.lane(l));
    }
    if (active == 0) {
      break;
    }
    const vu8 live = detail::lane_mask(active);
    const vf8 av = vf8::load(alpha);
    for (std::size_t e = 0; e < len; e += kCgBatch) {  // line 5
      const vf8 xe = vf8::load(x + e);
      const vf8 re = vf8::load(r + e);
      detail::blend(live, xe + av * vf8::load(p + e), xe).store(x + e);
      detail::blend(live, re - av * vf8::load(ap + e), re).store(r + e);
    }
    const vd8 rsnew = detail::dot_batch(n, r, r);  // line 6
    float beta[kCgBatch] = {};
    for (std::size_t l = 0; l < kCgBatch; ++l) {
      if ((active >> l & 1u) == 0) {
        continue;
      }
      const double rs = rsnew.lane(l);
      if (!std::isfinite(rs)) {
        results[l].breakdown = true;
        active &= ~(1u << l);
        continue;
      }
      ++results[l].iterations;
      results[l].residual_norm = std::sqrt(rs);
      if (results[l].residual_norm < eps_d) {  // line 7
        results[l].converged = true;
        active &= ~(1u << l);
        continue;
      }
      beta[l] = static_cast<real_t>(rs / rsold[l]);
      rsold[l] = rs;
    }
    if (active == 0) {
      break;
    }
    const vu8 moving = detail::lane_mask(active);
    const vf8 bv = vf8::load(beta);
    for (std::size_t e = 0; e < len; e += kCgBatch) {  // line 10
      const vf8 pe = vf8::load(p + e);
      detail::blend(moving, vf8::load(r + e) + bv * pe, pe).store(p + e);
    }
  }
}

}  // namespace cumf
