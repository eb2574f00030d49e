// Differential tests for the SIMD hot-path kernels (src/simd, src/half,
// linalg dense/CG, core hermitian).
//
// Contract under test (see src/simd/vec.hpp): elementwise kernels and the
// FP16 conversions are *bitwise* identical between the scalar and SIMD
// paths; reduction kernels (dot, gemv inside CG) accumulate in double on
// both paths and may differ only by lane reassociation of exactly-
// representable products, so they are compared with tight tolerances.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/als.hpp"
#include "core/hermitian.hpp"
#include "data/generator.hpp"
#include "half/half.hpp"
#include "half/half_simd.hpp"
#include "linalg/cg.hpp"
#include "linalg/dense.hpp"
#include "simd/vec.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace cumf {
namespace {

std::vector<real_t> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real_t> v(n);
  for (auto& x : v) {
    x = static_cast<real_t>(rng.normal());
  }
  return v;
}

// ---------- vec.hpp basics ----------

TEST(SimdVec, LoadStoreRoundTripsUnaligned) {
  alignas(64) float buf[17];
  for (int i = 0; i < 17; ++i) {
    buf[i] = static_cast<float>(i) * 0.5f;
  }
  // Deliberately misaligned source (buf+1 is 4-byte aligned only).
  const simd::vf8 v = simd::vf8::load(buf + 1);
  float out[8];
  v.store(out);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i], buf[i + 1]);
    EXPECT_EQ(v.lane(i), buf[i + 1]);
  }
}

TEST(SimdVec, ArithmeticMatchesScalarLanewise) {
  const auto a = random_vec(8, 1);
  const auto b = random_vec(8, 2);
  const auto va = simd::vf8::load(a.data());
  const auto vb = simd::vf8::load(b.data());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ((va + vb).lane(i), a[i] + b[i]);
    EXPECT_EQ((va - vb).lane(i), a[i] - b[i]);
    EXPECT_EQ((va * vb).lane(i), a[i] * b[i]);
  }
  EXPECT_EQ(simd::vf8::broadcast(3.25f).lane(5), 3.25f);
  EXPECT_EQ(simd::vf8::zero().lane(7), 0.0f);
}

TEST(SimdVec, DoubleAccumulatorSumsExactProducts) {
  const auto a = random_vec(8, 3);
  const auto b = random_vec(8, 4);
  simd::vd8 acc = simd::vd8::zero();
  acc.mul_acc(simd::vf8::load(a.data()), simd::vf8::load(b.data()));
  // Each float×float product widened to double is exact, so the hsum must
  // equal the sequential double sum up to reassociation — which for 8 exact
  // terms of similar magnitude is below 1 double ulp of the total here.
  double expect = 0.0;
  for (int i = 0; i < 8; ++i) {
    expect += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  EXPECT_NEAR(acc.hsum(), expect, std::abs(expect) * 1e-15 + 1e-300);
}

// ---------- FP16 conversions ----------

TEST(SimdHalf, UnpackMatchesScalarForEveryPattern) {
  // All 65536 half bit patterns, 8 at a time: the SIMD unpack must produce
  // bit-identical floats to half::to_float, including every NaN payload,
  // ±Inf, ±0 and all subnormals.
  for (std::uint32_t base = 0; base < 0x10000; base += 8) {
    std::uint16_t bits[8];
    half src[8];
    for (std::uint32_t i = 0; i < 8; ++i) {
      bits[i] = static_cast<std::uint16_t>(base + i);
      src[i] = half::from_bits(bits[i]);
    }
    float out[8];
    half_to_float8(src).store(out);
    for (std::uint32_t i = 0; i < 8; ++i) {
      const float ref = half::to_float(bits[i]);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                std::bit_cast<std::uint32_t>(ref))
          << "half bits 0x" << std::hex << bits[i];
    }
  }
}

TEST(SimdHalf, WideningUnpackMatchesScalarOnceWidenedToDouble) {
  // The CG gemv's unpack may leave signalling NaNs quiet because it widens
  // every lane to double next; after that widening all 65536 patterns must
  // give bitwise the doubles of half::to_float.
  for (std::uint32_t base = 0; base < 0x10000; base += 8) {
    std::uint16_t bits[8];
    half src[8];
    for (std::uint32_t i = 0; i < 8; ++i) {
      bits[i] = static_cast<std::uint16_t>(base + i);
      src[i] = half::from_bits(bits[i]);
    }
    float out[8];
    half_to_float8_widening(src).store(out);
    for (std::uint32_t i = 0; i < 8; ++i) {
      const double ref = half::to_float(bits[i]);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(static_cast<double>(out[i])),
                std::bit_cast<std::uint64_t>(ref))
          << "half bits 0x" << std::hex << bits[i];
    }
  }
}

TEST(SimdHalf, PackMatchesScalarOnRandomBitPatterns) {
  // Uniformly random float bit patterns cover normals, subnormals, ±Inf and
  // NaNs (payloads included) — the pack must agree with half::from_float
  // bit-for-bit on all of them.
  Rng rng(99);
  for (int batch = 0; batch < 20000 / 8; ++batch) {
    float src[8];
    for (int i = 0; i < 8; ++i) {
      src[i] = std::bit_cast<float>(
          static_cast<std::uint32_t>(rng.uniform_index(0x100000000ull)));
    }
    std::uint16_t out[8];
    float_to_half8(src, out);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(out[i], half::from_float(src[i]))
          << "float bits 0x" << std::hex
          << std::bit_cast<std::uint32_t>(src[i]);
    }
  }
}

TEST(SimdHalf, PackMatchesScalarOnBoundaryValues) {
  const float cases[] = {
      0.0f, -0.0f, 1.0f, -1.0f,
      65504.0f,                       // largest finite half
      65519.996f,                     // just below the overflow threshold
      65520.0f,                       // rounds to +Inf
      0x1.0p-14f,                     // smallest normal half
      0x1.0p-24f,                     // smallest subnormal half
      0x1.0p-25f,                     // tie: rounds to zero (even)
      0x1.8p-25f,                     // above the tie: rounds to denorm_min
      0x1.0p-26f,                     // underflows to zero
      0x1.ffcp-15f,                   // largest subnormal neighborhood
      1.0009766f,                     // RNE tie on bit 13
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
  };
  float src[8];
  std::uint16_t out[8];
  for (const float c : cases) {
    for (int i = 0; i < 8; ++i) {
      src[i] = c;
    }
    float_to_half8(src, out);
    EXPECT_EQ(out[0], half::from_float(c))
        << "float bits 0x" << std::hex << std::bit_cast<std::uint32_t>(c);
  }
}

TEST(SimdHalf, BulkHelpersAgreeAcrossPathsIncludingOddTails) {
  for (const std::size_t n : {1ul, 7ul, 8ul, 9ul, 100ul, 333ul}) {
    const auto src = random_vec(n, 7 + n);
    std::vector<half> packed_scalar(n);
    std::vector<half> packed_simd(n);
    float_to_half_n(src.data(), packed_scalar.data(), n,
                    simd::KernelPath::scalar);
    float_to_half_n(src.data(), packed_simd.data(), n,
                    simd::KernelPath::simd);
    std::vector<real_t> staged_scalar(n);
    std::vector<real_t> staged_simd(n);
    round_through_half_n(src.data(), staged_scalar.data(), n,
                         simd::KernelPath::scalar);
    round_through_half_n(src.data(), staged_simd.data(), n,
                         simd::KernelPath::simd);
    std::vector<real_t> widened_scalar(n);
    std::vector<real_t> widened_simd(n);
    half_to_float_n(packed_scalar.data(), widened_scalar.data(), n,
                    simd::KernelPath::scalar);
    half_to_float_n(packed_scalar.data(), widened_simd.data(), n,
                    simd::KernelPath::simd);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(packed_scalar[i].bits(), packed_simd[i].bits());
      EXPECT_EQ(std::bit_cast<std::uint32_t>(staged_scalar[i]),
                std::bit_cast<std::uint32_t>(staged_simd[i]));
      EXPECT_EQ(std::bit_cast<std::uint32_t>(widened_scalar[i]),
                std::bit_cast<std::uint32_t>(widened_simd[i]));
    }
  }
}

// ---------- dense primitives ----------

TEST(SimdDense, DotAgreesAcrossPaths) {
  for (const std::size_t n : {1ul, 8ul, 15ul, 16ul, 100ul, 1023ul}) {
    const auto a = random_vec(n, 11 + n);
    const auto b = random_vec(n, 13 + n);
    const double ds = dot(a, b, simd::KernelPath::scalar);
    const double dv = dot(a, b, simd::KernelPath::simd);
    // Both paths sum exact double products; only association differs.
    EXPECT_NEAR(dv, ds, (std::abs(ds) + 1.0) * 1e-12);
  }
}

TEST(SimdDense, AxpyIsBitwiseIdenticalAcrossPaths) {
  for (const std::size_t n : {1ul, 8ul, 20ul, 100ul, 257ul}) {
    const auto x = random_vec(n, 17 + n);
    auto y_scalar = random_vec(n, 19 + n);
    auto y_simd = y_scalar;
    axpy(real_t{1.7f}, x, y_scalar, simd::KernelPath::scalar);
    axpy(real_t{1.7f}, x, y_simd, simd::KernelPath::simd);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(y_scalar[i]),
                std::bit_cast<std::uint32_t>(y_simd[i]));
    }
  }
}

TEST(SimdDense, SymvAgreesAcrossPaths) {
  for (const std::size_t n : {4ul, 8ul, 33ul, 100ul}) {
    auto a = random_vec(n * n, 23 + n);
    for (std::size_t i = 0; i < n; ++i) {  // symmetrize
      for (std::size_t j = 0; j < i; ++j) {
        a[j * n + i] = a[i * n + j];
      }
    }
    const auto x = random_vec(n, 29 + n);
    std::vector<real_t> y_scalar(n);
    std::vector<real_t> y_simd(n);
    symv(n, a, x, y_scalar, simd::KernelPath::scalar);
    symv(n, a, x, y_simd, simd::KernelPath::simd);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y_simd[i], y_scalar[i],
                  (std::abs(y_scalar[i]) + 1.0f) * 1e-6f);
    }
  }
}

// ---------- get_hermitian_row ----------

/// Small ratings matrix with varied row lengths (including an empty row and
/// one longer than BIN, so multi-batch staging is exercised).
CsrMatrix hermitian_fixture(index_t m, index_t n, std::uint64_t seed) {
  Rng rng(seed);
  RatingsCoo coo(m, n);
  for (index_t u = 0; u < m; ++u) {
    const auto len = static_cast<index_t>(
        u == 0 ? 0 : (u == 1 ? 3 * 32 + 5 : rng.uniform_index(n / 2) + 1));
    for (index_t k = 0; k < len; ++k) {
      coo.add(u, static_cast<index_t>(rng.uniform_index(n)),
              static_cast<real_t>(rng.normal()));
    }
  }
  coo.sort_and_dedup();
  return CsrMatrix::from_coo(coo);
}

/// Ratings matrix whose row u has exactly lengths[u] non-zeros, on distinct
/// random columns of n (so dedup cannot shorten a row).
CsrMatrix hermitian_fixture_exact(const std::vector<index_t>& lengths,
                                  index_t n, std::uint64_t seed) {
  Rng rng(seed);
  RatingsCoo coo(static_cast<index_t>(lengths.size()), n);
  std::vector<index_t> cols(n);
  for (index_t u = 0; u < coo.rows(); ++u) {
    for (index_t v = 0; v < n; ++v) {
      cols[v] = v;
    }
    for (index_t k = 0; k < lengths[u]; ++k) {  // partial Fisher-Yates
      const auto pick = k + static_cast<index_t>(rng.uniform_index(n - k));
      std::swap(cols[k], cols[pick]);
      coo.add(u, cols[k], static_cast<real_t>(rng.normal()));
    }
  }
  coo.sort_and_dedup();
  return CsrMatrix::from_coo(coo);
}

/// Runs every row of `r` through both kernel paths and asserts bitwise
/// equal A_u and b_u.
void expect_paths_bitwise_equal(const CsrMatrix& r, std::size_t f, int tile,
                                int bin, bool fp16) {
  Matrix theta(r.cols(), f);
  als_init_factors(theta, 3.6, 41);
  HermitianParams params;
  params.tile = tile;
  params.bin = bin;
  params.fp16_staging = fp16;
  HermitianWorkspace ws_scalar;
  HermitianWorkspace ws_simd;
  std::vector<real_t> a_scalar(f * f);
  std::vector<real_t> a_simd(f * f);
  std::vector<real_t> b_scalar(f);
  std::vector<real_t> b_simd(f);
  for (index_t u = 0; u < r.rows(); ++u) {
    get_hermitian_row(r, theta, u, real_t{0.05f}, params, ws_scalar,
                      a_scalar, b_scalar, simd::KernelPath::scalar);
    get_hermitian_row(r, theta, u, real_t{0.05f}, params, ws_simd, a_simd,
                      b_simd, simd::KernelPath::simd);
    for (std::size_t i = 0; i < a_scalar.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(a_scalar[i]),
                std::bit_cast<std::uint32_t>(a_simd[i]))
          << "A mismatch at f=" << f << " tile=" << tile << " bin=" << bin
          << " fp16=" << fp16 << " u=" << u << " i=" << i;
    }
    for (std::size_t i = 0; i < b_scalar.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(b_scalar[i]),
                std::bit_cast<std::uint32_t>(b_simd[i]))
          << "b mismatch at f=" << f << " tile=" << tile << " bin=" << bin
          << " fp16=" << fp16 << " u=" << u << " i=" << i;
    }
  }
}

TEST(SimdHermitian, TiledKernelIsBitwiseIdenticalAcrossPaths) {
  struct Case {
    std::size_t f;
    int tile;
  };
  // Tile widths below, at, and above the 8-lane width, so both the vector
  // body and the scalar tail of the tile loop are exercised (tile=5 and
  // tile=10 have odd tails; tile=16 is two full vectors).
  const Case cases[] = {{8, 4}, {8, 8}, {16, 16}, {32, 8}, {100, 5},
                       {100, 10}, {100, 20}};
  const auto r = hermitian_fixture(12, 120, 31);
  for (const auto& c : cases) {
    for (const bool fp16 : {false, true}) {
      expect_paths_bitwise_equal(r, c.f, c.tile, 32, fp16);
    }
  }

  // Row lengths around every batch boundary — nnz = 1, nnz > BIN with a
  // short last batch, exact multiples of BIN — for BIN ∈ {1, 7, 32}, and f
  // whose lower-triangle rows are not multiples of 8 or 32 long (f=10 and
  // f=36 end in a partial vector; f=96 in a partial 32-float panel).
  const Case odd_cases[] = {{10, 10}, {36, 12}, {96, 8}};
  const auto exact = hermitian_fixture_exact(
      {0, 1, 1, 2, 7, 8, 14, 31, 32, 33, 64, 65, 101}, 120, 37);
  std::vector<Case> all(std::begin(cases), std::end(cases));
  all.insert(all.end(), std::begin(odd_cases), std::end(odd_cases));
  for (const int bin : {1, 7, 32}) {
    for (const auto& c : all) {
      for (const bool fp16 : {false, true}) {
        expect_paths_bitwise_equal(exact, c.f, c.tile, bin, fp16);
      }
    }
  }
}

// ---------- CG solve ----------

std::vector<real_t> spd_system(std::size_t f, std::uint64_t seed) {
  const auto g = random_vec(f * f, seed);
  std::vector<real_t> a(f * f, real_t{0});
  for (std::size_t i = 0; i < f; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < f; ++k) {
        acc += static_cast<double>(g[k * f + i]) * g[k * f + j];
      }
      a[i * f + j] = a[j * f + i] =
          static_cast<real_t>(acc / static_cast<double>(f));
    }
    a[i * f + i] += real_t{1};
  }
  return a;
}

TEST(SimdCg, SolutionsAgreeAcrossPathsFloatAndHalf) {
  for (const std::size_t f : {8ul, 16ul, 32ul, 100ul}) {
    const auto a = spd_system(f, 51 + f);
    const auto b = random_vec(f, 53 + f);
    std::vector<half> a_half(f * f);
    float_to_half_n(a.data(), a_half.data(), a.size(),
                    simd::KernelPath::scalar);
    for (const std::uint32_t fs : {3u, 6u}) {
      std::vector<real_t> x_scalar(f, real_t{0});
      std::vector<real_t> x_simd(f, real_t{0});
      const auto rs = cg_solve<float>(f, a, b, x_scalar, fs, real_t{0},
                                      simd::KernelPath::scalar);
      const auto rv = cg_solve<float>(f, a, b, x_simd, fs, real_t{0},
                                      simd::KernelPath::simd);
      EXPECT_EQ(rs.iterations, rv.iterations);
      for (std::size_t i = 0; i < f; ++i) {
        // The paths reassociate double-accumulated reductions; after fs
        // iterations the drift stays far below CG's own truncation error.
        EXPECT_NEAR(x_simd[i], x_scalar[i],
                    (std::abs(x_scalar[i]) + 1.0f) * 1e-5f);
      }
      std::vector<real_t> xh_scalar(f, real_t{0});
      std::vector<real_t> xh_simd(f, real_t{0});
      cg_solve<half>(f, std::span<const half>(a_half), b, xh_scalar, fs,
                     real_t{0}, simd::KernelPath::scalar);
      cg_solve<half>(f, std::span<const half>(a_half), b, xh_simd, fs,
                     real_t{0}, simd::KernelPath::simd);
      for (std::size_t i = 0; i < f; ++i) {
        EXPECT_NEAR(xh_simd[i], xh_scalar[i],
                    (std::abs(xh_scalar[i]) + 1.0f) * 1e-5f);
      }
    }
  }
}

// ---------- nnz-balanced scheduling ----------

TEST(NnzSchedule, BoundsBalanceSkewedRows) {
  // Row 0 holds half of all nnz; remaining rows are uniform.
  RatingsCoo coo(64, 600);
  Rng rng(71);
  for (index_t v = 0; v < 300; ++v) {
    coo.add(0, v, real_t{1});
  }
  for (index_t u = 1; u < 64; ++u) {
    for (int k = 0; k < 5; ++k) {
      coo.add(u, static_cast<index_t>(rng.uniform_index(600)), real_t{1});
    }
  }
  coo.sort_and_dedup();
  const auto csr = CsrMatrix::from_coo(coo);
  const auto bounds = nnz_balanced_bounds(csr, 8);

  ASSERT_GE(bounds.size(), 3u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), static_cast<std::size_t>(csr.rows()));
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);  // strictly ascending, no empties
  }
  // The heavy row must sit alone in its chunk: no boundary may lump it with
  // a meaningful share of the remaining rows.
  EXPECT_EQ(bounds[1], 1u);
  // Chunks after the heavy one each hold roughly total/8 nnz.
  const auto& ptr = csr.row_ptr();
  const double share =
      static_cast<double>(ptr[csr.rows()]) / 8.0;
  for (std::size_t i = 1; i + 1 < bounds.size(); ++i) {
    const auto chunk_nnz =
        static_cast<double>(ptr[bounds[i + 1]] - ptr[bounds[i]]);
    EXPECT_LE(chunk_nnz, 2.0 * share);
  }
}

TEST(NnzSchedule, GuidedAndStaticSchedulesProduceIdenticalFactors) {
  // Row updates are self-contained, so the schedule must not affect the
  // result at all — factors are bitwise equal between schedules and worker
  // counts.
  SyntheticConfig cfg;
  cfg.m = 150;
  cfg.n = 80;
  cfg.nnz = 3000;
  cfg.seed = 91;
  const auto data = generate_synthetic(cfg);

  AlsOptions base;
  base.f = 16;
  base.workers = 1;
  base.schedule = AlsSchedule::static_rows;

  AlsOptions guided = base;
  guided.workers = 4;
  guided.schedule = AlsSchedule::nnz_guided;

  AlsEngine serial(data.ratings, base);
  AlsEngine parallel(data.ratings, guided);
  for (int epoch = 0; epoch < 3; ++epoch) {
    serial.run_epoch();
    parallel.run_epoch();
  }
  const auto& xs = serial.user_factors();
  const auto& xp = parallel.user_factors();
  ASSERT_EQ(xs.rows(), xp.rows());
  for (std::size_t i = 0; i < xs.rows(); ++i) {
    for (std::size_t k = 0; k < xs.cols(); ++k) {
      ASSERT_EQ(xs(i, k), xp(i, k)) << "factor divergence at " << i;
    }
  }
}

}  // namespace
}  // namespace cumf
