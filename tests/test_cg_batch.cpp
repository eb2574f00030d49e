// Differential tests for the batched CG solve: every lane of
// cg_solve_batch / SystemSolver::solve_batch must give the bits, results
// and SolveStats of solving the same systems one at a time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/solver.hpp"
#include "half/half_simd.hpp"
#include "linalg/cg.hpp"
#include "linalg/cg_batch.hpp"

namespace cumf {
namespace {

/// `count` independent systems of size f, stored as the ALS worker stores
/// them: lane l's A at a[l·f²], its b at b[l·f], its warm start at x[l·f].
struct Batch {
  std::size_t f = 0;
  std::size_t count = 0;
  std::vector<real_t> a;
  std::vector<real_t> b;
  std::vector<real_t> x;

  std::span<real_t> a_of(std::size_t l) {
    return {a.data() + l * f * f, f * f};
  }
  std::span<real_t> b_of(std::size_t l) { return {b.data() + l * f, f}; }
  std::span<real_t> x_of(std::size_t l) { return {x.data() + l * f, f}; }
};

/// One ALS-shaped system into lane l: A = Σ θθᵀ + λ·nnz·I and b = Σ r·θ
/// over nnz random θ rows, with a random warm start near the solution's
/// scale (so CG runs its full fs steps).
void fill_als_system(Batch& batch, std::size_t l, Rng& rng) {
  const std::size_t f = batch.f;
  const auto a = batch.a_of(l);
  const auto b = batch.b_of(l);
  const auto x = batch.x_of(l);
  std::vector<double> acc(f * f, 0.0);
  std::vector<double> rhs(f, 0.0);
  const int nnz = 1 + static_cast<int>(rng.uniform() * 60.0);
  std::vector<double> theta(f);
  for (int k = 0; k < nnz; ++k) {
    for (auto& t : theta) {
      t = 0.5 + 0.3 * rng.normal();
    }
    const double r = 1.0 + 4.0 * rng.uniform();
    for (std::size_t i = 0; i < f; ++i) {
      rhs[i] += r * theta[i];
      for (std::size_t j = 0; j < f; ++j) {
        acc[i * f + j] += theta[i] * theta[j];
      }
    }
  }
  for (std::size_t i = 0; i < f; ++i) {
    acc[i * f + i] += 0.05 * nnz;
    b[i] = static_cast<real_t>(rhs[i]);
    x[i] = static_cast<real_t>(0.3 * rng.normal());
    for (std::size_t j = 0; j < f; ++j) {
      a[i * f + j] = static_cast<real_t>(acc[i * f + j]);
    }
  }
}

Batch als_batch(std::size_t f, std::size_t count, std::uint64_t seed) {
  Batch batch{f, count, std::vector<real_t>(count * f * f),
              std::vector<real_t>(count * f), std::vector<real_t>(count * f)};
  Rng rng(seed);
  for (std::size_t l = 0; l < count; ++l) {
    fill_als_system(batch, l, rng);
  }
  return batch;
}

SolverOptions cg_options(SolverKind kind, std::uint32_t fs = 6) {
  SolverOptions o;
  o.kind = kind;
  o.cg_fs = fs;
  o.path = simd::KernelPath::simd;
  return o;
}

struct Outcome {
  std::vector<real_t> x;
  std::uint32_t ok = 0;
  SolveStats stats;
};

/// The reference: one SystemSolver::solve per system, in lane order.
Outcome solve_one_by_one(const SolverOptions& o, Batch batch) {
  SystemSolver solver(batch.f, o);
  Outcome out;
  for (std::size_t l = 0; l < batch.count; ++l) {
    if (solver.solve(batch.a_of(l), batch.b_of(l), batch.x_of(l))) {
      out.ok |= 1u << l;
    }
  }
  out.x = batch.x;
  out.stats = solver.stats();
  return out;
}

Outcome solve_batched(const SolverOptions& o, Batch batch) {
  SystemSolver solver(batch.f, o);
  EXPECT_EQ(solver.batch_width(), kCgBatch);
  std::vector<std::span<real_t>> xs;
  for (std::size_t l = 0; l < batch.count; ++l) {
    xs.push_back(batch.x_of(l));
  }
  Outcome out;
  out.ok = solver.solve_batch(batch.count, batch.a, batch.b, xs);
  out.x = batch.x;
  out.stats = solver.stats();
  return out;
}

bool same_bits(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0;
}

/// Batched vs one-by-one on `batch`: same bits, same ok mask, same stats.
void expect_batch_matches(const SolverOptions& o, const Batch& batch,
                          const std::string& what) {
  const Outcome want = solve_one_by_one(o, batch);
  const Outcome got = solve_batched(o, batch);
  EXPECT_TRUE(same_bits(got.x, want.x)) << what;
  EXPECT_EQ(got.ok, want.ok) << what;
  EXPECT_TRUE(got.stats == want.stats) << what;
  EXPECT_EQ(got.stats.cg_hist, want.stats.cg_hist) << what;
}

// ---------- kernel: cg_solve_batch against cg_solve ----------

/// Interleaves lanes [0, count) of `batch` as cg_solve_batch reads them;
/// lanes past count are zero.
template <typename T>
std::vector<T> interleave_a(const Batch& batch) {
  const std::size_t ff = batch.f * batch.f;
  std::vector<T> out(ff * kCgBatch, T(0.0f));
  for (std::size_t l = 0; l < batch.count; ++l) {
    for (std::size_t e = 0; e < ff; ++e) {
      out[e * kCgBatch + l] = T(batch.a[l * ff + e]);
    }
  }
  return out;
}

std::vector<real_t> interleave_v(const std::vector<real_t>& v, std::size_t f,
                                 std::size_t count) {
  std::vector<real_t> out(f * kCgBatch, 0.0f);
  for (std::size_t l = 0; l < count; ++l) {
    for (std::size_t i = 0; i < f; ++i) {
      out[i * kCgBatch + l] = v[l * f + i];
    }
  }
  return out;
}

template <typename T>
void expect_kernel_matches(std::size_t f, std::size_t count,
                           std::uint32_t lanes, std::uint64_t seed) {
  Batch batch = als_batch(f, count, seed);
  const std::vector<T> a8 = interleave_a<T>(batch);
  const std::vector<real_t> b8 = interleave_v(batch.b, f, count);
  std::vector<real_t> x8 = interleave_v(batch.x, f, count);
  const std::vector<real_t> x8_entry = x8;
  CgBatchWorkspace ws;
  ws.prepare(f);
  CgResult results[kCgBatch];
  cg_solve_batch(f, a8.data(), b8.data(), x8.data(), lanes, 6, real_t{1e-4f},
                 ws, results);
  for (std::size_t l = 0; l < kCgBatch; ++l) {
    const std::string what = "f=" + std::to_string(f) + " count=" +
                             std::to_string(count) + " lane " +
                             std::to_string(l);
    if ((lanes >> l & 1u) == 0) {
      for (std::size_t i = 0; i < f; ++i) {
        ASSERT_EQ(std::memcmp(&x8[i * kCgBatch + l],
                              &x8_entry[i * kCgBatch + l], sizeof(real_t)),
                  0)
            << what << ": a lane outside the mask moved";
      }
      EXPECT_EQ(results[l].iterations, 0u) << what;
      continue;
    }
    std::vector<T> a_l(f * f);
    for (std::size_t e = 0; e < f * f; ++e) {
      a_l[e] = a8[e * kCgBatch + l];
    }
    const auto b_l = batch.b_of(l);
    const auto x_l = batch.x_of(l);
    const CgResult want =
        cg_solve<T>(f, std::span<const T>(a_l), b_l, x_l, 6, real_t{1e-4f},
                    simd::KernelPath::simd);
    EXPECT_EQ(results[l].iterations, want.iterations) << what;
    EXPECT_EQ(results[l].converged, want.converged) << what;
    EXPECT_EQ(results[l].breakdown, want.breakdown) << what;
    EXPECT_EQ(results[l].residual_norm, want.residual_norm) << what;
    for (std::size_t i = 0; i < f; ++i) {
      ASSERT_EQ(std::memcmp(&x8[i * kCgBatch + l], &x_l[i], sizeof(real_t)),
                0)
          << what << " x[" << i << "]";
    }
  }
}

TEST(BatchedCg, KernelLanesMatchCgSolveBitForBit) {
  // f=5: all tail (no 8-wide body); 13: one body chunk and an odd tail;
  // 32: no tail (train_ooc's shape); 100: the paper's f with a 4-wide tail.
  for (const std::size_t f : {5u, 13u, 32u, 100u}) {
    for (std::size_t count = 1; count <= kCgBatch; ++count) {
      const std::uint32_t all = (1u << count) - 1u;
      expect_kernel_matches<float>(f, count, all, 100 + f + count);
      expect_kernel_matches<half>(f, count, all, 200 + f + count);
    }
    // A mask with holes: lanes 1, 4 and 6 sit out.
    expect_kernel_matches<float>(f, kCgBatch, 0xADu, 300 + f);
    expect_kernel_matches<half>(f, kCgBatch, 0xADu, 400 + f);
  }
}

// ---------- SystemSolver::solve_batch against solve() ----------

TEST(BatchedCg, SolverBatchMatchesOneByOneSolves) {
  for (const SolverKind kind : {SolverKind::CgFp16, SolverKind::CgFp32}) {
    for (const std::size_t f : {5u, 13u, 32u, 100u}) {
      // Full batches, partial batches that are batched, and the partial
      // batches small enough to go one by one.
      for (const std::size_t count : {8u, 7u, 5u, 4u, 3u, 1u}) {
        const Batch batch = als_batch(f, count, 7 * f + count);
        expect_batch_matches(cg_options(kind), batch,
                             std::string(to_string(kind)) +
                                 " f=" + std::to_string(f) +
                                 " count=" + std::to_string(count));
      }
    }
  }
}

TEST(BatchedCg, WorkloadShapesMatchOneByOneSolves) {
  // train_incore (CG-FP16, f=100) and train_ooc (CG-FP32, f=32), fs=6,
  // over several batches of fresh ALS-shaped systems.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    expect_batch_matches(cg_options(SolverKind::CgFp16),
                         als_batch(100, kCgBatch, 1000 + seed),
                         "fp16 f=100 seed " + std::to_string(seed));
    expect_batch_matches(cg_options(SolverKind::CgFp32),
                         als_batch(32, kCgBatch, 2000 + seed),
                         "fp32 f=32 seed " + std::to_string(seed));
  }
}

TEST(BatchedCg, LaneResultDoesNotDependOnPositionOrPartners) {
  constexpr std::size_t f = 100;
  const Batch probe = als_batch(f, 1, 99);
  const SolverOptions o = cg_options(SolverKind::CgFp16);
  const Outcome alone = solve_one_by_one(o, probe);
  for (std::size_t pos = 0; pos < kCgBatch; ++pos) {
    Batch batch = als_batch(f, kCgBatch, 500 + pos);
    std::copy(probe.a.begin(), probe.a.end(), batch.a_of(pos).begin());
    std::copy(probe.b.begin(), probe.b.end(), batch.b_of(pos).begin());
    std::copy(probe.x.begin(), probe.x.end(), batch.x_of(pos).begin());
    const Outcome got = solve_batched(o, batch);
    EXPECT_EQ(std::memcmp(got.x.data() + pos * f, alone.x.data(),
                          f * sizeof(real_t)),
              0)
        << "lane " << pos;
  }
}

TEST(BatchedCg, LanesExitEarlyAtTheirOwnIteration) {
  constexpr std::size_t f = 13;
  Batch batch = als_batch(f, kCgBatch, 31);
  // Lane 1: b = 0 from x = 0 is solved before the first step.
  std::fill(batch.b_of(1).begin(), batch.b_of(1).end(), 0.0f);
  std::fill(batch.x_of(1).begin(), batch.x_of(1).end(), 0.0f);
  // Lanes 3 and 6: A with two distinct eigenvalues, where CG from x = 0
  // converges in two steps.
  for (const std::size_t l : {3u, 6u}) {
    const auto a = batch.a_of(l);
    std::fill(a.begin(), a.end(), 0.0f);
    for (std::size_t d = 0; d < f; ++d) {
      a[d * f + d] = d % 2 == 0 ? 2.0f : 5.0f;
    }
    std::fill(batch.b_of(l).begin(), batch.b_of(l).end(), 1.0f);
    std::fill(batch.x_of(l).begin(), batch.x_of(l).end(), 0.0f);
  }
  for (const SolverKind kind : {SolverKind::CgFp16, SolverKind::CgFp32}) {
    const SolverOptions o = cg_options(kind, 12);
    const Outcome got = solve_batched(o, batch);
    EXPECT_EQ(got.stats.cg_hist[0], 1u) << to_string(kind);
    EXPECT_EQ(got.stats.cg_hist[2], 2u) << to_string(kind);
    expect_batch_matches(o, batch, to_string(kind));
  }
}

TEST(BatchedCg, Fp16OverflowLaneRetriesInFp32) {
  constexpr std::size_t f = 13;
  Batch batch = als_batch(f, kCgBatch, 41);
  // 70000 > half::max(): lane 2 overflows in the body, lane 4 in the tail
  // (flat index 168 is the last element of a 13×13 matrix).
  batch.a_of(2)[1] = 70000.0f;
  batch.a_of(2)[f] = 70000.0f;
  batch.a_of(4)[f * f - 1] = 70000.0f;
  // Lane 5: a diagonal flushed to zero by the pack.
  batch.a_of(5)[3 * f + 3] = 1e-8f;
  // The rounding boundary: the float just below 65520 packs to 65504
  // (lane 6 stays in the batch), 65520 itself rounds to inf (lane 7).
  batch.a_of(6)[1] = std::nextafter(65520.0f, 0.0f);
  batch.a_of(6)[f] = std::nextafter(65520.0f, 0.0f);
  batch.a_of(7)[1] = 65520.0f;
  batch.a_of(7)[f] = 65520.0f;
  // Lane 1: an input that is already inf is not a pack overflow; it
  // breaks down in CG and fails on the exact path instead.
  batch.a_of(1)[2] = std::numeric_limits<real_t>::infinity();
  const SolverOptions o = cg_options(SolverKind::CgFp16);
  const Outcome got = solve_batched(o, batch);
  EXPECT_EQ(got.stats.fp16_fallbacks, 4u);
  EXPECT_EQ(got.stats.failures, 1u);
  expect_batch_matches(o, batch, "fp16 overflow");
}

TEST(BatchedCg, BreakdownLaneFallsBackToLu) {
  constexpr std::size_t f = 8;
  Batch batch = als_batch(f, kCgBatch, 43);
  // Lane 5: A = diag(1, −1, 1, −1, …), b = 1, x = 0: the first direction
  // is p = r = b and pᵀAp = 0, a breakdown on step 1.
  const auto a = batch.a_of(5);
  std::fill(a.begin(), a.end(), 0.0f);
  for (std::size_t d = 0; d < f; ++d) {
    a[d * f + d] = d % 2 == 0 ? 1.0f : -1.0f;
  }
  std::fill(batch.b_of(5).begin(), batch.b_of(5).end(), 1.0f);
  std::fill(batch.x_of(5).begin(), batch.x_of(5).end(), 0.0f);
  for (const SolverKind kind : {SolverKind::CgFp16, SolverKind::CgFp32}) {
    const SolverOptions o = cg_options(kind);
    const Outcome got = solve_batched(o, batch);
    EXPECT_EQ(got.stats.cg_fallbacks, 1u) << to_string(kind);
    EXPECT_EQ(got.stats.failures, 0u) << to_string(kind);
    EXPECT_EQ(got.ok, 0xFFu) << to_string(kind);
    EXPECT_FLOAT_EQ(got.x[5 * f + 1], -1.0f) << to_string(kind);
    expect_batch_matches(o, batch, to_string(kind));
  }
}

TEST(BatchedCg, NanSystemFailsAndRestoresX) {
  constexpr std::size_t f = 32;
  Batch batch = als_batch(f, 7, 47);
  batch.a_of(3)[f + 2] = std::numeric_limits<real_t>::quiet_NaN();
  batch.b_of(6)[0] = std::numeric_limits<real_t>::infinity();
  const std::vector<real_t> entry = batch.x;
  for (const SolverKind kind : {SolverKind::CgFp16, SolverKind::CgFp32}) {
    const SolverOptions o = cg_options(kind);
    const Outcome got = solve_batched(o, batch);
    EXPECT_EQ(got.ok, 0x7Fu & ~(1u << 3) & ~(1u << 6)) << to_string(kind);
    EXPECT_EQ(got.stats.failures, 2u) << to_string(kind);
    EXPECT_EQ(got.stats.cg_fallbacks, 2u) << to_string(kind);
    for (const std::size_t l : {3u, 6u}) {
      EXPECT_EQ(std::memcmp(got.x.data() + l * f, entry.data() + l * f,
                            f * sizeof(real_t)),
                0)
          << to_string(kind) << " lane " << l << " was not restored";
    }
    expect_batch_matches(o, batch, to_string(kind));
  }
}

TEST(BatchedCg, BatchWidthIsOneOffTheBatchedKinds) {
  for (const SolverKind kind :
       {SolverKind::LuFp32, SolverKind::CholeskyFp32, SolverKind::PcgFp32}) {
    EXPECT_EQ(SystemSolver(8, cg_options(kind)).batch_width(), 1u);
  }
  SolverOptions scalar = cg_options(SolverKind::CgFp16);
  scalar.path = simd::KernelPath::scalar;
  EXPECT_EQ(SystemSolver(8, scalar).batch_width(), 1u);
}

}  // namespace
}  // namespace cumf
