#include "core/als.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "analysis/faultinject.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "half/half.hpp"
#include "prof/prof.hpp"

namespace cumf {

int pick_tile(std::size_t f, int requested) {
  CUMF_EXPECTS(f > 0, "latent dimension must be positive");
  CUMF_EXPECTS(requested > 0, "tile must be positive");
  for (int t = std::min<int>(requested, static_cast<int>(f)); t > 1; --t) {
    if (f % static_cast<std::size_t>(t) == 0) {
      return t;
    }
  }
  return 1;
}

/// Initializes factors so that x·θ starts near the global rating mean:
/// entries are sqrt(mean/f) with ±10% noise (the standard ALS warm start;
/// a zero init would make the first update-X see Θ = 0 and stall).
void als_init_factors(Matrix& factors, double mean, std::uint64_t seed) {
  Rng rng(seed);
  const double base =
      std::sqrt(std::max(0.1, std::abs(mean)) /
                static_cast<double>(factors.cols()));
  for (std::size_t i = 0; i < factors.rows(); ++i) {
    for (std::size_t k = 0; k < factors.cols(); ++k) {
      factors(i, k) = static_cast<real_t>(base * (1.0 + 0.1 * rng.normal()));
    }
  }
}

AlsEngineBase::AlsEngineBase(const AlsOptions& options) : options_(options) {
  CUMF_EXPECTS(options_.f > 0, "latent dimension must be positive");
  CUMF_EXPECTS(options_.lambda > 0, "ALS-WR needs lambda > 0");
  CUMF_EXPECTS(options_.workers >= 1, "need at least one worker");
  options_.hermitian.tile = pick_tile(options_.f, options_.hermitian.tile);

  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back(options_.f, options_.solver, options_.hermitian);
  }
  if (options_.workers > 1) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(options_.workers));
  }
}

void AlsEngineBase::warm_start(index_t rows, index_t cols, double mean) {
  x_ = Matrix(rows, options_.f);
  theta_ = Matrix(cols, options_.f);
  als_init_factors(x_, mean, options_.seed);
  als_init_factors(theta_, mean, options_.seed + 1);
}

AlsEngine::AlsEngine(const RatingsCoo& train, const AlsOptions& options)
    : AlsEngineBase(options) {
  RatingsCoo canonical = train;
  canonical.sort_and_dedup();
  for (const Rating& e : canonical.entries()) {
    CUMF_EXPECTS(std::isfinite(e.r), "ratings must be finite");
  }
  r_ = CsrMatrix::from_coo(canonical);
  rt_ = r_.transposed();
  warm_start(r_.rows(), r_.cols(), canonical.mean_value());
}

namespace {

/// The ops an epoch's solves performed, read from the SolveStats they
/// recorded: every CG iteration actually run (early exits included), plus
/// an exact LU solve for each system that ended on the exact path (the LU
/// and Cholesky kinds, or a CG system that fell back) and produced a
/// factor. The inputs are integer counts, so the result is the same under
/// any worker count or schedule.
OpCounts count_solve_ops(const AlsOptions& options, const SolveStats& epoch) {
  constexpr double kReal = sizeof(real_t);
  const double ff = static_cast<double>(options.f);
  const SolverKind kind = options.solver.kind;
  const bool cg = kind == SolverKind::CgFp32 ||
                  kind == SolverKind::PcgFp32 || kind == SolverKind::CgFp16;
  // Failures happen only on the exact path (solve_exact), so they come out
  // of the systems that reached it.
  const double solved = static_cast<double>(epoch.systems - epoch.failures);
  const double exact = static_cast<double>(
      (cg ? epoch.cg_fallbacks : epoch.systems) - epoch.failures);
  OpCounts ops;
  if (cg) {
    const double a_elem_bytes =
        kind == SolverKind::CgFp16 ? sizeof(half) : sizeof(real_t);
    const double iters = static_cast<double>(epoch.cg_iterations);
    ops.flops += iters * (2.0 * ff * ff + 10.0 * ff);
    // One sweep over A per iteration (half-width for the FP16 solver) plus
    // the CG warm start reading the previous x_u once.
    ops.bytes_read += iters * ff * ff * a_elem_bytes + solved * ff * kReal;
  }
  ops.flops += exact * (2.0 / 3.0) * ff * ff * ff;
  ops.bytes_read += exact * ff * ff * kReal;
  ops.bytes_written += solved * ff * kReal;
  return ops;
}

}  // namespace

void als_update_rows(const AlsOptions& options, const CsrMatrix& ratings,
                     const Matrix& fixed, Matrix& solved, index_t begin,
                     index_t end, std::uint32_t fault_site,
                     AlsWorkerContext& ctx, index_t row_offset) {
  const std::size_t f = options.f;
  const std::size_t width = ctx.solver.batch_width();
  // One flag check per chunk: when the cuprof tracer is off the loop runs
  // the plain hot path with no clock reads (and with CUMF_PROF=OFF this
  // whole branch folds to `false` at compile time anyway).
  const bool profiled = prof::Tracer::enabled();
  // Systems assembled for the next batch solve: lane l's A and b sit in
  // slot l of the worker's scratch, and pending_x[l] is its factor row.
  std::array<std::span<real_t>, kCgBatch> pending_x;
  std::size_t pending = 0;
  const auto solve_pending = [&] {
    const std::uint64_t t0 = profiled ? prof::now_ns() : 0;
    // A system even the exact fallback could not solve (a corrupted or
    // singular system — impossible for healthy data with λ > 0) keeps its
    // previous factor: the solver restored the row and counted the
    // failure, and training continues on the other rows.
    (void)ctx.solver.solve_batch(
        pending, ctx.a_scratch, ctx.b_scratch,
        std::span<const std::span<real_t>>(pending_x.data(), pending));
    if (profiled) {
      const std::uint64_t t1 = prof::now_ns();
      prof::Tracer::instance().complete_span("solve", "als", t0, t1);
      ctx.solve_ns += t1 - t0;
    }
    pending = 0;
  };

  for (index_t u = begin; u < end; ++u) {
    const index_t nnz_u = ratings.row_nnz(u);
    if (nnz_u == 0) {
      continue;  // unobserved row: keep the previous factor
    }
    const std::span<real_t> a(ctx.a_scratch.data() + pending * f * f, f * f);
    const std::span<real_t> b(ctx.b_scratch.data() + pending * f, f);
    const std::uint64_t t0 = profiled ? prof::now_ns() : 0;
    if (options.tiled_hermitian) {
      get_hermitian_row(ratings, fixed, u, options.lambda, options.hermitian,
                        ctx.ws, a, b, options.solver.path);
    } else {
      get_hermitian_row_reference(ratings, fixed, u, options.lambda, a, b);
    }
    if (profiled) {
      const std::uint64_t t1 = prof::now_ns();
      prof::Tracer::instance().complete_span("get_hermitian", "als", t0, t1);
      ctx.herm_ns += t1 - t0;
    }
    // Global row id: fault decisions and the factor write must be keyed the
    // same way whether this range is a whole matrix or one streamed tile.
    const index_t g = u + row_offset;
    if (analysis::FaultInjector::enabled()) {
      // Deterministic corruption of the assembled system (NaN/inf/indefinite
      // diag/FP16-range blowup) so the solver's degradation ladder gets
      // exercised; the site id keeps the two half-sweeps independent.
      analysis::FaultInjector::instance().corrupt_system(fault_site, g, a, b);
    }
    // Traffic per rating: one θ row (FP32 even when staging rounds to FP16
    // in "shared memory" — the global read is full precision), the rating
    // value and its column index. Written: A_u plus the b_u vector.
    constexpr double kReal = sizeof(real_t);
    constexpr double kIdx = sizeof(index_t);
    ctx.herm_ops.flops += static_cast<double>(nnz_u) * (f * f + 2.0 * f);
    ctx.herm_ops.bytes_read +=
        static_cast<double>(nnz_u) * (f * kReal + kReal + kIdx);
    ctx.herm_ops.bytes_written += (static_cast<double>(f) * f + f) * kReal;

    pending_x[pending++] = solved.row(g);
    if (pending == width) {
      solve_pending();
    }
  }
  if (pending > 0) {
    solve_pending();
  }
}

void AlsEngineBase::sweep(const CsrMatrix& ratings, const Matrix& fixed,
                          Matrix& solved, std::uint32_t fault_site,
                          index_t row_offset) {
  if (pool_ == nullptr) {
    als_update_rows(options_, ratings, fixed, solved, 0, ratings.rows(),
                    fault_site, workers_[0], row_offset);
    return;
  }
  // Rows are independent and each worker index is held by exactly one task,
  // so one context per worker stays race-free under either schedule. No row
  // is touched by two workers, and `fixed` is read-only during the sweep.
  const auto body = [&](std::size_t begin, std::size_t end,
                        std::size_t worker) {
    als_update_rows(options_, ratings, fixed, solved,
                    static_cast<index_t>(begin), static_cast<index_t>(end),
                    fault_site, workers_[worker], row_offset);
  };
  if (options_.schedule == AlsSchedule::nnz_guided) {
    // ~8 chunks per worker of equal nnz: power-law degree skew costs at
    // most one trailing chunk of imbalance instead of an entire static
    // range (see docs/performance.md).
    const std::vector<std::size_t> bounds =
        nnz_balanced_bounds(ratings, 8 * pool_->size());
    pool_->parallel_for_chunks(bounds, body);
  } else {
    pool_->parallel_for_static(ratings.rows(), body);
  }
}

void AlsEngineBase::begin_epoch() {
  // Measured per-epoch counters: reset so callers always see "last epoch".
  epoch_start_stats_ = solve_stats();
  for (AlsWorkerContext& ctx : workers_) {
    ctx.herm_ops = OpCounts{};
    ctx.herm_ns = 0;
    ctx.solve_ns = 0;
  }
}

void AlsEngineBase::end_epoch() {
  herm_ops_ = OpCounts{};
  phase_ = PhaseSeconds{};
  solve_ops_ = count_solve_ops(options_, solve_stats() - epoch_start_stats_);
  for (const AlsWorkerContext& ctx : workers_) {
    herm_ops_ += ctx.herm_ops;
    phase_.hermitian += static_cast<double>(ctx.herm_ns) / 1e9;
    phase_.solve += static_cast<double>(ctx.solve_ns) / 1e9;
  }
  ++epochs_;
}

void AlsEngine::run_epoch() {
  CUMF_PROF_SCOPE("als_epoch", "als");
  begin_epoch();
  {
    CUMF_PROF_SCOPE("update_X", "als");
    sweep(r_, theta_, x_, /*fault_site=*/0);
  }
  {
    CUMF_PROF_SCOPE("update_Theta", "als");
    sweep(rt_, x_, theta_, /*fault_site=*/1);
  }
  end_epoch();
}

void AlsEngineBase::restore(const Matrix& x, const Matrix& theta,
                            int epochs_run, const SolveStats& stats) {
  CUMF_EXPECTS(x.rows() == x_.rows() && x.cols() == x_.cols(),
               "restore: user-factor shape mismatch");
  CUMF_EXPECTS(theta.rows() == theta_.rows() && theta.cols() == theta_.cols(),
               "restore: item-factor shape mismatch");
  CUMF_EXPECTS(epochs_run >= 0, "restore: negative epoch counter");
  x_ = x;
  theta_ = theta;
  epochs_ = epochs_run;
  restored_stats_ = stats;
  for (AlsWorkerContext& ctx : workers_) {
    ctx.solver.reset_stats();
  }
}

SolveStats AlsEngineBase::solve_stats() const noexcept {
  SolveStats total = restored_stats_;
  for (const AlsWorkerContext& ctx : workers_) {
    total += ctx.solver.stats();
  }
  return total;
}

}  // namespace cumf
