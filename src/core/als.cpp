#include "core/als.hpp"

#include <algorithm>
#include <cmath>

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

void als_update_rows(const AlsOptions& options, const CsrMatrix& ratings,
                     const Matrix& fixed, Matrix& solved, index_t begin,
                     index_t end, std::uint32_t fault_site,
                     AlsWorkerContext& ctx, index_t row_offset) {
  const std::size_t f = options.f;
  // One flag check per chunk: when the cuprof tracer is off the loop runs
  // the plain hot path with no clock reads (and with CUMF_PROF=OFF this
  // whole branch folds to `false` at compile time anyway).
  const bool profiled = prof::Tracer::enabled();
  for (index_t u = begin; u < end; ++u) {
    const index_t nnz_u = ratings.row_nnz(u);
    if (nnz_u == 0) {
      continue;  // unobserved row: keep the previous factor
    }
    const std::uint64_t t0 = profiled ? prof::now_ns() : 0;
    if (options.tiled_hermitian) {
      get_hermitian_row(ratings, fixed, u, options.lambda,
                        options.hermitian, ctx.ws, ctx.a_scratch,
                        ctx.b_scratch, options.solver.path);
    } else {
      get_hermitian_row_reference(ratings, fixed, u, options.lambda,
                                  ctx.a_scratch, ctx.b_scratch);
    }
    std::uint64_t t1 = 0;
    if (profiled) {
      t1 = prof::now_ns();
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
      analysis::FaultInjector::instance().corrupt_system(
          fault_site, g, ctx.a_scratch, ctx.b_scratch);
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

    const bool ok =
        ctx.solver.solve(ctx.a_scratch, ctx.b_scratch, solved.row(g));
    if (!ok) {
      // Even the exact fallback could not produce a finite solution (a
      // corrupted or singular system — impossible for healthy data with
      // λ > 0). Keep the previous factor: the solver restored the row and
      // counted the failure, and training continues on the other rows.
      continue;
    }
    if (profiled) {
      const std::uint64_t t2 = prof::now_ns();
      prof::Tracer::instance().complete_span("solve", "als", t1, t2);
      ctx.solve_ns += t2 - t1;
    }
    const double ff = static_cast<double>(f);
    if (options.solver.kind == SolverKind::CgFp32 ||
        options.solver.kind == SolverKind::PcgFp32 ||
        options.solver.kind == SolverKind::CgFp16) {
      const double a_elem_bytes = options.solver.kind == SolverKind::CgFp16
                                      ? sizeof(half)
                                      : sizeof(real_t);
      const double fs = options.solver.cg_fs;
      ctx.solve_ops.flops += fs * (2.0 * ff * ff + 10.0 * ff);
      // fs sweeps over A (half-width for the FP16 solver) plus the CG
      // warm start reading the previous x_u once.
      ctx.solve_ops.bytes_read += fs * ff * ff * a_elem_bytes + ff * kReal;
    } else {
      ctx.solve_ops.flops += (2.0 / 3.0) * ff * ff * ff;
      ctx.solve_ops.bytes_read += ff * ff * kReal;
    }
    ctx.solve_ops.bytes_written += ff * kReal;
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
  for (AlsWorkerContext& ctx : workers_) {
    ctx.herm_ops = OpCounts{};
    ctx.solve_ops = OpCounts{};
    ctx.herm_ns = 0;
    ctx.solve_ns = 0;
  }
}

void AlsEngineBase::end_epoch() {
  herm_ops_ = OpCounts{};
  solve_ops_ = OpCounts{};
  phase_ = PhaseSeconds{};
  for (const AlsWorkerContext& ctx : workers_) {
    herm_ops_ += ctx.herm_ops;
    solve_ops_ += ctx.solve_ops;
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
