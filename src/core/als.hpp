// AlsEngine — the cuMF-ALS training loop (functional execution).
//
// One epoch is the paper's two half-sweeps: update every x_u with Θ fixed
// (eq. 2), then every θ_v with X fixed (eq. 3). Each half-sweep runs
// get_hermitian/get_bias followed by the configured solver. The engine
// performs the real numerics on the host; simulated device time for these
// kernels is produced separately by core/kernel_stats.hpp against a
// DeviceSpec, so convergence benches can plot true RMSE against modelled
// GPU seconds.
#pragma once

#include <cstdint>
#include <memory>

#include "common/thread_pool.hpp"
#include "core/hermitian.hpp"
#include "core/solver.hpp"
#include "linalg/dense.hpp"
#include "metrics/roofline.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"  // nnz_balanced_bounds (worker schedules)

namespace cumf {

/// How a half-sweep's rows are distributed over the worker pool.
enum class AlsSchedule {
  /// One contiguous equal-row-count range per worker. Power-law row degrees
  /// concentrate nnz (and therefore hermitian work) in the first ranges, so
  /// an epoch serializes behind the heaviest worker.
  static_rows,
  /// Rows are cut into ~8·workers chunks of roughly equal *nnz* (from the
  /// CSR row_ptr prefix) and workers pull chunks from an atomic counter, so
  /// degree skew costs at most one chunk of imbalance.
  nnz_guided,
};

inline const char* to_string(AlsSchedule schedule) {
  return schedule == AlsSchedule::static_rows ? "static" : "nnz";
}

/// Inverse of to_string(AlsSchedule) — the spellings cumf_train's
/// --schedule flag and tuned-config JSON use; std::nullopt when unknown.
inline std::optional<AlsSchedule> schedule_from_name(std::string_view name) {
  if (name == "static") {
    return AlsSchedule::static_rows;
  }
  if (name == "nnz") {
    return AlsSchedule::nnz_guided;
  }
  return std::nullopt;
}

struct AlsOptions {
  std::size_t f = 40;         ///< latent dimension
  real_t lambda = 0.05f;      ///< ALS-WR regularization (λ·n_u on diagonal)
  /// Exact or approximate `solve` step. `solver.path` is the engine's single
  /// kernel-path knob: it also selects the SIMD/scalar variant of
  /// get_hermitian_row, so one switch pins a whole training run to either
  /// path (the differential tests rely on this).
  SolverOptions solver;
  HermitianParams hermitian;  ///< tile/BIN of the memory-optimized kernel
  bool tiled_hermitian = true;  ///< false → naive reference kernel (ablation)
  /// Host threads updating rows concurrently. Row updates are independent
  /// (§II), so any worker count produces the same factors as the serial run
  /// up to floating-point associativity — and exactly the same here, since
  /// each row's arithmetic is self-contained (and independent of which
  /// worker or schedule runs it).
  int workers = 1;
  AlsSchedule schedule = AlsSchedule::nnz_guided;
  std::uint64_t seed = 1;
};

/// Everything one worker needs to update a row without touching shared
/// mutable state: the device analogue is a thread-block's scratch. Each
/// engine holds one per worker, so its SolveStats/OpCounts accounting
/// merges the same way under any worker count or schedule.
struct AlsWorkerContext {
  AlsWorkerContext(std::size_t f, const SolverOptions& options,
                   const HermitianParams& hermitian)
      : solver(f, options),
        a_scratch(solver.batch_width() * f * f),
        b_scratch(solver.batch_width() * f) {
    ws.prepare(f, hermitian);
  }
  SystemSolver solver;
  HermitianWorkspace ws;
  /// One contiguous A (f×f) and b (f) per lane of the solver's batch.
  std::vector<real_t> a_scratch;
  std::vector<real_t> b_scratch;
  OpCounts herm_ops;
  OpCounts solve_ops;
  std::uint64_t herm_ns = 0;   ///< profiled time in get_hermitian_row
  std::uint64_t solve_ns = 0;  ///< profiled time in the solve step
};

/// Measured host seconds per kernel phase, summed across workers.
/// Collected only while the cuprof tracer is enabled; zero otherwise.
struct AlsPhaseSeconds {
  double hermitian = 0.0;  ///< get_hermitian_row (load+compute+write)
  double solve = 0.0;      ///< the batched solve step
};

/// The ALS row-update hot loop over [begin, end): get_hermitian (or the
/// naive reference kernel) and optional fault injection per row, then the
/// configured solve on batches of up to ctx.solver.batch_width() rows,
/// accumulating ops/spans/stats into `ctx`. `fault_site` tags the
/// half-sweep (0 = update-X, 1 = update-Θ) so the deterministic fault
/// injector corrupts the same systems under any engine, schedule or worker
/// count. Rows never read other rows of `solved`, so any disjoint
/// partition of calls is race-free and produces bit-identical factors.
/// `row_offset` maps local row u of `ratings` to global row u + row_offset
/// of `solved` — the out-of-core engine passes each tile's first global row
/// here, so fault decisions and factor writes land on the same global ids
/// as an in-core sweep.
void als_update_rows(const AlsOptions& options, const CsrMatrix& ratings,
                     const Matrix& fixed, Matrix& solved, index_t begin,
                     index_t end, std::uint32_t fault_site,
                     AlsWorkerContext& ctx, index_t row_offset = 0);

/// The state and row sweep every explicit ALS engine shares: validated
/// options, the factors and their warm start, one AlsWorkerContext per
/// worker plus the pool, the per-epoch counter merge, restore() and the
/// solver accounting. Engines differ only in where a half-sweep's ratings
/// come from — AlsEngine holds both CSR views, OocAlsEngine streams tiles —
/// and hand each CSR to sweep().
class AlsEngineBase {
 public:
  virtual ~AlsEngineBase() = default;

  /// Runs one full epoch (update-X then update-Θ).
  virtual void run_epoch() = 0;

  /// Resumes from checkpointed state: replaces both factor matrices and the
  /// epoch counter, and seeds solve_stats() with the pre-crash cumulative
  /// stats so telemetry deltas and final totals span the whole logical run.
  /// The engine must have been constructed with the same ratings and
  /// options as the run that produced the snapshot (the worker count may
  /// differ); epochs are deterministic, so the continuation is
  /// bit-identical to never having stopped. Throws CheckError on shape
  /// mismatch.
  void restore(const Matrix& x, const Matrix& theta, int epochs_run,
               const SolveStats& stats = SolveStats{});

  int epochs_run() const noexcept { return epochs_; }
  std::size_t f() const noexcept { return options_.f; }
  const AlsOptions& options() const noexcept { return options_; }

  const Matrix& user_factors() const noexcept { return x_; }
  const Matrix& item_factors() const noexcept { return theta_; }

  /// Solver behaviour accumulated since construction (plus any restore()d
  /// baseline) across all workers. The counters are integer sums, so the
  /// totals are the same under any worker count. CG iteration counts feed
  /// the cost model; failures and the fallback counters stay 0 for λ > 0
  /// on healthy data — they move only when the approximate path degrades
  /// (FP16 overflow, CG breakdown) or a system is unsolvable even exactly,
  /// in which case the affected row keeps its previous factor instead of
  /// poisoning the model.
  SolveStats solve_stats() const noexcept;

  /// Operations actually performed per epoch (measured, not analytic).
  const OpCounts& hermitian_ops_per_epoch() const noexcept {
    return herm_ops_;
  }
  const OpCounts& solve_ops_per_epoch() const noexcept { return solve_ops_; }

  /// Per-phase host seconds summed across workers (so with W busy workers
  /// an epoch's wall time is roughly total/W).
  using PhaseSeconds = AlsPhaseSeconds;
  const PhaseSeconds& phase_seconds_last_epoch() const noexcept {
    return phase_;
  }

 protected:
  /// Checks the options, snaps the hermitian tile to a divisor of f and
  /// builds the worker contexts (and the pool when workers > 1).
  explicit AlsEngineBase(const AlsOptions& options);

  /// Sizes the factors to rows×f and cols×f and fills them with the shared
  /// warm start around `mean`.
  void warm_start(index_t rows, index_t cols, double mean);

  /// Clears the per-worker counters; call before an epoch's first sweep.
  void begin_epoch();
  /// Merges the per-worker counters into the per-epoch totals and advances
  /// the epoch counter; call after an epoch's last sweep.
  void end_epoch();

  /// Updates every row of `ratings` against `fixed` into `solved` (rows
  /// offset by `row_offset`, see als_update_rows) across the worker pool:
  /// nnz-balanced chunks pulled by the workers under
  /// AlsSchedule::nnz_guided, one equal-row range each under static_rows.
  void sweep(const CsrMatrix& ratings, const Matrix& fixed, Matrix& solved,
             std::uint32_t fault_site, index_t row_offset = 0);

  Matrix x_;      ///< m×f user factors
  Matrix theta_;  ///< n×f item factors

 private:
  AlsOptions options_;
  std::vector<AlsWorkerContext> workers_;
  std::unique_ptr<ThreadPool> pool_;  ///< only when options_.workers > 1
  int epochs_ = 0;
  OpCounts herm_ops_;
  OpCounts solve_ops_;
  PhaseSeconds phase_;
  SolveStats restored_stats_;  ///< baseline from restore(), added on read
};

/// In-core engine: both CSR views of the train ratings stay resident.
/// `--gpus G` runs this engine with G workers — the factors do not depend
/// on how rows are split — and core/multi_gpu models the G-device timeline
/// from the same two views.
class AlsEngine : public AlsEngineBase {
 public:
  AlsEngine(const RatingsCoo& train, const AlsOptions& options);

  void run_epoch() override;

  const CsrMatrix& ratings_by_row() const noexcept { return r_; }
  const CsrMatrix& ratings_by_col() const noexcept { return rt_; }

 private:
  CsrMatrix r_;   ///< train ratings, row-major (update-X view)
  CsrMatrix rt_;  ///< transpose (update-Θ view)
};

/// Largest tile size ≤ `requested` that divides f (so any f works with the
/// paper's default tile of 10).
int pick_tile(std::size_t f, int requested);

/// Shared warm start: entries near sqrt(mean/f) so x·θ begins at the global
/// rating mean.
void als_init_factors(Matrix& factors, double mean, std::uint64_t seed);

}  // namespace cumf
