// train_incore and train_ooc: whole training runs through the public engine
// entry points, from generated ratings to a model that meets the preset's
// scaled RMSE target.
//
// train_incore runs the paper's hot path (get_hermitian, FP16 pack, FP16 CG
// at f=100) with per-epoch RMSE and checkpoint writes and no tile I/O.
// train_ooc streams a Hugewiki-shaped shard store through a host budget well
// below its size with CG-FP32 at f=32, so tile decode, CRC and prefetch
// stalls take a large share of the epoch and no FP16 pack runs. An FP16
// change should move only the first; a tile-I/O change only the second.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "core/als.hpp"
#include "core/kernel_stats.hpp"
#include "core/ooc_als.hpp"
#include "data/checkpoint.hpp"
#include "data/io.hpp"
#include "data/presets.hpp"
#include "data/shards.hpp"
#include "gpusim/device.hpp"
#include "harness.hpp"
#include "metrics/rmse.hpp"
#include "prof/prof.hpp"
#include "sparse/split.hpp"

namespace e2e {
namespace {

using namespace cumf;
using Scope = Spans::Scope;

constexpr int kSetupReps = 5;
constexpr double kTestFraction = 0.1;
constexpr int kParityEpochs = 2;  ///< short streamed ≡ in-core check
/// Epoch latency is reported at p50 and p90; p90 needs ten epochs beyond
/// it, so an untraced run measures at least 100.
constexpr int kMinEpochs = 100;

/// Workload shape. `epochs` is the fixed length of one timed pass; the
/// preset's scaled target must be met within it. Below resize 0.3 the
/// Netflix shape has too few items per factor at f=100 and some seeds
/// overfit past the target.
struct TrainShape {
  double resize;
  std::size_t f;
  SolverKind solver;
  int epochs;
};

constexpr TrainShape kIncore{0.3, 100, SolverKind::CgFp16, 8};
constexpr TrainShape kOoc{1.0, 32, SolverKind::CgFp32, 6};
constexpr std::size_t kOocTiles = 8;  ///< requested tiles per view
constexpr const char* kModelDevice = "p100";

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

std::uint32_t factor_digest(const Matrix& x, const Matrix& theta) {
  const std::uint32_t d = crc32(0, x.data().data(), x.size() * sizeof(real_t));
  return crc32(d, theta.data().data(), theta.size() * sizeof(real_t));
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(real_t)) == 0;
}

AlsOptions engine_options(const TrainShape& shape, const DatasetPreset& p,
                          std::uint64_t seed, int workers) {
  AlsOptions o;
  o.f = shape.f;
  o.lambda = static_cast<real_t>(p.paper_lambda);
  o.solver.kind = shape.solver;
  o.solver.cg_fs = 6;
  o.workers = workers;
  o.schedule = AlsSchedule::nnz_guided;
  o.seed = seed;
  return o;
}

AlsKernelConfig kernel_config(const AlsOptions& o) {
  AlsKernelConfig c;
  c.f = static_cast<int>(o.f);
  c.solver = o.solver.kind;
  c.cg_fs = o.solver.cg_fs;
  c.tile = pick_tile(o.f, c.tile);
  return c;
}

/// gpusim-modeled seconds of one epoch (both half-sweeps) on kModelDevice.
/// `rows`/`cols` (the two CSR views) drive the cache-trace simulation when
/// given; otherwise the model uses synthetic uniform rows.
double modeled_epoch(const AlsOptions& options, index_t m, index_t n,
                     nnz_t nnz, const CsrMatrix* rows, const CsrMatrix* cols) {
  const auto dev = gpusim::device_by_name(kModelDevice);
  const AlsKernelConfig cfg = kernel_config(options);
  const auto z = static_cast<double>(nnz);
  const Scope s("update_phase_times");
  return update_phase_times(dev, {double(m), double(n), z}, cfg, rows)
             .total_seconds() +
         update_phase_times(dev, {double(n), double(m), z}, cfg, cols)
             .total_seconds();
}

/// Everything one set-up produces: the held-out split, the built engine and
/// its initial factors (each pass restores them), and the modeled epoch.
template <typename Engine>
struct Prepared {
  DatasetPreset preset;
  RatingsCoo train;
  RatingsCoo test;
  Rng::State split_rng;
  double target = 0.0;
  std::unique_ptr<Engine> engine;
  Matrix x0;
  Matrix theta0;
  double modeled_epoch_s = 0.0;
  std::uint64_t shard_bytes = 0;
};

/// Generate → write text → parse → split: the data path both train
/// workloads share. Returns the parsed ratings.
RatingsCoo load_ratings(const DatasetPreset& preset, const std::string& path,
                        double& noise_floor) {
  SyntheticDataset data;
  {
    const Scope s("generate");
    data = generate(preset);
  }
  noise_floor = data.noise_floor_rmse;
  {
    const Scope s("write_ratings_file");
    write_ratings_file(path, data.ratings);
  }
  const Scope s("read_ratings_file");
  return read_ratings_file(path);
}

template <typename Engine>
void split_into(Prepared<Engine>& p, const RatingsCoo& all,
                std::uint64_t seed) {
  Rng rng(seed);
  TrainTestSplit split;
  {
    const Scope s("split_holdout");
    split = split_holdout(all, kTestFraction, rng);
  }
  p.train = std::move(split.train);
  p.test = std::move(split.test);
  p.split_rng = rng.state();
}

Prepared<AlsEngine> prepare_incore(const RunConfig& config, int workers) {
  Prepared<AlsEngine> p;
  p.preset = DatasetPreset::netflix().resized(kIncore.resize);
  p.preset.scaled.seed = config.seed;
  double floor = 0.0;
  const RatingsCoo all =
      load_ratings(p.preset, config.workdir + "/ratings.txt", floor);
  p.target = floor * 1.22;
  split_into(p, all, config.seed);
  const AlsOptions options =
      engine_options(kIncore, p.preset, config.seed, workers);
  {
    const Scope s("AlsEngine");
    p.engine = std::make_unique<AlsEngine>(p.train, options);
  }
  p.x0 = p.engine->user_factors();
  p.theta0 = p.engine->item_factors();
  p.modeled_epoch_s =
      modeled_epoch(options, p.train.rows(), p.train.cols(), p.train.nnz(),
                    &p.engine->ratings_by_row(), &p.engine->ratings_by_col());
  return p;
}

std::uint64_t largest_resident(const ShardMeta& meta, std::uint64_t& total) {
  std::uint64_t largest = 0;
  total = 0;
  for (const auto* table : {&meta.row_tiles, &meta.col_tiles}) {
    for (const TileRange& t : *table) {
      largest = std::max(largest, tile_resident_bytes(t));
      total += tile_resident_bytes(t);
    }
  }
  return largest;
}

Prepared<OocAlsEngine> prepare_ooc(const RunConfig& config, int workers) {
  Prepared<OocAlsEngine> p;
  p.preset = DatasetPreset::hugewiki().resized(kOoc.resize);
  p.preset.scaled.seed = config.seed;
  double floor = 0.0;
  const RatingsCoo all =
      load_ratings(p.preset, config.workdir + "/ratings.txt", floor);
  p.target = floor * 1.22;
  // The in-core split is the parity reference; write_shards replays the
  // same Rng(seed) sequence, so both see identical train/test sets.
  split_into(p, all, config.seed);
  const std::string dir = config.workdir + "/shards";
  ShardMeta meta;
  {
    const Scope s("write_shards");
    meta = write_shards(dir, all, {kOocTiles, kTestFraction, config.seed});
  }
  for (const auto* table : {&meta.row_tiles, &meta.col_tiles}) {
    for (const TileRange& t : *table) {
      p.shard_bytes += t.bytes;
    }
  }
  std::uint64_t total = 0;
  const std::uint64_t largest = largest_resident(meta, total);
  OocOptions ooc;
  // A quarter of the decoded store, but room for the two tiles prefetch
  // keeps in flight.
  ooc.host_mem_bytes = std::max(2 * largest, total / 4);
  ooc.overlap = true;
  const AlsOptions options = engine_options(kOoc, p.preset, config.seed, workers);
  {
    const Scope s("OocAlsEngine");
    p.engine = std::make_unique<OocAlsEngine>(dir, options, ooc);
  }
  p.x0 = p.engine->user_factors();
  p.theta0 = p.engine->item_factors();
  p.modeled_epoch_s = modeled_epoch(options, p.train.rows(), p.train.cols(),
                                    p.train.nnz(), nullptr, nullptr);
  return p;
}

/// Counters one pass accumulates from the engines' public getters.
struct PassCounters {
  SolveStats solve;
  OpCounts herm_ops;
  OpCounts solve_ops;
  double hermitian_s = 0.0;  ///< summed across workers
  double solve_s = 0.0;      ///< summed across workers
  OocEpochStats ooc;         ///< summed over the pass's epochs
  std::uint64_t ckpt_bytes = 0;
};

struct PassResult {
  std::vector<double> epoch_s;  ///< run_epoch + rmse (+ checkpoint)
  double wall_s = 0.0;
  std::optional<double> time_to_target_s;
  double final_rmse = 0.0;
  std::vector<double> rmse;  ///< held-out RMSE after each epoch
  std::uint32_t digest = 0;
  PassCounters counters;
};

void add_ooc(OocEpochStats& sum, const OocEpochStats& e) {
  sum.stall_s += e.stall_s;
  sum.compute_s += e.compute_s;
  sum.load_s += e.load_s;
  sum.tiles += e.tiles;
  sum.cache_hits += e.cache_hits;
  sum.cache_misses += e.cache_misses;
  sum.bytes_loaded += e.bytes_loaded;
}

void write_checkpoint(const Prepared<AlsEngine>& p, const std::string& path,
                      const std::vector<ConvergenceTracker::Point>& curve,
                      double train_s, PassCounters& c) {
  const AlsEngine& e = *p.engine;
  TrainCheckpoint ckpt;
  ckpt.epoch = static_cast<std::uint32_t>(e.epochs_run());
  ckpt.rng = p.split_rng;
  ckpt.train_seconds = train_s;
  ckpt.solve_stats = e.solve_stats();
  ckpt.curve = curve;
  ckpt.x = e.user_factors();
  ckpt.theta = e.item_factors();
  ckpt.seed = e.options().seed;
  ckpt.f = e.f();
  ckpt.solver_kind = static_cast<std::uint32_t>(e.options().solver.kind);
  ckpt.cg_fs = e.options().solver.cg_fs;
  ckpt.lambda = e.options().lambda;
  ckpt.rows = static_cast<std::uint32_t>(p.train.rows());
  ckpt.cols = static_cast<std::uint32_t>(p.train.cols());
  ckpt.train_nnz = p.train.nnz();
  {
    const Scope s("write_checkpoint_file");
    write_checkpoint_file(path, ckpt);
  }
  c.ckpt_bytes += std::filesystem::file_size(path);
}

/// One timed pass: restore the initial factors, then `epochs` epochs, each
/// followed by held-out RMSE (and a checkpoint for the in-core engine).
template <typename Engine>
PassResult run_pass(Prepared<Engine>& p, int epochs,
                    const std::string& ckpt_path) {
  Engine& engine = *p.engine;
  engine.restore(p.x0, p.theta0, 0);
  PassResult out;
  std::vector<ConvergenceTracker::Point> curve;
  const double start = now_s();
  double due = start;
  for (int e = 1; e <= epochs; ++e) {
    {
      const Scope s("run_epoch");
      engine.run_epoch();
    }
    double r = 0.0;
    {
      const Scope s("rmse");
      r = rmse(p.test, engine.user_factors(), engine.item_factors());
    }
    PassCounters& c = out.counters;
    c.herm_ops += engine.hermitian_ops_per_epoch();
    c.solve_ops += engine.solve_ops_per_epoch();
    c.hermitian_s += engine.phase_seconds_last_epoch().hermitian;
    c.solve_s += engine.phase_seconds_last_epoch().solve;
    if constexpr (std::is_same_v<Engine, OocAlsEngine>) {
      add_ooc(c.ooc, engine.ooc_stats_last_epoch());
    } else {
      curve.push_back({now_s() - start, r, e});
      write_checkpoint(p, ckpt_path, curve, now_s() - start, c);
    }
    const double done = now_s();
    out.epoch_s.push_back(done - due);
    due = done;
    if (!out.time_to_target_s && r <= p.target) {
      out.time_to_target_s = done - start;
    }
    out.final_rmse = r;
    out.rmse.push_back(r);
  }
  out.wall_s = now_s() - start;
  out.counters.solve = engine.solve_stats();
  out.digest = factor_digest(engine.user_factors(), engine.item_factors());
  return out;
}

using TimedPhase = std::vector<PassResult>;

std::vector<double> walls_of(const TimedPhase& phase) {
  std::vector<double> walls;
  for (const PassResult& r : phase) {
    walls.push_back(r.wall_s);
  }
  return walls;
}

/// Runs passes until `budget_s` has elapsed and at least `min_epochs`
/// epochs ran.
template <typename Engine>
TimedPhase run_passes(Prepared<Engine>& p, int epochs, double budget_s,
                      int min_epochs, const std::string& ckpt_path) {
  TimedPhase out;
  const double start = now_s();
  do {
    const Scope s("pass");
    out.push_back(run_pass(p, epochs, ckpt_path));
  } while (now_s() - start < budget_s ||
           static_cast<int>(out.size()) * epochs < min_epochs);
  return out;
}

double gb(double bytes) { return bytes * 1e-9; }

/// Per-layer numbers from the traced passes (per pass) and the traced
/// set-ups (per set-up).
template <typename Engine>
void report_layers(Report& report, const Prepared<Engine>& p,
                   const TimedPhase& traced,
                   const std::map<std::string, Spans::Stat>& setup,
                   const std::map<std::string, Spans::Stat>& timed) {
  const double passes = static_cast<double>(traced.size());
  const auto self = [](const std::map<std::string, Spans::Stat>& m,
                       const char* name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second.self_s;
  };
  const std::string host = "measured host, benchmark span self time";
  report.metric("data.parse_s", self(setup, "read_ratings_file") / kSetupReps,
                "s", host + " per set-up");
  report.metric("data.split_s", self(setup, "split_holdout") / kSetupReps, "s",
                host + " per set-up");
  report.metric("data.shard_write_s", self(setup, "write_shards") / kSetupReps,
                "s", host + " per set-up");
  report.metric("data.shard_bytes", static_cast<double>(p.shard_bytes), "B",
                "counted, on-disk tile bytes");
  report.metric("core.engine_build_s",
                (self(setup, "AlsEngine") + self(setup, "OocAlsEngine")) /
                    kSetupReps,
                "s", host + " per set-up");
  report.metric("data.ckpt_write_s",
                self(timed, "write_checkpoint_file") / passes, "s",
                host + " per pass");
  report.metric("metrics.rmse_s", self(timed, "rmse") / passes, "s",
                host + " per pass");
  const auto sgp = timed.find("update_phase_times");
  report.metric("gpusim.calls",
                sgp == timed.end() ? 0.0 : double(sgp->second.count) / passes,
                "count", "counted, cost-model calls per timed pass");
  const auto ssetup = setup.find("update_phase_times");
  if (ssetup != setup.end()) {
    report.metric("gpusim.phase_times_s",
                  ssetup->second.self_s / double(ssetup->second.count), "s",
                  "measured host per call, set-up modeled-epoch call");
  }

  std::vector<double> epochs;
  PassCounters sum;
  for (const PassResult& r : traced) {
    epochs.insert(epochs.end(), r.epoch_s.begin(), r.epoch_s.end());
    const PassCounters& c = r.counters;
    sum.solve += c.solve;
    sum.herm_ops += c.herm_ops;
    sum.solve_ops += c.solve_ops;
    sum.hermitian_s += c.hermitian_s;
    sum.solve_s += c.solve_s;
    add_ooc(sum.ooc, c.ooc);
    sum.ckpt_bytes += c.ckpt_bytes;
  }
  report.metric("core.epoch_s_median", median(epochs), "s",
                "measured host, run_epoch + rmse (+ checkpoint)");
  report.metric("core.epoch_s_max",
                *std::max_element(epochs.begin(), epochs.end()), "s",
                "measured host, run_epoch + rmse (+ checkpoint)");
  report.metric("core.hermitian_s", sum.hermitian_s / passes, "s",
                "measured host per pass, summed across workers");
  report.metric("core.solve_s", sum.solve_s / passes, "s",
                "measured host per pass, summed across workers");
  report.metric("core.ooc_stall_s", sum.ooc.stall_s / passes, "s",
                "measured host per pass");
  report.metric("core.ooc_compute_s", sum.ooc.compute_s / passes, "s",
                "measured host per pass");
  report.metric("data.tile_load_s", sum.ooc.load_s / passes, "s",
                "measured host per pass");
  report.metric("data.tile_bytes", double(sum.ooc.bytes_loaded) / passes, "B",
                "counted per pass");
  report.metric("data.tile_hits", double(sum.ooc.cache_hits) / passes,
                "count", "counted per pass");
  report.metric("data.tile_misses", double(sum.ooc.cache_misses) / passes,
                "count", "counted per pass");
  const double fetches = double(sum.ooc.cache_hits + sum.ooc.cache_misses);
  report.metric("data.tile_hit_ratio",
                fetches > 0 ? double(sum.ooc.cache_hits) / fetches : 0.0,
                "ratio", "counted");
  report.metric("data.ckpt_bytes", double(sum.ckpt_bytes) / passes, "B",
                "counted per pass");
  const std::string computed = "computed from OpCounts, per pass";
  report.metric("core.hermitian_gflop", sum.herm_ops.flops * 1e-9 / passes,
                "GFLOP", computed);
  report.metric("core.hermitian_gb", gb(sum.herm_ops.bytes()) / passes, "GB",
                computed);
  report.metric("core.solve_gflop", sum.solve_ops.flops * 1e-9 / passes,
                "GFLOP", computed);
  report.metric("core.solve_gb", gb(sum.solve_ops.bytes()) / passes, "GB",
                computed);
  report.metric("core.solve_flop_per_byte", sum.solve_ops.intensity(),
                "FLOP/B", "computed from OpCounts");
  const SolveStats& s = sum.solve;
  report.metric("solver.systems", double(s.systems) / passes, "count",
                "counted per pass");
  report.metric("solver.cg_iters_per_system",
                s.systems > 0 ? double(s.cg_iterations) / double(s.systems)
                              : 0.0,
                "count", "counted");
  report.metric("solver.fp16_pack_mb",
                double(s.fp16_converted) * 2.0 / 1e6 / passes, "MB",
                "counted per pass, FP16 elements x 2 bytes");
  report.metric("solver.cg_fallbacks", double(s.cg_fallbacks) / passes,
                "count", "counted per pass");
  report.metric("solver.fp16_fallbacks", double(s.fp16_fallbacks) / passes,
                "count", "counted per pass");
  report.metric("solver.failures", double(s.failures) / passes, "count",
                "counted per pass");
}

template <typename Engine>
void run_train(const RunConfig& config, Report& report, int workers,
               Prepared<Engine> (*prepare)(const RunConfig&, int)) {
  Spans& spans = Spans::instance();
  const bool ooc = std::is_same_v<Engine, OocAlsEngine>;
  const TrainShape& shape = ooc ? kOoc : kIncore;

  // Set-up, repeated; the last one's engine is the one timed. Traced runs
  // trace the set-ups too, for the data-layer numbers.
  spans.set_enabled(config.trace);
  const Scope run("run");  // parent of every span this run records
  std::vector<double> setup_s;
  Prepared<Engine> p;
  std::uint64_t setup_root = 0;
  {
    const Scope root("setup");
    setup_root = root.id();
    for (int rep = 0; rep < kSetupReps; ++rep) {
      p = Prepared<Engine>{};  // release the previous engine first
      const double t0 = now_s();
      const Scope s("setup_rep");
      p = prepare(config, workers);
      setup_s.push_back(now_s() - t0);
    }
  }
  spans.set_enabled(false);
  report.note("dataset: " + p.preset.name + " resized x" +
              std::to_string(shape.resize) + ", " +
              std::to_string(p.train.rows()) + " x " +
              std::to_string(p.train.cols()) + ", train nnz " +
              std::to_string(p.train.nnz()) + ", test nnz " +
              std::to_string(p.test.nnz()) + "; f=" + std::to_string(shape.f) +
              ", solver " + to_string(shape.solver) + " fs=6, " +
              std::to_string(shape.epochs) + " epochs per pass");
  report.note("scaled RMSE target " + std::to_string(p.target) +
              " (noise floor x 1.22)");
  if constexpr (ooc) {
    report.note("shard store: " +
                std::to_string(p.engine->meta().row_tiles.size()) + " row + " +
                std::to_string(p.engine->meta().col_tiles.size()) +
                " col tiles, " + std::to_string(p.shard_bytes) +
                " B on disk; host budget " +
                std::to_string(p.engine->cache_budget_bytes()) +
                " B; overlap " + (p.engine->overlap_active() ? "on" : "off"));
  }
  char line[160];
  std::snprintf(line, sizeof line,
                "modeled_epoch_s %.6g s [modeled %s, %s]", p.modeled_epoch_s,
                kModelDevice,
                ooc ? "update_phase_times, synthetic rows of the train shape"
                    : "update_phase_times with the workload's rows");
  report.note(line);

  const std::string ckpt = config.workdir + "/ckpt.bin";
  const double untraced_budget =
      config.trace ? config.seconds / 2 : config.seconds;
  const TimedPhase untraced =
      run_passes(p, shape.epochs, untraced_budget,
                 config.trace ? 1 : kMinEpochs, ckpt);

  TimedPhase traced;
  std::uint64_t timed_root = 0;
  if (config.trace) {
    prof::Tracer::instance().enable();
    spans.set_enabled(true);
    {
      const Scope root("timed");
      timed_root = root.id();
      traced = run_passes(p, shape.epochs, config.seconds / 2, 1, ckpt);
    }
    spans.set_enabled(false);
    prof::Tracer::instance().disable();
  }

  // Operations: every run_epoch, rmse and checkpoint call; a pass that
  // never reaches the target counts as one more failure.
  std::vector<double> epochs, ttt;
  std::uint64_t missed = 0;
  bool deterministic = true;
  const PassResult& first = untraced.front();
  const TimedPhase* phases[] = {&untraced, &traced};
  for (const TimedPhase* phase : phases) {
    for (const PassResult& r : *phase) {
      report.attempted(r.epoch_s.size() * (ooc ? 2 : 3) + 1);
      missed += r.time_to_target_s ? 0 : 1;
      deterministic = deterministic && r.digest == first.digest;
    }
  }
  report.failed(missed);
  for (const PassResult& r : untraced) {
    epochs.insert(epochs.end(), r.epoch_s.begin(), r.epoch_s.end());
    if (r.time_to_target_s) {
      ttt.push_back(*r.time_to_target_s);
    }
  }

  std::string curve = "test RMSE by epoch (first pass):";
  for (const double r : first.rmse) {
    char buf[16];
    std::snprintf(buf, sizeof buf, " %.4f", r);
    curve += buf;
  }
  report.note(curve);
  report.check("test_rmse<=target", missed == 0 && first.final_rmse <= p.target,
               "final test RMSE " + std::to_string(first.final_rmse) +
                   ", target " + std::to_string(p.target) + ", " +
                   std::to_string(missed) + " pass(es) missed it");
  report.check(config.trace ? "factor digest traced==untraced"
                            : "factor digest equal across passes",
               deterministic, "digest " + hex(first.digest));

  if constexpr (ooc) {
    // Streamed ≡ in-core on the same split, on a short run outside the
    // timed phase.
    AlsEngine reference(p.train, p.engine->options());
    p.engine->restore(p.x0, p.theta0, 0);
    for (int e = 0; e < kParityEpochs; ++e) {
      reference.run_epoch();
      p.engine->run_epoch();
    }
    report.check("ooc factors==AlsEngine",
                 same_bits(reference.user_factors(),
                           p.engine->user_factors()) &&
                     same_bits(reference.item_factors(),
                               p.engine->item_factors()),
                 std::to_string(kParityEpochs) + " epochs, bit-identical");
  }

  if (config.trace) {
    const auto setup = spans.aggregate(setup_root);
    const auto timed = spans.aggregate(timed_root);
    report.spans("set-ups", setup);
    report.spans("passes", timed);
    report_layers(report, p, traced, setup, timed);
    report.metric("prof.trace_dropped",
                  double(prof::Tracer::instance().total_dropped()), "count",
                  "counted, library tracer ring events dropped");
    report.metric("prof.trace_overhead",
                  median(walls_of(traced)) / median(walls_of(untraced)),
                  "ratio",
                  "measured host, traced / untraced pass wall");
    return;
  }

  const auto p90 = percentile(epochs, 0.9);
  if (!p90) {
    throw std::runtime_error("too few epochs for a p90");
  }
  report.metric("setup_s", median(setup_s), "s",
                "measured host, median of " + std::to_string(kSetupReps) +
                    " set-ups");
  report.metric("run_s", median(walls_of(untraced)), "s",
                "measured host, median of " + std::to_string(untraced.size()) +
                    " passes of " + std::to_string(shape.epochs) + " epochs");
  report.metric("op_p50_ms", median(epochs) * 1e3, "ms",
                "measured host, epoch latency p50 of " +
                    std::to_string(epochs.size()));
  report.metric("op_p90_ms", *p90 * 1e3, "ms",
                "measured host, epoch latency p90 of " +
                    std::to_string(epochs.size()));
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", "measured, getrusage");
  if (ttt.size() == untraced.size()) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "time_to_target_s %.6g s [measured host, median of %zu "
                  "passes]; test_rmse %.6g",
                  median(ttt), ttt.size(), first.final_rmse);
    report.note(buf);
  }
}

}  // namespace

void run_train_incore(const RunConfig& config, Report& report) {
  const int workers = config.threads;
  report.note("threads: engine workers " + std::to_string(workers));
  run_train<AlsEngine>(config, report, workers, &prepare_incore);
}

void run_train_ooc(const RunConfig& config, Report& report) {
  // The prefetch thread counts against the CPU budget too.
  const int workers = std::max(1, config.threads - 1);
  report.note("threads: engine workers " + std::to_string(workers) +
              " + 1 tile prefetch");
  run_train<OocAlsEngine>(config, report, workers, &prepare_ooc);
}

}  // namespace e2e
