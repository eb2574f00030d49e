// model_sweep: the gpusim cost model as a host-time layer.
//
// A single-threaded sweep of update_phase_times (both half-sweeps) and
// hermitian_load_stats over the grid behind Figs. 4/5/7: the full-scale
// Table II shapes of Netflix and YahooMusic on K40, Titan X and P100, with
// solver {LU, CG-FP32, CG-FP16} and load scheme {coalesced, non-coalesced
// L1}. Hugewiki calls cost seconds each, so it contributes one point. The
// grid repeats each device × shape × scheme cache trace across the three
// solvers, which is what a memo of the cost model would reuse. No other
// workload calls the cost model in its timed phase.
//
// Set-up builds the grid and models the baseline, YahooMusic with the
// default kernel configuration on P100, as a tuner does before it compares
// variants. The seed only permutes the visiting order; the modeled seconds are a
// pure function of the grid, and their digest must equal kSweepDigest, so
// a change that silently alters the model fails the run.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "core/kernel_stats.hpp"
#include "data/presets.hpp"
#include "gpusim/device.hpp"
#include "gpusim/occupancy.hpp"
#include "harness.hpp"
#include "prof/prof.hpp"

namespace e2e {
namespace {

using namespace cumf;
using Scope = Spans::Scope;

/// CRC-32 of every modeled number of the grid, in grid order.
constexpr std::uint32_t kSweepDigest = 0xf26516c7;
constexpr int kSetupReps = 5;
constexpr int kCallsPerPoint = 3;
/// The operation timed is one grid point (its three cost-model calls); a
/// p90 over 37 points per pass needs three passes for ten points beyond.
constexpr int kMinPasses = 3;

struct Point {
  DatasetPreset preset;
  gpusim::DeviceSpec device;
  AlsKernelConfig config;
};

struct Modeled {
  UpdatePhaseTimes x;
  UpdatePhaseTimes theta;
  gpusim::TraceStats load;
};

std::vector<Point> build_grid() {
  std::vector<Point> grid;
  const gpusim::DeviceSpec devices[] = {gpusim::DeviceSpec::kepler_k40(),
                                        gpusim::DeviceSpec::maxwell_titan_x(),
                                        gpusim::DeviceSpec::pascal_p100()};
  const SolverKind solvers[] = {SolverKind::LuFp32, SolverKind::CgFp32,
                                SolverKind::CgFp16};
  const LoadScheme schemes[] = {LoadScheme::Coalesced,
                                LoadScheme::NonCoalescedL1};
  for (const DatasetPreset& p :
       {DatasetPreset::netflix(), DatasetPreset::yahoomusic()}) {
    for (const auto& dev : devices) {
      for (const SolverKind solver : solvers) {
        for (const LoadScheme scheme : schemes) {
          AlsKernelConfig c;
          c.f = p.paper_f;
          c.solver = solver;
          c.load_scheme = scheme;
          grid.push_back({p, dev, c});
        }
      }
    }
  }
  AlsKernelConfig c;
  c.f = 100;
  c.solver = SolverKind::CgFp16;
  c.load_scheme = LoadScheme::Coalesced;
  grid.push_back(
      {DatasetPreset::hugewiki(), gpusim::DeviceSpec::pascal_p100(), c});
  // Every configuration must fit on its device before it is modeled.
  for (const Point& pt : grid) {
    if (hermitian_occupancy(pt.device, pt.config).blocks_per_sm <= 0) {
      throw std::runtime_error("infeasible sweep point on " + pt.device.name);
    }
  }
  return grid;
}

UpdateShape x_shape(const DatasetPreset& p) {
  return {double(p.full_m), double(p.full_n), double(p.full_nnz)};
}
UpdateShape theta_shape(const DatasetPreset& p) {
  return {double(p.full_n), double(p.full_m), double(p.full_nnz)};
}

/// One pass over the grid in `order`; per-point latencies go to
/// `points_ms`.
std::vector<Modeled> sweep(const std::vector<Point>& grid,
                           const std::vector<std::size_t>& order,
                           std::vector<double>& points_ms) {
  std::vector<Modeled> out(grid.size());
  for (const std::size_t i : order) {
    const Point& pt = grid[i];
    Modeled& m = out[i];
    const double t0 = now_s();
    {
      const Scope s("update_phase_times");
      m.x = update_phase_times(pt.device, x_shape(pt.preset), pt.config);
    }
    {
      const Scope s("update_phase_times");
      m.theta =
          update_phase_times(pt.device, theta_shape(pt.preset), pt.config);
    }
    {
      const Scope s("hermitian_load_stats");
      m.load = hermitian_load_stats(pt.device, x_shape(pt.preset), pt.config);
    }
    points_ms.push_back((now_s() - t0) * 1e3);
  }
  return out;
}

std::uint32_t sweep_digest(const std::vector<Modeled>& modeled) {
  std::vector<double> values;
  for (const Modeled& m : modeled) {
    for (const UpdatePhaseTimes* t : {&m.x, &m.theta}) {
      for (const gpusim::KernelTime* k :
           {&t->load, &t->compute, &t->write, &t->solve}) {
        values.insert(values.end(), {k->seconds, k->t_compute, k->t_dram,
                                     k->t_l2, k->t_latency});
      }
    }
    values.insert(values.end(),
                  {double(m.load.line_accesses), double(m.load.l1_hits),
                   double(m.load.l2_hits), double(m.load.dram_accesses)});
  }
  return crc32(0, values.data(), values.size() * sizeof(double));
}

}  // namespace

void run_model_sweep(const RunConfig& config, Report& report) {
  report.note("threads: 1 (the cost model is single-threaded)");
  Spans& spans = Spans::instance();
  spans.set_enabled(config.trace);
  const Scope run("run");  // parent of every span this run records
  std::vector<double> setup_s;
  std::vector<Point> grid;
  std::vector<std::size_t> order;
  double baseline_s = 0.0;
  {
    const Scope root("setup");
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const double t0 = now_s();
      grid = build_grid();
      const DatasetPreset base = DatasetPreset::yahoomusic();
      const auto p100 = gpusim::DeviceSpec::pascal_p100();
      {
        const Scope s("update_phase_times");
        baseline_s = update_phase_times(p100, x_shape(base), {}).total_seconds() +
                     update_phase_times(p100, theta_shape(base), {})
                         .total_seconds();
      }
      order.resize(grid.size());
      for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
      }
      Rng rng(config.seed);
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.uniform_index(i)]);
      }
      setup_s.push_back(now_s() - t0);
    }
  }
  spans.set_enabled(false);
  report.note("baseline epoch " + std::to_string(baseline_s) +
              " s [modeled P100, YahooMusic, default kernel config]");
  report.note(std::to_string(grid.size()) +
              " grid points x 3 cost-model calls per pass (f=100; Netflix, "
              "YahooMusic full grid, one Hugewiki point)");

  std::vector<double> points_ms;
  std::vector<double> walls;
  std::vector<std::uint32_t> digests;
  const double budget = config.trace ? config.seconds / 2 : config.seconds;
  const int min_passes = config.trace ? 1 : kMinPasses;
  const double t_start = now_s();
  do {
    const double t0 = now_s();
    digests.push_back(sweep_digest(sweep(grid, order, points_ms)));
    walls.push_back(now_s() - t0);
  } while (now_s() - t_start < budget ||
           static_cast<int>(walls.size()) < min_passes);

  std::vector<double> traced_walls;
  std::uint64_t timed_root = 0;
  std::vector<double> traced_points_ms;
  if (config.trace) {
    prof::Tracer::instance().enable();
    spans.set_enabled(true);
    {
      const Scope root("timed");
      timed_root = root.id();
      const double t1 = now_s();
      do {
        const Scope pass("pass");
        const double t0 = now_s();
        digests.push_back(sweep_digest(sweep(grid, order, traced_points_ms)));
        traced_walls.push_back(now_s() - t0);
      } while (now_s() - t1 < config.seconds / 2);
    }
    spans.set_enabled(false);
    prof::Tracer::instance().disable();
  }
  report.attempted((points_ms.size() + traced_points_ms.size()) *
                   kCallsPerPoint);

  bool stable = true;
  for (const std::uint32_t d : digests) {
    stable = stable && d == digests.front();
  }
  char detail[96];
  std::snprintf(detail, sizeof detail, "digest %08x, stored %08x",
                digests.front(), kSweepDigest);
  report.check("modeled seconds digest", stable && digests.front() == kSweepDigest,
               detail);

  if (config.trace) {
    const auto timed = spans.aggregate(timed_root);
    report.spans("passes", timed);
    const auto per_call = [&](const char* name) {
      const auto it = timed.find(name);
      return it == timed.end() ? 0.0
                               : it->second.self_s / double(it->second.count);
    };
    const auto count = [&](const char* name) {
      const auto it = timed.find(name);
      return it == timed.end() ? 0.0 : double(it->second.count);
    };
    const double passes = double(traced_walls.size());
    report.metric("gpusim.phase_times_s", per_call("update_phase_times"), "s",
                  "measured host per call");
    report.metric("gpusim.load_stats_s", per_call("hermitian_load_stats"), "s",
                  "measured host per call");
    report.metric("gpusim.calls",
                  (count("update_phase_times") +
                   count("hermitian_load_stats")) / passes,
                  "count", "counted, cost-model calls per timed pass");
    report.metric("prof.trace_dropped",
                  double(prof::Tracer::instance().total_dropped()), "count",
                  "counted, library tracer ring events dropped");
    report.metric("prof.trace_overhead", median(traced_walls) / median(walls),
                  "ratio", "measured host, traced / untraced pass wall");
    return;
  }

  const auto p90 = percentile(points_ms, 0.9);
  if (!p90) {
    throw std::runtime_error("too few grid points for a p90");
  }
  const std::string n = std::to_string(points_ms.size());
  report.metric("setup_s", median(setup_s), "s",
                "measured host, median of " + std::to_string(kSetupReps) +
                    " grid builds with the baseline model");
  report.metric("run_s", median(walls), "s",
                "measured host, median of " + std::to_string(walls.size()) +
                    " passes over the grid");
  report.metric("op_p50_ms", median(points_ms), "ms",
                "measured host, grid-point latency p50 of " + n);
  report.metric("op_p90_ms", *p90, "ms",
                "measured host, grid-point latency p90 of " + n);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", "measured, getrusage");
}

}  // namespace e2e
