// bench_multi_gpu — the multi-device scaling benchmark (Fig. 6/8's four-GPU
// runs).
//
// Three sections:
//   1. Native check: AlsEngine with 1 vs 4 workers (what `--gpus 4` runs)
//      over a scaled Netflix-shaped dataset — factors and merged SolveStats
//      must be bit-identical (ALS row updates are independent), while the
//      4-worker run updates rows concurrently.
//   2. Sharded model: nnz-balanced device shards of the same data fed
//      through the interconnect-aware timeline (ragged ring all-gather +
//      pipelined overlap) at the paper's rank.
//   3. Full-scale model: the same per-half-sweep formula evaluated at the
//      Table II sizes for 1/2/4 devices on PCIe 3.0 vs NVLink — the numbers
//      comparable to the publication, and the ones the CI perf-smoke gate
//      asserts on (they come from the analytic cost model, so they are
//      deterministic across machines).
//
// Writes BENCH_multi_gpu.json for tools/bench_compare.py.
//
// Usage: bench_multi_gpu [--quick] [--out PATH]
//   --quick  shrink the native dataset and epochs (CI smoke)
//   --out    output JSON path (default: BENCH_multi_gpu.json)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "core/multi_gpu.hpp"
#include "data/generator.hpp"
#include "data/presets.hpp"
#include "gpusim/interconnect.hpp"

namespace {

using namespace cumf;

bool same_bits(const Matrix& a, const Matrix& b) {
  const auto da = a.data();
  const auto db = b.data();
  return da.size() == db.size() &&
         std::equal(da.begin(), da.end(), db.begin());
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Full-scale modeled epoch on `gpus` devices: even row shards (at Table II
/// scale the nnz-balanced cuts converge to the even split) through the same
/// per-half-sweep model as the sharded timeline.
MultiGpuScaling model_full_scale(const gpusim::DeviceSpec& dev,
                                 const DatasetPreset& preset,
                                 const AlsKernelConfig& kc,
                                 const gpusim::LinkSpec& link, int gpus) {
  const double m = static_cast<double>(preset.full_m);
  const double n = static_cast<double>(preset.full_n);
  const double nnz = static_cast<double>(preset.full_nnz);
  const double g = gpus;
  MultiGpuScaling out;
  out.gpus = gpus;
  const UpdateShape x_full{m, n, nnz};
  const UpdateShape t_full{n, m, nnz};
  out.single_gpu_s = update_phase_times(dev, x_full, kc).total_seconds() +
                     update_phase_times(dev, t_full, kc).total_seconds();
  for (const UpdateShape& shape :
       {UpdateShape{m / g, n, nnz / g}, UpdateShape{n / g, m, nnz / g}}) {
    const std::vector<UpdateShape> devices(static_cast<std::size_t>(gpus),
                                           shape);
    const MultiGpuHalfSweep sweep =
        multi_gpu_half_sweep(dev, kc, link, devices);
    out.compute_s += sweep.compute_s;
    out.comm_s += sweep.comm_s;
    out.total_s += sweep.seconds();
  }
  out.speedup = out.total_s > 0 ? out.single_gpu_s / out.total_s : 0.0;
  out.efficiency = out.speedup / g;
  out.comm_fraction = out.total_s > 0 ? out.comm_s / out.total_s : 0.0;
  return out;
}

void print_scaling_row(const char* tag, const MultiGpuScaling& s) {
  std::printf("  %-24s %d GPU%s  epoch %9.3f s  speedup %5.2fx  "
              "eff %5.1f%%  comm %5.1f%%\n",
              tag, s.gpus, s.gpus == 1 ? " " : "s", s.total_s, s.speedup,
              s.efficiency * 100.0, s.comm_fraction * 100.0);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_multi_gpu.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  bench::print_header("bench_multi_gpu",
                      "multi-device scaling: nnz shards + interconnect model");

  // --- 1. native concurrent run: 4 devices must match 1 bit-for-bit ------
  SyntheticConfig cfg;
  cfg.m = quick ? 2'000 : 6'000;
  cfg.n = quick ? 120 : 250;
  cfg.nnz = quick ? 60'000 : 300'000;
  cfg.row_zipf = 0.8;
  cfg.seed = 4242;
  const auto data = generate_synthetic(cfg);
  const int epochs = quick ? 2 : 3;

  AlsOptions opt;
  opt.f = 16;
  opt.lambda = static_cast<real_t>(0.05);
  opt.seed = 99;

  std::map<std::string, double> native_json;
  Matrix ref_x, ref_theta;
  SolveStats ref_stats;
  bool identical = true;
  for (const int gpus : {1, 4}) {
    opt.workers = gpus;
    AlsEngine engine(data.ratings, opt);
    Stopwatch sw;
    for (int e = 0; e < epochs; ++e) {
      engine.run_epoch();
    }
    const double secs = sw.seconds();
    native_json["epoch_s_gpus" + std::to_string(gpus)] =
        secs / static_cast<double>(epochs);
    std::printf("  native %d-device epoch (m=%u, nnz=%llu, f=%zu): %.3f s\n",
                gpus, cfg.m,
                static_cast<unsigned long long>(data.ratings.nnz()), opt.f,
                secs / epochs);
    if (gpus == 1) {
      ref_x = engine.user_factors();
      ref_theta = engine.item_factors();
      ref_stats = engine.solve_stats();
    } else {
      identical = same_bits(engine.user_factors(), ref_x) &&
                  same_bits(engine.item_factors(), ref_theta) &&
                  engine.solve_stats() == ref_stats;
    }
  }
  native_json["bit_identical"] = identical ? 1.0 : 0.0;
  std::printf("  4-device factors + merged SolveStats vs 1-device: %s\n",
              identical ? "bit-identical" : "MISMATCH");
  if (!identical) {
    std::fprintf(stderr, "bench_multi_gpu: bit-identity violated\n");
    return 1;
  }

  // --- 2. sharded model on the scaled data (engine's own shards) ---------
  std::printf("\n  sharded timeline on scaled Netflix shape "
              "(nnz-balanced, paper f=100):\n");
  opt.workers = 1;
  const AlsEngine views(data.ratings, opt);
  const auto dev = gpusim::DeviceSpec::pascal_p100();
  AlsKernelConfig kc;
  kc.f = 100;
  kc.solver = SolverKind::CgFp16;
  std::map<std::string, double> sharded_json;
  for (const auto& link : {gpusim::LinkSpec::pcie3(),
                           gpusim::LinkSpec::nvlink()}) {
    for (const int gpus : {1, 2, 4}) {
      const MultiGpuScaling s = multi_gpu_scaling(
          dev, kc, link, views.ratings_by_row(), views.ratings_by_col(), gpus,
          opt.schedule);
      const std::string tag =
          (link.name == "NVLink" ? std::string("nvlink_g")
                                 : std::string("pcie3_g")) +
          std::to_string(gpus);
      sharded_json["speedup_" + tag] = s.speedup;
      sharded_json["comm_fraction_" + tag] = s.comm_fraction;
      print_scaling_row((link.name + " (scaled)").c_str(), s);
    }
  }

  // --- 3. full-scale model (Table II sizes, the publication numbers) -----
  std::map<std::string, double> full_json;
  std::map<std::string, double> speedups;
  for (const auto& preset :
       {DatasetPreset::netflix(), DatasetPreset::hugewiki()}) {
    std::printf("\n  %s at full scale (m=%llu, n=%llu, nnz=%llu, f=%d):\n",
                preset.name.c_str(),
                static_cast<unsigned long long>(preset.full_m),
                static_cast<unsigned long long>(preset.full_n),
                static_cast<unsigned long long>(preset.full_nnz),
                preset.paper_f);
    AlsKernelConfig fkc;
    fkc.f = preset.paper_f;
    fkc.solver = SolverKind::CgFp16;
    for (const auto& link : {gpusim::LinkSpec::pcie3(),
                             gpusim::LinkSpec::nvlink()}) {
      for (const int gpus : {1, 2, 4}) {
        const MultiGpuScaling s =
            model_full_scale(dev, preset, fkc, link, gpus);
        const std::string link_key =
            link.name == "NVLink" ? "nvlink" : "pcie3";
        const std::string tag =
            preset.name + "_" + link_key + "_g" + std::to_string(gpus);
        full_json["epoch_s_" + tag] = s.total_s;
        full_json["speedup_" + tag] = s.speedup;
        full_json["efficiency_" + tag] = s.efficiency;
        full_json["comm_fraction_" + tag] = s.comm_fraction;
        print_scaling_row(link.name.c_str(), s);
        if (gpus == 4) {
          // The gate keys: Hugewiki is the dataset the paper actually runs
          // on four GPUs; Netflix rides along as the second shape.
          speedups[preset.name + "_" + link_key + "_4gpu"] = s.speedup;
          if (preset.name == "Hugewiki") {
            speedups[link_key + "_4gpu"] = s.speedup;
          }
        }
      }
    }
  }

  // --- JSON ---------------------------------------------------------------
  const auto dump = [](std::ofstream& out, const char* key,
                       const std::map<std::string, double>& section,
                       bool last) {
    out << "  \"" << key << "\": {\n";
    for (auto it = section.begin(); it != section.end(); ++it) {
      out << "    \"" << it->first << "\": " << json_num(it->second)
          << (std::next(it) != section.end() ? "," : "") << "\n";
    }
    out << "  }" << (last ? "" : ",") << "\n";
  };
  std::ofstream out(out_path);
  out << "{\n  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"sim_device\": \"" << dev.name << "\",\n";
  dump(out, "native", native_json, false);
  dump(out, "sharded_scaled", sharded_json, false);
  dump(out, "full_scale", full_json, false);
  dump(out, "speedups", speedups, true);
  out << "}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
