// cumf_tune — cost-model-pruned auto-tuning over the cuMF variant space.
//
//   cumf_tune <ratings|shard-dir> <config-out> [options]
//
//   -f N             latent dimension the config is tuned for (default 32)
//   -l X             lambda (default 0.05)
//   --movielens      ratings use the u::v::r::ts format (1-based ids)
//   --test FRAC      holdout fraction for the probe quality gate
//                    (default 0.1; 0 disables the RMSE gate)
//   --seed N         split/init seed, as cumf_train (default 1)
//   --device D       k40 | titanx | p100 | v100 (default titanx, the
//                    device cumf_train's telemetry simulates)
//   --finalists N    candidates surviving the model prune (default 8)
//   --probe-epochs N real epochs per finalist probe (default 2)
//   --workers N      tuner-side probe parallelism; the output is
//                    byte-identical for any value (default 1)
//   --max-gpus N     also search multi-GPU variants up to N devices
//   --host-mem SIZE  out-of-core host budget cap (shard-dir input only)
//   --quick          small grids (CI smoke; still covers every knob axis)
//   --trace          print the full scored candidate table
//
// The search: enumerate the knob space, score everything against the
// gpusim cost model (occupancy + cache-trace roofs + interconnect + stream
// pipeline), probe only the surviving finalists with real AlsEngine epochs,
// and pick the winner by the counter-refined modeled time. The default
// configuration is always probed, so the winner never models slower than
// it. The config is written CRC-framed, keyed by the device x dataset
// fingerprint; `cumf_train --auto-tune` applies it. Repeated runs emit
// byte-identical files (see src/tune/tune.hpp for the contract).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "data/framed.hpp"
#include "data/loaders.hpp"
#include "data/shards.hpp"
#include "gpusim/device.hpp"
#include "prof/bottleneck.hpp"
#include "sparse/split.hpp"
#include "tune/tune.hpp"

#include "cli_parse.hpp"

using namespace cumf;

namespace {

constexpr const char* kTool = "cumf_tune";

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  cumf_tune <ratings|shard-dir> <config-out> [-f N] [-l X]\n"
      "            [--movielens] [--test FRAC] [--seed N]\n"
      "            [--device k40|titanx|p100|v100]\n"
      "            [--finalists N] [--probe-epochs N] [--workers N]\n"
      "            [--max-gpus N] [--host-mem SIZE] [--quick] [--trace]\n"
      "\n"
      "  <config-out>: a file path, or an existing directory (the config\n"
      "  is then named by its device x dataset fingerprint key)\n");
  std::exit(2);
}

std::uint64_t parse_mem_size(const std::string& text) {
  std::uint64_t scale = 1;
  std::string digits = text;
  if (!digits.empty()) {
    switch (digits.back()) {
      case 'k': case 'K': scale = 1ull << 10; digits.pop_back(); break;
      case 'm': case 'M': scale = 1ull << 20; digits.pop_back(); break;
      case 'g': case 'G': scale = 1ull << 30; digits.pop_back(); break;
      default: break;
    }
  }
  return cli::parse_uint(kTool, "--host-mem", digits, 1,
                         std::numeric_limits<std::uint64_t>::max() / scale) *
         scale;
}

std::string describe(const tune::TuneChoice& c) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "tile=%d bin=%d %s fs=%u %s %s w=%d g=%d %s", c.tile, c.bin,
                solver_cli_name(c.solver), c.fs, to_string(c.schedule),
                to_string(c.path), c.workers, c.gpus, c.link.c_str());
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    usage();
  }
  const std::string input_path = argv[1];
  std::string out_path = argv[2];

  tune::TuneRequest req;
  std::string device_name = "titanx";
  double test_fraction = 0.1;
  LoaderOptions loader;
  std::uint64_t host_mem = 0;
  bool trace_all = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
      }
      return argv[++i];
    };
    if (arg == "-f") {
      req.f = static_cast<std::size_t>(
          cli::parse_int(kTool, "-f", next(), 1, 65536));
    } else if (arg == "-l") {
      req.lambda = cli::parse_double(kTool, "-l", next(), 0.0, 1e9);
    } else if (arg == "--movielens") {
      loader.format = RatingsFormat::MovieLens;
      loader.one_based = true;
    } else if (arg == "--test") {
      test_fraction = cli::parse_double(kTool, "--test", next(), 0.0, 0.99);
    } else if (arg == "--seed") {
      req.seed = cli::parse_uint(kTool, "--seed", next(), 0,
                                 std::numeric_limits<std::uint64_t>::max());
    } else if (arg == "--device") {
      device_name = next();
    } else if (arg == "--finalists") {
      req.finalists = static_cast<std::size_t>(
          cli::parse_int(kTool, "--finalists", next(), 1, 1024));
    } else if (arg == "--probe-epochs") {
      req.probe_epochs = static_cast<int>(
          cli::parse_int(kTool, "--probe-epochs", next(), 1, 1000));
    } else if (arg == "--workers") {
      req.workers = static_cast<int>(
          cli::parse_int(kTool, "--workers", next(), 1, 4096));
    } else if (arg == "--max-gpus") {
      req.max_gpus = static_cast<int>(
          cli::parse_int(kTool, "--max-gpus", next(), 1, 64));
    } else if (arg == "--host-mem") {
      host_mem = parse_mem_size(next());
    } else if (arg == "--quick") {
      req.tile_grid = {4, 10, 16};
      req.bin_grid = {16, 32};
      req.fs_grid = {2, 6};
      req.worker_grid = {1, 4};
      req.include_exact = true;
    } else if (arg == "--trace") {
      trace_all = true;
    } else {
      std::fprintf(stderr, "cumf_tune: unknown option '%s'\n", arg.c_str());
      usage();
    }
  }
  try {
    req.device = gpusim::device_by_name(device_name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cumf_tune: %s\n", e.what());
    return 2;
  }

  try {
    // Assemble the dataset + fingerprint, replaying cumf_train's loading
    // sequence exactly so the tuned config's key matches what --auto-tune
    // recomputes.
    tune::TuneInput input;
    input.fingerprint.device = req.device.name;
    input.fingerprint.f = static_cast<std::uint32_t>(req.f);
    input.fingerprint.lambda = static_cast<float>(req.lambda);
    if (is_shard_dir(input_path)) {
      const ShardMeta meta = read_shard_meta(input_path);
      std::printf("shard store %s: %u x %u, %llu train + %llu test nnz\n",
                  input_path.c_str(), meta.rows, meta.cols,
                  static_cast<unsigned long long>(meta.train_nnz),
                  static_cast<unsigned long long>(meta.test_nnz));
      input.fingerprint.rows = meta.rows;
      input.fingerprint.cols = meta.cols;
      input.fingerprint.nnz = meta.train_nnz + meta.test_nnz;
      // Materialize the training set once for the probes (the tuner needs
      // real epochs); the out-of-core dimension still tunes host budgets
      // against the tile geometry.
      std::vector<Rating> entries;
      entries.reserve(meta.train_nnz);
      for (std::size_t t = 0; t < meta.row_tiles.size(); ++t) {
        const CsrTile tile =
            load_tile(input_path, TileView::by_row, t, meta.row_tiles[t]);
        const auto& row_ptr = tile.csr.row_ptr();
        const auto& col_idx = tile.csr.col_idx();
        const auto& values = tile.csr.values();
        for (index_t lr = 0; lr < tile.csr.rows(); ++lr) {
          const index_t u = tile.row_begin + lr;
          for (nnz_t k = row_ptr[lr]; k < row_ptr[lr + 1]; ++k) {
            entries.push_back(Rating{u, col_idx[k], values[k]});
          }
        }
      }
      input.train = RatingsCoo(meta.rows, meta.cols, std::move(entries));
      input.train.sort_and_dedup();
      input.test = read_shard_test(input_path);
      req.ooc_row_tiles = meta.row_tiles;
      req.ooc_host_cap = host_mem;
    } else {
      std::printf("loading %s...\n", input_path.c_str());
      RatingsCoo ratings = load_ratings_file(input_path, loader);
      std::printf("  %u x %u, %llu ratings\n", ratings.rows(),
                  ratings.cols(),
                  static_cast<unsigned long long>(ratings.nnz()));
      input.fingerprint.rows = ratings.rows();
      input.fingerprint.cols = ratings.cols();
      input.fingerprint.nnz = static_cast<std::uint64_t>(ratings.nnz());
      Rng rng(req.seed);
      if (test_fraction > 0) {
        TrainTestSplit split = split_holdout(ratings, test_fraction, rng);
        input.train = std::move(split.train);
        input.test = std::move(split.test);
      } else {
        input.train = std::move(ratings);
      }
      input.train.sort_and_dedup();
    }

    Stopwatch sw;
    std::vector<tune::Candidate> trace;
    const tune::TunedConfig config = tune::tune(req, input, &trace);
    const double tune_s = sw.seconds();

    // Human-readable trace: every probed finalist, then (with --trace) the
    // whole scored grid. Wall seconds are informational only — the ranking
    // and the persisted config never depend on them.
    std::printf(
        "\nsearched %llu candidates on %s: %llu pruned by the cost model, "
        "%llu probed with %d real epochs each (%.2f s total)\n",
        static_cast<unsigned long long>(config.candidates),
        req.device.name.c_str(),
        static_cast<unsigned long long>(config.pruned),
        static_cast<unsigned long long>(config.finalists), req.probe_epochs,
        tune_s);
    std::printf("%-52s %12s %12s %10s %7s\n", "finalist", "model s",
                "refined s", "wall s", "rmse");
    for (const tune::Candidate& c : trace) {
      if (!c.probed) {
        continue;
      }
      std::printf("%-52s %12.4g %12.4g %10.4g %7.4f%s\n",
                  describe(c.choice).c_str(), c.model_epoch_s,
                  c.refined_epoch_s, c.wall_epoch_s,
                  std::isfinite(c.probe_rmse) ? c.probe_rmse : 0.0,
                  c.quality_ok ? "" : "  [disqualified]");
    }
    if (trace_all) {
      std::printf("\n%-52s %12s  %s\n", "candidate", "model s", "note");
      for (const tune::Candidate& c : trace) {
        std::printf("%-52s %12.4g  %s\n", describe(c.choice).c_str(),
                    c.model_epoch_s,
                    c.feasible ? (c.probed ? "finalist" : "pruned")
                               : c.infeasible_why.c_str());
      }
    }

    std::printf("\nwinner: %s\n", describe(config.choice).c_str());
    std::printf("modeled epoch: winner %.6g s <= default %.6g s (%.2fx)\n",
                config.model_epoch_s, config.default_epoch_s,
                config.model_epoch_s > 0
                    ? config.default_epoch_s / config.model_epoch_s
                    : 0.0);
    if (!config.verdicts.empty()) {
      std::printf("%s", prof::render_roofline_table(config.verdicts,
                                                    req.device.name)
                            .c_str());
    }

    if (std::filesystem::is_directory(out_path)) {
      out_path = (std::filesystem::path(out_path) /
                  tune::tuned_config_filename(config.fingerprint))
                     .string();
    }
    tune::write_tuned_config_file(out_path, config);
    std::printf("tuned config written to %s\n", out_path.c_str());
    return 0;
  } catch (const FrameError& e) {
    std::fprintf(stderr, "cumf_tune: rejected %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cumf_tune: error: %s\n", e.what());
    return 1;
  }
}
