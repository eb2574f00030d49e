#include "core/ooc_als.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>
#include <utility>

#include "prof/prof.hpp"

namespace cumf {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint64_t largest_tile_bytes(const ShardMeta& meta) {
  std::uint64_t largest = 0;
  for (const std::vector<TileRange>* table : {&meta.row_tiles,
                                              &meta.col_tiles}) {
    for (const TileRange& t : *table) {
      largest = std::max(largest, tile_resident_bytes(t));
    }
  }
  return largest;
}

}  // namespace

std::vector<std::size_t> ooc_tile_order(std::size_t tiles, int sweep) {
  std::vector<std::size_t> order(tiles);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (sweep % 2 != 0) {
    std::reverse(order.begin(), order.end());
  }
  return order;
}

OocTimeline ooc_epoch_timeline(const gpusim::DeviceSpec& dev,
                               const AlsKernelConfig& config,
                               const gpusim::LinkSpec& link,
                               const ShardMeta& meta, bool overlap) {
  OocTimeline tl;
  const struct {
    const std::vector<TileRange>* tiles;
    double fixed_dim;
  } views[] = {{&meta.row_tiles, static_cast<double>(meta.cols)},
               {&meta.col_tiles, static_cast<double>(meta.rows)}};
  for (const auto& view : views) {
    std::vector<double> transfer;
    std::vector<double> compute;
    transfer.reserve(view.tiles->size());
    compute.reserve(view.tiles->size());
    // update_phase_times is a pure function of the shape, and evenly cut
    // layouts (the full-scale benches) repeat one shape per view — memoize
    // so a 16-tile billion-nnz layout costs two cost-model evaluations, not
    // sixteen.
    std::map<std::pair<index_t, nnz_t>, double> memo;
    for (const TileRange& t : *view.tiles) {
      transfer.push_back(
          gpusim::transfer_seconds(link, static_cast<double>(t.bytes)));
      const auto key = std::make_pair(
          static_cast<index_t>(t.row_end - t.row_begin), t.nnz);
      auto it = memo.find(key);
      if (it == memo.end()) {
        const UpdateShape shape{static_cast<double>(key.first),
                                view.fixed_dim,
                                static_cast<double>(t.nnz)};
        it = memo.emplace(key,
                          update_phase_times(dev, shape, config)
                              .total_seconds())
                 .first;
      }
      compute.push_back(it->second);
    }
    const double t_sum =
        std::accumulate(transfer.begin(), transfer.end(), 0.0);
    const double c_sum = std::accumulate(compute.begin(), compute.end(), 0.0);
    tl.transfer_s += t_sum;
    tl.compute_s += c_sum;
    tl.serial_s += t_sum + c_sum;
    tl.pipelined_s += overlap
                          ? gpusim::pipelined_stream_seconds(transfer, compute)
                          : t_sum + c_sum;
  }
  tl.overlap_gain = tl.pipelined_s > 0 ? tl.serial_s / tl.pipelined_s : 1.0;
  return tl;
}

OocAlsEngine::OocAlsEngine(const std::string& shard_dir,
                           const AlsOptions& options, const OocOptions& ooc)
    : AlsEngineBase(options),
      cache_(shard_dir, read_shard_meta(shard_dir),
             TileCacheOptions{ooc.host_mem_bytes, ooc.use_mmap}) {
  const ShardMeta& meta = cache_.meta();
  // meta.mean is the bit-exact mean_value() of the canonical train split,
  // so this warm start is byte-for-byte the one AlsEngine computes.
  warm_start(meta.rows, meta.cols, meta.mean);

  // Prefetch keeps two tiles in flight (one computing, one loading), so it
  // needs headroom for both in the host cache and, when a device budget is
  // modeled, room to double-buffer them beside the factors. Without the
  // headroom the engine degrades to synchronous loads instead of lying
  // about the budget.
  const std::uint64_t largest = largest_tile_bytes(meta);
  overlap_ = ooc.overlap && ooc.host_mem_bytes >= 2 * largest &&
             (ooc.device_mem_bytes == 0 ||
              ooc.device_mem_bytes >= 2 * largest);
}

void OocAlsEngine::update_side(TileView view, const Matrix& fixed,
                               Matrix& solved, std::uint32_t fault_site) {
  const std::vector<TileRange>& table = cache_.meta().tiles(view);
  // The schedule depends only on (tile count, epoch counter): deterministic
  // across worker counts and budgets, and restore(epochs) re-enters the
  // identical sweep sequence.
  const std::vector<std::size_t> order =
      ooc_tile_order(table.size(), epochs_run());
  const bool profiled = prof::Tracer::enabled();
  std::future<std::shared_ptr<const CsrTile>> pending;
  for (std::size_t i = 0; i < order.size(); ++i) {
    // Wait for the tile (prefetched by the previous iteration, or loaded
    // synchronously); the blocked time is the exposed transfer stall.
    const std::uint64_t w0 = profiled ? prof::now_ns() : 0;
    const auto wait0 = std::chrono::steady_clock::now();
    std::shared_ptr<const CsrTile> tile =
        pending.valid() ? pending.get() : cache_.get(view, order[i]);
    ooc_stats_.stall_s += seconds_since(wait0);
    if (profiled) {
      prof::Tracer::instance().complete_span("ooc_wait_tile", "ooc", w0,
                                             prof::now_ns());
    }
    if (overlap_ && i + 1 < order.size()) {
      const std::size_t next = order[i + 1];
      pending = std::async(std::launch::async,
                           [this, view, next] { return cache_.get(view, next); });
    }
    const std::uint64_t c0 = profiled ? prof::now_ns() : 0;
    const auto comp0 = std::chrono::steady_clock::now();
    sweep(tile->csr, fixed, solved, fault_site, tile->row_begin);
    ooc_stats_.compute_s += seconds_since(comp0);
    if (profiled) {
      prof::Tracer::instance().complete_span("ooc_tile_compute", "ooc", c0,
                                             prof::now_ns());
    }
    ++ooc_stats_.tiles;
  }
}

void OocAlsEngine::run_epoch() {
  CUMF_PROF_SCOPE("ooc_epoch", "ooc");
  begin_epoch();
  ooc_stats_ = OocEpochStats{};
  const TileCache::Stats before = cache_.stats();
  {
    CUMF_PROF_SCOPE("ooc_update_X", "ooc");
    update_side(TileView::by_row, theta_, x_, /*fault_site=*/0);
  }
  {
    CUMF_PROF_SCOPE("ooc_update_Theta", "ooc");
    update_side(TileView::by_col, x_, theta_, /*fault_site=*/1);
  }
  const TileCache::Stats after = cache_.stats();
  ooc_stats_.cache_hits = after.hits - before.hits;
  ooc_stats_.cache_misses = after.misses - before.misses;
  ooc_stats_.bytes_loaded = after.bytes_loaded - before.bytes_loaded;
  ooc_stats_.load_s = after.load_seconds - before.load_seconds;
  end_epoch();
}

}  // namespace cumf
