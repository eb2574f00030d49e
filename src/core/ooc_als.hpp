// Out-of-core ALS: stream a sharded rating matrix through bounded memory.
//
// The factors stay resident (2·(m+n)·f floats — the part ALS must keep hot),
// while the ratings live in checksummed tile files (data/shards.hpp) and
// flow through a bounded host cache. One epoch is the usual two half-sweeps,
// but each half-sweep walks its view tile by tile: the block scheduler
// orders tiles serpentine across sweeps (ascending, then descending) so the
// boundary tile of one sweep is the first tile of the next — the only reuse
// a strict two-view sweep structure admits — and a single-slot prefetch
// loads tile i+1 while tile i computes, the same pipelining the multi-GPU
// timeline applies to communication. Transfers are charged
// through gpusim/interconnect in the modeled timeline; the measured
// per-epoch transfer/stall/compute breakdown feeds cuprof spans and the
// --metrics telemetry.
//
// Row updates are independent and every tile row carries its global row id,
// so streamed training is bit-identical to AlsEngine on the same split
// under any tile count, host budget, worker count, or overlap setting.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "core/als.hpp"
#include "core/kernel_stats.hpp"
#include "data/shards.hpp"
#include "gpusim/device.hpp"
#include "gpusim/interconnect.hpp"

namespace cumf {

struct OocOptions {
  /// Hard host-side budget for cached decoded tiles (--host-mem). Must
  /// admit the largest tile; smaller-than-dataset budgets are the point.
  std::uint64_t host_mem_bytes = 0;
  /// Modeled device memory (--device-mem). 0 = unconstrained. Overlap
  /// needs room to double-buffer the two largest tiles beside the factors;
  /// when the budget is too small the engine falls back to synchronous
  /// loads (overlap_active() reports the effective mode).
  std::uint64_t device_mem_bytes = 0;
  /// Prefetch the next tile while the current one computes. false is the
  /// no-overlap ablation the bench gate compares against.
  bool overlap = true;
  /// false exercises the buffered-read fallback instead of mmap.
  bool use_mmap = true;
};

/// Measured wall-time breakdown of the last epoch's tile streaming.
struct OocEpochStats {
  double stall_s = 0.0;    ///< compute thread blocked waiting for a tile
  double compute_s = 0.0;  ///< inside the tile row-update loops
  double load_s = 0.0;     ///< inside tile loads (overlaps compute when
                           ///< prefetch is on, so load_s can exceed stall_s)
  std::uint64_t tiles = 0;        ///< tile fetches issued
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t bytes_loaded = 0;  ///< disk bytes read on misses
};

/// Modeled epoch timeline of a streamed run: per-tile transfers charged to
/// `link`, per-tile compute from the cost model, pipelined per half-sweep.
struct OocTimeline {
  double transfer_s = 0.0;   ///< total wire seconds, both half-sweeps
  double compute_s = 0.0;    ///< total modeled device compute
  double serial_s = 0.0;     ///< no-overlap wall: Σ (transfer + compute)
  double pipelined_s = 0.0;  ///< overlap wall (pipelined_stream_seconds)
  double overlap_gain = 0.0; ///< serial_s / pipelined_s
};

/// The block schedule: tile visit order of sweep number `sweep` over
/// `tiles` tiles. Serpentine — even sweeps ascend, odd sweeps descend — so
/// consecutive sweeps of the same view share their boundary tile (an LRU
/// hit instead of a reload). Pure function of (tiles, sweep): deterministic
/// across worker counts, budgets, and prefetch settings.
std::vector<std::size_t> ooc_tile_order(std::size_t tiles, int sweep);

/// Models a streamed epoch for a shard layout without touching tile files —
/// the engine's epoch_timeline and the full-scale Hugewiki bench both feed
/// through here. Per tile: transfer of its on-disk bytes over `link`,
/// compute from update_phase_times at its rows/nnz; each half-sweep is
/// pipelined (or summed serially when `overlap` is false).
OocTimeline ooc_epoch_timeline(const gpusim::DeviceSpec& dev,
                               const AlsKernelConfig& config,
                               const gpusim::LinkSpec& link,
                               const ShardMeta& meta, bool overlap = true);

/// Streamed counterpart of AlsEngine: constructed from a shard directory
/// instead of a RatingsCoo, it adds only the tile cache, the prefetch and
/// OocEpochStats to the shared engine core, so cumf_train drives it through
/// the same loop (checkpoint/resume, fault injection and the degradation
/// ladder work unchanged). `options.workers` parallelizes rows *within* a
/// tile. The tile schedule is a function of the epoch counter alone, so
/// restore() re-enters the identical sweep sequence.
class OocAlsEngine : public AlsEngineBase {
 public:
  OocAlsEngine(const std::string& shard_dir, const AlsOptions& options,
               const OocOptions& ooc);

  /// One epoch: update-X streams the by-row tiles, update-Θ the by-col
  /// tiles, each in this sweep's serpentine order with single-slot
  /// prefetch (when overlap is active).
  void run_epoch() override;

  const ShardMeta& meta() const noexcept { return cache_.meta(); }

  /// True when prefetch is actually running (requested overlap minus the
  /// device-budget fallback).
  bool overlap_active() const noexcept { return overlap_; }

  /// Measured streaming breakdown of the last epoch.
  const OocEpochStats& ooc_stats_last_epoch() const noexcept {
    return ooc_stats_;
  }
  std::uint64_t cache_budget_bytes() const noexcept {
    return cache_.budget_bytes();
  }

  /// Modeled streamed-epoch timeline for this shard layout on `dev`/`link`.
  OocTimeline epoch_timeline(const gpusim::DeviceSpec& dev,
                             const AlsKernelConfig& config,
                             const gpusim::LinkSpec& link,
                             bool overlap = true) const {
    return ooc_epoch_timeline(dev, config, link, cache_.meta(), overlap);
  }

 private:
  void update_side(TileView view, const Matrix& fixed, Matrix& solved,
                   std::uint32_t fault_site);

  TileCache cache_;
  bool overlap_ = true;
  OocEpochStats ooc_stats_;
};

}  // namespace cumf
