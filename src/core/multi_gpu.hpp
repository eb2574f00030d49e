// Multi-GPU ALS model (the four-GPU Hugewiki runs of Fig. 6/8).
//
// cuMF-ALS partitions the rows of the matrix being updated across devices;
// each device holds the full fixed factor matrix, computes its row slice
// with its own solver and hermitian workspace, and the updated slices are
// all-gathered over NVLink before the next half-sweep. Because ALS row
// updates are independent, the partitioned computation is bit-identical to
// the single-device one, so functionally `--gpus G` is AlsEngine with G
// workers. What belongs to multiple devices alone is the time model here:
// per-device compute from the cost model at each shard's shape plus
// interconnect traffic, with a pipelined compute/communication overlap
// bound.
#pragma once

#include <span>
#include <vector>

#include "core/als.hpp"
#include "core/kernel_stats.hpp"
#include "gpusim/device.hpp"
#include "gpusim/interconnect.hpp"

namespace cumf {

/// Contiguous range of rows owned by one device.
struct RowRange {
  index_t begin = 0;
  index_t end = 0;
  index_t size() const noexcept { return end - begin; }
};

/// Near-equal row-count partition of [0, count) into `parts` ranges. When
/// parts > count the tail ranges are empty (a 4-GPU run on a 3-column
/// dataset simply idles one device); count == 0 yields all-empty ranges.
std::vector<RowRange> partition_rows(index_t count, int parts);

/// Exactly `parts` contiguous shards over the rows of `r`, cut at the row
/// boundaries of roughly equal total nnz that nnz_balanced_bounds finds.
/// Hermitian work per row is proportional to its nnz, so this is the
/// balance that matters for the per-device critical path; when fewer
/// balanced cuts than `parts` exist (tiny or extremely skewed data) the
/// tail shards are empty.
std::vector<RowRange> nnz_balanced_shards(const CsrMatrix& r, int parts);

/// Modeled wall time of one half-sweep on g concurrent devices.
struct MultiGpuHalfSweep {
  std::vector<double> device_compute_s;  ///< per-device compute time
  double compute_s = 0.0;     ///< barrier: the slowest device
  double comm_total_s = 0.0;  ///< raw ring all-gather wire time
  double comm_s = 0.0;        ///< exposed comm after pipelined overlap
  double seconds() const noexcept { return compute_s + comm_s; }
};

/// Modeled epoch timeline: both half-sweeps plus their all-gathers.
struct MultiGpuTimeline {
  MultiGpuHalfSweep update_x;
  MultiGpuHalfSweep update_theta;
  double compute_s() const noexcept {
    return update_x.compute_s + update_theta.compute_s;
  }
  double comm_s() const noexcept {
    return update_x.comm_s + update_theta.comm_s;
  }
  double total_s() const noexcept {
    return update_x.seconds() + update_theta.seconds();
  }
};

/// Scaling-efficiency report against the modeled single-device epoch.
struct MultiGpuScaling {
  int gpus = 1;
  double single_gpu_s = 0.0;  ///< modeled 1-GPU epoch (no interconnect)
  double total_s = 0.0;       ///< modeled g-GPU epoch
  double compute_s = 0.0;     ///< barrier-summed compute portion
  double comm_s = 0.0;        ///< exposed communication portion
  double speedup = 0.0;       ///< single_gpu_s / total_s
  double efficiency = 0.0;    ///< speedup / gpus
  double comm_fraction = 0.0; ///< comm_s / total_s
};

/// The device shards of one CSR view: nnz-balanced under the default
/// nnz_guided schedule (hermitian work per row is proportional to its nnz,
/// so power-law degree skew would strand an epoch behind the device that
/// drew the head rows under a plain row-count split); the row-count split
/// of partition_rows under static_rows, the ablation baseline.
std::vector<RowRange> device_shards(const CsrMatrix& ratings, int gpus,
                                    AlsSchedule schedule);

/// Pipeline depth of the overlap model: each device exchanges its shard in
/// this many chunks, so all but one chunk of the all-gather can hide under
/// compute.
inline constexpr int kOverlapPipelineDepth = 8;

/// Modeled half-sweep on one device per entry of `devices`, each updating
/// `rows` rows against `cols` fixed rows over `nnz` ratings: per-device
/// compute from the cost model (an empty shard costs 0), a ragged ring
/// all-gather of the updated f-wide slices, and (when `overlap` is true) a
/// pipelined overlap bound — devices stream finished row blocks into the
/// ring while computing the remainder, so the half-sweep costs
/// max(compute, comm) + min(compute, comm)/C with C = kOverlapPipelineDepth
/// instead of compute + comm.
MultiGpuHalfSweep multi_gpu_half_sweep(const gpusim::DeviceSpec& dev,
                                       const AlsKernelConfig& config,
                                       const gpusim::LinkSpec& link,
                                       std::span<const UpdateShape> devices,
                                       bool overlap = true);

/// Modeled epoch on `gpus` devices joined by `link`: both half-sweeps over
/// the device_shards of `by_row` (update-X) and `by_col` (update-Θ).
MultiGpuTimeline multi_gpu_timeline(const gpusim::DeviceSpec& dev,
                                    const AlsKernelConfig& config,
                                    const gpusim::LinkSpec& link,
                                    const CsrMatrix& by_row,
                                    const CsrMatrix& by_col, int gpus,
                                    AlsSchedule schedule,
                                    bool overlap = true);

/// Speedup / efficiency / comm-fraction of multi_gpu_timeline() against the
/// modeled single-device epoch on the same data and config.
MultiGpuScaling multi_gpu_scaling(const gpusim::DeviceSpec& dev,
                                  const AlsKernelConfig& config,
                                  const gpusim::LinkSpec& link,
                                  const CsrMatrix& by_row,
                                  const CsrMatrix& by_col, int gpus,
                                  AlsSchedule schedule, bool overlap = true);

}  // namespace cumf
