#include "core/multi_gpu.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace cumf {

std::vector<RowRange> partition_rows(index_t count, int parts) {
  CUMF_EXPECTS(parts > 0, "need at least one partition");
  std::vector<RowRange> out;
  out.reserve(static_cast<std::size_t>(parts));
  // With parts > count this degenerates to `count` single-row ranges
  // followed by empty tails (base = 0, extra = count) — surplus devices
  // idle instead of the constructor throwing.
  const index_t base = count / static_cast<index_t>(parts);
  const index_t extra = count % static_cast<index_t>(parts);
  index_t begin = 0;
  for (index_t p = 0; p < static_cast<index_t>(parts); ++p) {
    const index_t len = base + (p < extra ? 1 : 0);
    out.push_back(RowRange{begin, begin + len});
    begin += len;
  }
  CUMF_ENSURES(begin == count, "partition must cover all rows");
  return out;
}

std::vector<RowRange> nnz_balanced_shards(const CsrMatrix& r, int parts) {
  CUMF_EXPECTS(parts > 0, "need at least one shard");
  const std::vector<std::size_t> bounds =
      nnz_balanced_bounds(r, static_cast<std::size_t>(parts));
  std::vector<RowRange> out;
  out.reserve(static_cast<std::size_t>(parts));
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    out.push_back(RowRange{static_cast<index_t>(bounds[i]),
                           static_cast<index_t>(bounds[i + 1])});
  }
  // Fewer balanced cuts than devices: the tail devices hold empty shards.
  while (out.size() < static_cast<std::size_t>(parts)) {
    out.push_back(RowRange{r.rows(), r.rows()});
  }
  CUMF_ENSURES(out.size() == static_cast<std::size_t>(parts) &&
                   out.front().begin == 0 && out.back().end == r.rows(),
               "shards must cover all rows");
  return out;
}

std::vector<RowRange> device_shards(const CsrMatrix& ratings, int gpus,
                                    AlsSchedule schedule) {
  return schedule == AlsSchedule::nnz_guided
             ? nnz_balanced_shards(ratings, gpus)
             : partition_rows(ratings.rows(), gpus);
}

MultiGpuHalfSweep multi_gpu_half_sweep(const gpusim::DeviceSpec& dev,
                                       const AlsKernelConfig& config,
                                       const gpusim::LinkSpec& link,
                                       std::span<const UpdateShape> devices,
                                       bool overlap) {
  MultiGpuHalfSweep sweep;
  std::vector<double> slice_bytes;
  slice_bytes.reserve(devices.size());
  sweep.device_compute_s.reserve(devices.size());
  for (const UpdateShape& shape : devices) {
    const double compute =
        shape.rows > 0
            ? update_phase_times(dev, shape, config).total_seconds()
            : 0.0;
    sweep.device_compute_s.push_back(compute);
    sweep.compute_s = std::max(sweep.compute_s, compute);
    slice_bytes.push_back(shape.rows * config.f * sizeof(real_t));
  }
  if (devices.size() > 1) {
    sweep.comm_total_s = gpusim::allgather_seconds_ragged(link, slice_bytes);
    if (overlap) {
      // Pipelined ring: each device exchanges its shard in C chunks,
      // streaming finished row blocks while computing the rest. Classic
      // pipeline bound — the longer of compute and comm dominates, plus
      // one fill of the shorter stage; only the excess over compute is
      // exposed as communication time.
      const double c = kOverlapPipelineDepth;
      const double wall =
          std::max(sweep.compute_s, sweep.comm_total_s) +
          std::min(sweep.compute_s, sweep.comm_total_s) / c;
      sweep.comm_s = wall - sweep.compute_s;
    } else {
      sweep.comm_s = sweep.comm_total_s;
    }
  }
  return sweep;
}

namespace {

/// The per-device shapes of one half-sweep: each shard's *actual* rows and
/// nnz, not an even split, so the timeline reflects whatever balance the
/// sharding achieved.
std::vector<UpdateShape> shard_shapes(const CsrMatrix& ratings, int gpus,
                                      AlsSchedule schedule) {
  const std::vector<nnz_t>& ptr = ratings.row_ptr();
  std::vector<UpdateShape> shapes;
  for (const RowRange& shard : device_shards(ratings, gpus, schedule)) {
    shapes.push_back({static_cast<double>(shard.size()),
                      static_cast<double>(ratings.cols()),
                      static_cast<double>(ptr[shard.end] - ptr[shard.begin])});
  }
  return shapes;
}

}  // namespace

MultiGpuTimeline multi_gpu_timeline(const gpusim::DeviceSpec& dev,
                                    const AlsKernelConfig& config,
                                    const gpusim::LinkSpec& link,
                                    const CsrMatrix& by_row,
                                    const CsrMatrix& by_col, int gpus,
                                    AlsSchedule schedule, bool overlap) {
  MultiGpuTimeline timeline;
  timeline.update_x = multi_gpu_half_sweep(
      dev, config, link, shard_shapes(by_row, gpus, schedule), overlap);
  timeline.update_theta = multi_gpu_half_sweep(
      dev, config, link, shard_shapes(by_col, gpus, schedule), overlap);
  return timeline;
}

MultiGpuScaling multi_gpu_scaling(const gpusim::DeviceSpec& dev,
                                  const AlsKernelConfig& config,
                                  const gpusim::LinkSpec& link,
                                  const CsrMatrix& by_row,
                                  const CsrMatrix& by_col, int gpus,
                                  AlsSchedule schedule, bool overlap) {
  MultiGpuScaling report;
  report.gpus = gpus;
  const UpdateShape x_full{static_cast<double>(by_row.rows()),
                           static_cast<double>(by_row.cols()),
                           static_cast<double>(by_row.nnz())};
  const UpdateShape t_full{static_cast<double>(by_col.rows()),
                           static_cast<double>(by_col.cols()),
                           static_cast<double>(by_col.nnz())};
  report.single_gpu_s =
      update_phase_times(dev, x_full, config).total_seconds() +
      update_phase_times(dev, t_full, config).total_seconds();
  const MultiGpuTimeline timeline = multi_gpu_timeline(
      dev, config, link, by_row, by_col, gpus, schedule, overlap);
  report.total_s = timeline.total_s();
  report.compute_s = timeline.compute_s();
  report.comm_s = timeline.comm_s();
  report.speedup = report.total_s > 0 ? report.single_gpu_s / report.total_s
                                      : 0.0;
  report.efficiency = report.speedup / static_cast<double>(report.gpus);
  report.comm_fraction =
      report.total_s > 0 ? report.comm_s / report.total_s : 0.0;
  return report;
}

}  // namespace cumf
