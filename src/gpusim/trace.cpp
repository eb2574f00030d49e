#include "gpusim/trace.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace cumf::gpusim {

namespace {

/// Yields one thread-block's load-phase instructions one at a time into a
/// buffer of at most warp_size lines. hermitian_load_trace collects them and
/// simulate_hermitian_load streams them, so the address arithmetic of both
/// schemes lives here alone and a simulation holds O(resident blocks) of
/// trace state, not O(trace).
class LoadTraceGen {
 public:
  LoadTraceGen(const DeviceSpec& dev, const TraceConfig& config,
               std::span<const index_t> cols)
      : config_(config),
        cols_(cols),
        warp_(dev.warp_size),
        f_(static_cast<std::uint64_t>(config.f)),
        col_bytes_(f_ * sizeof(real_t)) {
    CUMF_EXPECTS(config.f > 0 && config.bin > 0, "f and BIN must be positive");
    CUMF_EXPECTS(dev.warp_size > 0 &&
                     config.threads_per_block % dev.warp_size == 0,
                 "block must be whole warps");
    CUMF_EXPECTS(std::has_single_bit(
                     static_cast<unsigned>(dev.cache_line_bytes)),
                 "cache line must be a power of 2");
    line_shift_ =
        std::countr_zero(static_cast<unsigned>(dev.cache_line_bytes));
    lines_.reserve(static_cast<std::size_t>(warp_) + 1);
    if (!config.coalesced) {
      lanes_.resize(static_cast<std::size_t>(config.threads_per_block));
      start_batch();
    }
  }

  /// Fills lines() with the next instruction's distinct lines, ascending;
  /// false once the block's stream is exhausted.
  bool next() {
    return config_.coalesced ? next_coalesced() : next_scattered();
  }

  std::span<const std::uint64_t> lines() const noexcept { return lines_; }

 private:
  /// Where thread t of scheme (b) reads for a given batch width: column
  /// t % width of the batch, from element (t / width % segments) * seg_len.
  struct LaneMap {
    std::size_t col;
    std::uint64_t elem;
  };
  /// One thread of scheme (b) at the current batch: the byte address of its
  /// first element and how many element steps stay inside the column.
  struct Lane {
    std::uint64_t addr;
    std::uint64_t steps;
  };

  std::uint64_t col_base(index_t v) const noexcept {
    return config_.theta_base + static_cast<std::uint64_t>(v) * col_bytes_;
  }
  std::uint64_t line_of(std::uint64_t addr) const noexcept {
    return addr >> line_shift_ << line_shift_;
  }

  // Scheme (a): all threads cooperate on one column before the next, so the
  // batching is invisible; each instruction covers warp_size consecutive
  // floats of the current column.
  bool next_coalesced() {
    if (col_ >= cols_.size()) {
      return false;
    }
    const std::uint64_t step =
        static_cast<std::uint64_t>(warp_) * sizeof(real_t);
    const std::uint64_t base = col_base(cols_[col_]);
    const std::uint64_t end = std::min(col_bytes_, off_ + step);
    lines_.clear();
    for (std::uint64_t a = line_of(base + off_); a <= base + end - 1;
         a += std::uint64_t{1} << line_shift_) {
      lines_.push_back(a);
    }
    off_ += step;
    if (off_ >= col_bytes_) {
      off_ = 0;
      ++col_;
    }
    return true;
  }

  // Scheme (b): each thread owns one column of the batch (threads beyond the
  // batch width share columns by splitting the element range). At element
  // step e thread t reads element (t / width % segments) * seg_len + e of
  // column batch[t % width]; one instruction touches up to warp_size lines.
  bool next_scattered() {
    const auto warps =
        static_cast<std::size_t>(config_.threads_per_block / warp_);
    while (batch_ < cols_.size()) {
      while (e_ < seg_len_) {
        const std::size_t w = w_++;
        const std::uint64_t e = e_;
        if (w_ == warps) {
          w_ = 0;
          ++e_;
        }
        // Lanes are sorted by address, so the lines come out ascending and
        // duplicates are adjacent.
        lines_.clear();
        const auto warp = static_cast<std::size_t>(warp_);
        const auto lanes = std::span(lanes_).subspan(w * warp, warp);
        for (const Lane& lane : lanes) {
          if (e < lane.steps) {
            const std::uint64_t line = line_of(lane.addr + e * sizeof(real_t));
            if (lines_.empty() || lines_.back() != line) {
              lines_.push_back(line);
            }
          }
        }
        if (!lines_.empty()) {
          return true;
        }
      }
      batch_ += static_cast<std::size_t>(config_.bin);
      start_batch();
    }
    return false;
  }

  /// Lays out the lanes of the batch starting at batch_. The thread →
  /// (column, element offset) map depends only on the batch width, so it is
  /// rebuilt only when the width changes (once more, for a short last batch).
  void start_batch() {
    e_ = 0;
    w_ = 0;
    if (batch_ >= cols_.size()) {
      return;
    }
    const std::size_t width =
        std::min(cols_.size() - batch_, static_cast<std::size_t>(config_.bin));
    if (width != width_) {
      width_ = width;
      const int threads = config_.threads_per_block;
      const auto segments = static_cast<std::uint64_t>(
          std::max(1, threads / static_cast<int>(width)));
      seg_len_ = (f_ + segments - 1) / segments;
      lane_map_.resize(static_cast<std::size_t>(threads));
      for (std::size_t t = 0; t < lane_map_.size(); ++t) {
        lane_map_[t] = {t % width, t / width % segments * seg_len_};
      }
    }
    for (std::size_t t = 0; t < lanes_.size(); ++t) {
      const LaneMap& map = lane_map_[t];
      lanes_[t] = {
          col_base(cols_[batch_ + map.col]) + map.elem * sizeof(real_t),
          map.elem < f_ ? f_ - map.elem : 0};
    }
    const auto warp = static_cast<std::ptrdiff_t>(warp_);
    for (auto w = lanes_.begin(); w != lanes_.end(); w += warp) {
      std::sort(w, w + warp,
                [](const Lane& a, const Lane& b) { return a.addr < b.addr; });
    }
  }

  TraceConfig config_;
  std::span<const index_t> cols_;
  int warp_;
  int line_shift_ = 0;
  std::uint64_t f_;
  std::uint64_t col_bytes_;
  std::vector<std::uint64_t> lines_;

  // Scheme (a) cursor: column index and byte offset within it.
  std::size_t col_ = 0;
  std::uint64_t off_ = 0;

  // Scheme (b) cursor: batch start, element step, warp.
  std::size_t batch_ = 0;
  std::uint64_t e_ = 0;
  std::size_t w_ = 0;
  std::uint64_t seg_len_ = 0;
  std::size_t width_ = 0;
  std::vector<LaneMap> lane_map_;
  std::vector<Lane> lanes_;
};

}  // namespace

std::vector<WarpInstruction> hermitian_load_trace(
    const DeviceSpec& dev, const TraceConfig& config,
    std::span<const index_t> cols) {
  LoadTraceGen gen(dev, config, cols);
  std::vector<WarpInstruction> stream;
  while (gen.next()) {
    stream.push_back({{gen.lines().begin(), gen.lines().end()}});
  }
  return stream;
}

TraceStats simulate_hermitian_load(
    const DeviceSpec& dev, const TraceConfig& config,
    std::span<const std::vector<index_t>> rows_per_block) {
  CUMF_EXPECTS(!rows_per_block.empty(), "need at least one resident block");

  // One generator per resident block (SM warp scheduler interleaves them).
  std::vector<LoadTraceGen> gens;
  gens.reserve(rows_per_block.size());
  for (const auto& cols : rows_per_block) {
    gens.emplace_back(dev, config, cols);
  }

  // L2 is shared device-wide; give this SM its proportional share so that a
  // single-SM simulation sees realistic L2 contention.
  // GPU L1s are highly associative (sectored, near-fully-associative per
  // set); 8 ways avoids artificial conflict misses the hardware doesn't see.
  CacheConfig l1{config.l1_enabled ? dev.l1_bytes : dev.cache_line_bytes * 8,
                 dev.cache_line_bytes, 8};
  CacheConfig l2{std::max<std::int64_t>(dev.l2_bytes / dev.sm_count,
                                        dev.cache_line_bytes * 64),
                 dev.cache_line_bytes, 16};
  CacheHierarchy hierarchy(l1, l2, config.l1_enabled);

  TraceStats stats;
  stats.rows_simulated = rows_per_block.size();

  // Round-robin interleave across resident blocks. A warp stalls for its
  // slowest line, and MemLevel is ordered L1 < L2 < Dram.
  std::uint64_t worst_count[3] = {0, 0, 0};
  std::vector<LoadTraceGen*> live;
  for (auto& gen : gens) {
    live.push_back(&gen);
  }
  while (!live.empty()) {
    std::size_t kept = 0;
    for (LoadTraceGen* gen : live) {
      if (!gen->next()) {
        continue;
      }
      live[kept++] = gen;
      MemLevel worst = MemLevel::L1;
      for (const std::uint64_t line : gen->lines()) {
        worst = std::max(worst, hierarchy.access(line));
      }
      ++worst_count[static_cast<int>(worst)];
    }
    live.resize(kept);
  }
  stats.line_accesses = hierarchy.accesses();
  stats.l1_hits = hierarchy.served_by(MemLevel::L1);
  stats.l2_hits = hierarchy.served_by(MemLevel::L2);
  stats.dram_accesses = hierarchy.served_by(MemLevel::Dram);
  stats.inst_worst_l1 = worst_count[static_cast<int>(MemLevel::L1)];
  stats.inst_worst_l2 = worst_count[static_cast<int>(MemLevel::L2)];
  stats.inst_worst_dram = worst_count[static_cast<int>(MemLevel::Dram)];
  stats.warp_instructions =
      stats.inst_worst_l1 + stats.inst_worst_l2 + stats.inst_worst_dram;
  return stats;
}

}  // namespace cumf::gpusim
