// Address-trace generation for the get_hermitian load phase.
//
// Reproduces the experiment behind Fig. 3/4: the same set of feature columns
// θ_v is staged from global to shared memory under (a) the conventional
// coalesced scheme — all threads cooperate on one column before moving to the
// next — and (b) the paper's non-coalesced scheme — each thread walks its own
// column so one warp instruction touches up to 32 distinct cache lines.
// The traces of all thread-blocks resident on one SM are interleaved
// round-robin (emulating the SM warp scheduler) and run through the simulated
// L1→L2 hierarchy; the hit profile feeds the timing model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/device.hpp"

namespace cumf::gpusim {

struct TraceConfig {
  int f = 100;                ///< latent dimension (floats per column)
  int bin = 32;               ///< columns staged per batch (paper's BIN)
  int threads_per_block = 64;
  bool coalesced = false;     ///< scheme (a) if true, scheme (b) if false
  bool l1_enabled = true;     ///< false models the -dlcm=cg / noL1 build
  std::uint64_t theta_base = 0x10000000;  ///< base address of Θᵀ
};

struct TraceStats {
  std::uint64_t warp_instructions = 0;
  std::uint64_t line_accesses = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t dram_accesses = 0;
  /// Instructions whose slowest line was served by each level: the warp
  /// stalls for its worst line, so latency modelling uses these.
  std::uint64_t inst_worst_l1 = 0;
  std::uint64_t inst_worst_l2 = 0;
  std::uint64_t inst_worst_dram = 0;
  /// Number of simulated rows (one per resident block iteration).
  std::uint64_t rows_simulated = 0;

  double dram_bytes(int line_bytes) const noexcept {
    return static_cast<double>(dram_accesses) * line_bytes;
  }
  double l2_bytes(int line_bytes) const noexcept {
    return static_cast<double>(l2_hits + dram_accesses) * line_bytes;
  }
  /// Fraction of line accesses served by L1 (0 when nothing was traced).
  double l1_hit_rate() const noexcept {
    return line_accesses == 0
               ? 0.0
               : static_cast<double>(l1_hits) / static_cast<double>(line_accesses);
  }
  /// Fraction of L1 misses served by L2.
  double l2_hit_rate() const noexcept {
    const std::uint64_t misses = l2_hits + dram_accesses;
    return misses == 0 ? 0.0
                       : static_cast<double>(l2_hits) /
                             static_cast<double>(misses);
  }
};

/// One warp-wide memory instruction: the distinct cache-line addresses it
/// touches (1 for a fully coalesced access, up to warp_size otherwise).
/// These records are the raw material of both the cache simulation below
/// and the analysis layer's coalescing lint (analysis/coalesce.hpp).
struct WarpInstruction {
  std::vector<std::uint64_t> lines;
};

/// Builds the load-phase instruction stream of one thread-block staging the
/// feature columns `cols` under `config`'s scheme. Each instruction's lines
/// are distinct and ascending.
std::vector<WarpInstruction> hermitian_load_trace(
    const DeviceSpec& dev, const TraceConfig& config,
    std::span<const index_t> cols);

/// Simulates the load phase on one SM. `rows_per_block[b]` is the sequence
/// of column indices (the non-zero columns of the rating row) that resident
/// block `b` must stage; the number of resident blocks is
/// `rows_per_block.size()` — pass the occupancy result for the real kernel.
/// The result equals replaying hermitian_load_trace of every block,
/// interleaved, through a CacheHierarchy; the instructions are generated on
/// the fly, so memory is O(resident blocks), not O(trace).
TraceStats simulate_hermitian_load(
    const DeviceSpec& dev, const TraceConfig& config,
    std::span<const std::vector<index_t>> rows_per_block);

}  // namespace cumf::gpusim
