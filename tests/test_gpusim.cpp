// Tests for the GPU architectural model: caches, occupancy (including the
// paper's worked example), access traces, cost model, interconnect, clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/interconnect.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/sim_clock.hpp"
#include "gpusim/trace.hpp"

namespace cumf::gpusim {
namespace {

// ---------- CacheLevel ----------

TEST(Cache, HitsOnRepeatedAccess) {
  CacheLevel cache({1024, 64, 2});
  EXPECT_FALSE(cache.access(0));
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(63));   // same line
  EXPECT_FALSE(cache.access(64));  // next line
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, LruEvictsOldestWay) {
  // 2-way, 64B lines, 2 sets (256B total). Addresses 0, 128, 256 all map to
  // set 0; the third insert evicts the least recently used (0).
  CacheLevel cache({256, 64, 2});
  cache.access(0);
  cache.access(128);
  EXPECT_TRUE(cache.access(0));    // refresh 0 → 128 becomes LRU
  cache.access(256);               // evicts 128
  EXPECT_TRUE(cache.access(0));
  EXPECT_FALSE(cache.access(128));  // was evicted
}

TEST(Cache, WorkingSetLargerThanCacheThrashes) {
  CacheLevel cache({4096, 64, 4});
  // Stream 16 KB twice: nothing survives, every access misses.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t addr = 0; addr < 16384; addr += 64) {
      cache.access(addr);
    }
  }
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(Cache, WorkingSetWithinCacheAllHitsOnSecondPass) {
  CacheLevel cache({16384, 64, 4});
  for (std::uint64_t addr = 0; addr < 8192; addr += 64) {
    cache.access(addr);
  }
  const auto misses_first = cache.misses();
  for (std::uint64_t addr = 0; addr < 8192; addr += 64) {
    EXPECT_TRUE(cache.access(addr));
  }
  EXPECT_EQ(cache.misses(), misses_first);
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(CacheLevel({0, 64, 2}), CheckError);
  EXPECT_THROW(CacheLevel({1000, 60, 2}), CheckError);  // non-pow2 line
  EXPECT_THROW(CacheLevel({64, 128, 2}), CheckError);   // below one set
}

TEST(Cache, FlushResetsState) {
  CacheLevel cache({1024, 64, 2});
  cache.access(0);
  cache.flush();
  EXPECT_EQ(cache.accesses(), 0u);
  EXPECT_FALSE(cache.access(0));
}

/// Reference true-LRU cache: per set a list of lines, most recent first,
/// with the set chosen by plain modulo.
class ReferenceLru {
 public:
  explicit ReferenceLru(const CacheConfig& c)
      : line_bytes_(static_cast<std::uint64_t>(c.line_bytes)),
        ways_(static_cast<std::size_t>(c.ways)),
        sets_(static_cast<std::size_t>(c.size_bytes /
                                       (c.line_bytes * c.ways))) {}

  bool access(std::uint64_t address) {
    const std::uint64_t line = address / line_bytes_;
    std::list<std::uint64_t>& set = sets_[line % sets_.size()];
    const auto it = std::find(set.begin(), set.end(), line);
    const bool hit = it != set.end();
    if (hit) {
      set.erase(it);
    } else if (set.size() == ways_) {
      set.pop_back();
    }
    set.push_front(line);
    return hit;
  }

 private:
  std::uint64_t line_bytes_;
  std::size_t ways_;
  std::vector<std::list<std::uint64_t>> sets_;
};

TEST(Cache, MatchesReferenceLruOnRandomStreams) {
  // Non-power-of-two set counts (3, 48, 50 — the K40 L2 share — and
  // 1000), 1/8/16 ways, and line numbers below, across and above 2^32, where
  // set indexing switches from the reciprocal to a plain modulo, up to the
  // top of the address space. Each stream mixes all four regions, so a set
  // index that is off in one region changes which lines collide.
  const CacheConfig configs[] = {
      {3 * 64 * 1, 64, 1},      {48 * 128 * 8, 128, 8},
      {50 * 128 * 16, 128, 16}, {64 * 64 * 8, 64, 8},
      {7 * 32 * 16, 32, 16},    {5 * 128 * 4, 128, 4},
      {1000 * 64 * 8, 64, 8},
  };
  constexpr int kAccesses = 40000;
  Rng rng(17);
  for (const CacheConfig& c : configs) {
    const auto line_bytes = static_cast<std::uint64_t>(c.line_bytes);
    // Twice the capacity in distinct lines: a mix of hits and misses.
    const auto region_lines =
        static_cast<std::uint64_t>(c.size_bytes) / line_bytes / 2;
    const std::uint64_t regions[] = {
        0, (std::uint64_t{1} << 32) - region_lines / 2,
        std::uint64_t{3} << 32, ~std::uint64_t{0} / line_bytes - region_lines};
    CacheLevel cache(c);
    ReferenceLru ref(c);
    std::uint64_t hits = 0;
    for (int i = 0; i < kAccesses; ++i) {
      const std::uint64_t line =
          regions[rng.uniform_index(4)] + rng.uniform_index(region_lines);
      const std::uint64_t address =
          line * line_bytes + rng.uniform_index(line_bytes);
      const bool hit = ref.access(address);
      ASSERT_EQ(cache.access(address), hit)
          << "sets " << cache.sets() << ", ways " << c.ways << ", line "
          << line << ", access " << i;
      hits += hit ? 1 : 0;
    }
    EXPECT_EQ(cache.hits(), hits);
    EXPECT_EQ(cache.misses(), kAccesses - hits);
    EXPECT_GT(hits, 0u);
    EXPECT_LT(hits, static_cast<std::uint64_t>(kAccesses));
  }
}

// ---------- hierarchy ----------

TEST(Hierarchy, L2CatchesL1Evictions) {
  // Tiny L1 (2 lines), big L2: a working set of 4 lines thrashes L1 but
  // lives in L2 after the first pass.
  CacheHierarchy h({128, 64, 1}, {65536, 64, 8}, true);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t addr = 0; addr < 4 * 64; addr += 64) {
      h.access(addr);
    }
  }
  EXPECT_EQ(h.served_by(MemLevel::Dram), 4u);  // only compulsory misses
  EXPECT_GE(h.served_by(MemLevel::L2), 4u);
}

TEST(Hierarchy, DisabledL1SendsEverythingToL2) {
  CacheHierarchy h({16384, 64, 4}, {65536, 64, 8}, false);
  h.access(0);
  h.access(0);
  EXPECT_EQ(h.served_by(MemLevel::L1), 0u);
  EXPECT_EQ(h.served_by(MemLevel::L2), 1u);
  EXPECT_EQ(h.served_by(MemLevel::Dram), 1u);
}

// ---------- occupancy ----------

TEST(Occupancy, PaperWorkedExample) {
  // §III Observation 2: f=100 → 168 regs/thread, 64-thread blocks, 65536
  // regs/SM → 65536/(168·64) ≈ 6 blocks per SM.
  const auto dev = DeviceSpec::maxwell_titan_x();
  EXPECT_EQ(hermitian_regs_per_thread(100, 10), 168);
  EXPECT_EQ(hermitian_threads_per_block(100, 10), 64);
  KernelResources res{168, 64, 32 * 100 * 4};
  const auto occ = compute_occupancy(dev, res);
  EXPECT_EQ(occ.blocks_per_sm, 6);
  EXPECT_EQ(occ.limited_by, OccupancyLimit::Registers);
  // 6 blocks × 2 warps = 12 of 64 max warps → low occupancy.
  EXPECT_LT(occ.fraction, 0.25);
}

TEST(Occupancy, PaperWorkingSetFitsBetweenL1AndL2) {
  // §III: θ working set per SM = 100 × 32 × 6 blocks × 4 B = 75 KB,
  // between Maxwell's 48 KB L1 and its per-SM share of the 3 MB L2.
  const auto dev = DeviceSpec::maxwell_titan_x();
  const double working_set = 100.0 * 32.0 * 6.0 * 4.0;
  EXPECT_NEAR(working_set / 1024.0, 75.0, 1.0);
  EXPECT_GT(working_set, dev.l1_bytes);
  EXPECT_LT(working_set, static_cast<double>(dev.l2_bytes) / dev.sm_count +
                             dev.l1_bytes * 2.0);
}

TEST(Occupancy, SharedMemoryCanLimit) {
  auto dev = DeviceSpec::maxwell_titan_x();
  KernelResources res{32, 64, 48 * 1024};  // two blocks exhaust 96 KB smem
  const auto occ = compute_occupancy(dev, res);
  EXPECT_EQ(occ.blocks_per_sm, 2);
  EXPECT_EQ(occ.limited_by, OccupancyLimit::SharedMemory);
}

TEST(Occupancy, BlockLimitCaps) {
  auto dev = DeviceSpec::maxwell_titan_x();
  KernelResources res{16, 32, 0};  // tiny blocks → hits max_blocks_per_sm
  const auto occ = compute_occupancy(dev, res);
  EXPECT_EQ(occ.blocks_per_sm, dev.max_blocks_per_sm);
}

TEST(Occupancy, RejectsNonWarpBlocks) {
  const auto dev = DeviceSpec::maxwell_titan_x();
  EXPECT_THROW(compute_occupancy(dev, KernelResources{32, 50, 0}),
               CheckError);
}

TEST(Occupancy, HermitianResourceHelpers) {
  EXPECT_EQ(hermitian_threads_per_block(80, 10), 64);   // 36 pairs → 2 warps
  EXPECT_EQ(hermitian_threads_per_block(100, 20), 32);  // 15 pairs → 1 warp
  EXPECT_EQ(hermitian_regs_per_thread(100, 20), 468);
  EXPECT_THROW(hermitian_regs_per_thread(100, 7), CheckError);
}

// ---------- trace ----------

std::vector<std::vector<index_t>> make_rows(int blocks, int degree,
                                            index_t n_cols,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<index_t>> rows(blocks);
  for (auto& row : rows) {
    row.resize(degree);
    for (auto& c : row) {
      c = static_cast<index_t>(rng.uniform_index(n_cols));
    }
  }
  return rows;
}

TEST(Trace, NonCoalescedHasFewerInstructionsButMoreLinesPerInstruction) {
  const auto dev = DeviceSpec::maxwell_titan_x();
  const auto rows = make_rows(6, 64, 2000, 1);
  TraceConfig coal;
  coal.coalesced = true;
  TraceConfig non = coal;
  non.coalesced = false;
  const auto s_coal = simulate_hermitian_load(dev, coal, rows);
  const auto s_non = simulate_hermitian_load(dev, non, rows);
  // Coalesced: ~1 line per instruction. Non-coalesced: many.
  const double lpi_coal = static_cast<double>(s_coal.line_accesses) /
                          static_cast<double>(s_coal.warp_instructions);
  const double lpi_non = static_cast<double>(s_non.line_accesses) /
                         static_cast<double>(s_non.warp_instructions);
  EXPECT_LT(lpi_coal, 2.5);
  EXPECT_GT(lpi_non, 8.0);
}

TEST(Trace, L1CachesNonCoalescedReuse) {
  const auto dev = DeviceSpec::maxwell_titan_x();
  const auto rows = make_rows(6, 64, 2000, 2);
  TraceConfig with_l1;
  with_l1.coalesced = false;
  with_l1.l1_enabled = true;
  TraceConfig no_l1 = with_l1;
  no_l1.l1_enabled = false;
  const auto s_l1 = simulate_hermitian_load(dev, with_l1, rows);
  const auto s_no = simulate_hermitian_load(dev, no_l1, rows);
  EXPECT_GT(s_l1.l1_hits, 0u);
  EXPECT_EQ(s_no.l1_hits, 0u);
  // Without L1 the reuse is still caught by L2 — DRAM traffic comparable.
  EXPECT_NEAR(static_cast<double>(s_no.dram_accesses),
              static_cast<double>(s_l1.dram_accesses),
              0.35 * static_cast<double>(s_l1.dram_accesses) + 16.0);
  // But all reuse traffic now round-trips through the L2: bypassing L1
  // costs L2 bandwidth, which is what slows nonCoal-noL1 in Fig. 4.
  EXPECT_GT(s_no.l2_hits, s_l1.l2_hits);
  EXPECT_GT(s_no.l2_bytes(dev.cache_line_bytes),
            1.5 * s_l1.l2_bytes(dev.cache_line_bytes));
}

TEST(Trace, StatsAreInternallyConsistent) {
  const auto dev = DeviceSpec::kepler_k40();
  const auto rows = make_rows(4, 40, 500, 3);
  TraceConfig config;
  config.coalesced = false;
  const auto s = simulate_hermitian_load(dev, config, rows);
  EXPECT_EQ(s.l1_hits + s.l2_hits + s.dram_accesses, s.line_accesses);
  EXPECT_EQ(s.inst_worst_l1 + s.inst_worst_l2 + s.inst_worst_dram,
            s.warp_instructions);
  EXPECT_EQ(s.rows_simulated, 4u);
}

/// The simulation spelled out: collect every block's instruction stream
/// with hermitian_load_trace, interleave the blocks round-robin and replay
/// the lines through the same L1/L2 geometry simulate_hermitian_load uses.
TraceStats replay_trace(const DeviceSpec& dev, const TraceConfig& config,
                        const std::vector<std::vector<index_t>>& rows) {
  std::vector<std::vector<WarpInstruction>> streams;
  for (const auto& cols : rows) {
    streams.push_back(hermitian_load_trace(dev, config, cols));
  }
  const CacheConfig l1{
      config.l1_enabled ? dev.l1_bytes : dev.cache_line_bytes * 8,
      dev.cache_line_bytes, 8};
  const CacheConfig l2{std::max<std::int64_t>(dev.l2_bytes / dev.sm_count,
                                              dev.cache_line_bytes * 64),
                       dev.cache_line_bytes, 16};
  CacheHierarchy hierarchy(l1, l2, config.l1_enabled);
  TraceStats s;
  s.rows_simulated = rows.size();
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (const auto& stream : streams) {
      if (i >= stream.size()) {
        continue;
      }
      any = true;
      ++s.warp_instructions;
      MemLevel worst = MemLevel::L1;
      for (const std::uint64_t line : stream[i].lines) {
        const MemLevel level = hierarchy.access(line);
        ++s.line_accesses;
        if (level == MemLevel::L1) {
          ++s.l1_hits;
        } else if (level == MemLevel::L2) {
          ++s.l2_hits;
        } else {
          ++s.dram_accesses;
        }
        if (level == MemLevel::Dram ||
            (level == MemLevel::L2 && worst == MemLevel::L1)) {
          worst = level;
        }
      }
      ++(worst == MemLevel::L1   ? s.inst_worst_l1
         : worst == MemLevel::L2 ? s.inst_worst_l2
                                 : s.inst_worst_dram);
    }
    if (!any) {
      return s;
    }
  }
}

void expect_stats_eq(const TraceStats& got, const TraceStats& want) {
  EXPECT_EQ(got.warp_instructions, want.warp_instructions);
  EXPECT_EQ(got.line_accesses, want.line_accesses);
  EXPECT_EQ(got.l1_hits, want.l1_hits);
  EXPECT_EQ(got.l2_hits, want.l2_hits);
  EXPECT_EQ(got.dram_accesses, want.dram_accesses);
  EXPECT_EQ(got.inst_worst_l1, want.inst_worst_l1);
  EXPECT_EQ(got.inst_worst_l2, want.inst_worst_l2);
  EXPECT_EQ(got.inst_worst_dram, want.inst_worst_dram);
  EXPECT_EQ(got.rows_simulated, want.rows_simulated);
}

TEST(Trace, StreamedSimulationEqualsReplayOfCollectedTrace) {
  struct Case {
    int f;
    int bin;
    int threads;
    int cols;  // per block; block b stages cols + 7 * b columns
  };
  // bin 20 at 64 threads: 3 segments of 34 elements cover 102 > f = 100
  // (an element tail), and 67 % 20 leaves a short last batch of width 7
  // (10 segments of 10). f = 33 tails at every width; bin 128 exceeds the
  // block, so each batch has one segment.
  const Case cases[] = {{100, 20, 64, 67}, {100, 32, 64, 64}, {33, 16, 96, 45},
                        {64, 128, 64, 150}, {100, 32, 32, 1}};
  const DeviceSpec devices[] = {DeviceSpec::kepler_k40(),
                                DeviceSpec::pascal_p100()};
  std::uint64_t seed = 40;
  for (const DeviceSpec& dev : devices) {
    for (const Case& c : cases) {
      std::vector<std::vector<index_t>> rows;
      for (int b = 0; b < 4; ++b) {
        rows.push_back(make_rows(1, c.cols + 7 * b, 3000, ++seed).front());
      }
      for (const bool coalesced : {true, false}) {
        for (const bool l1 : {true, false}) {
          TraceConfig config;
          config.f = c.f;
          config.bin = c.bin;
          config.threads_per_block = c.threads;
          config.coalesced = coalesced;
          config.l1_enabled = l1;
          SCOPED_TRACE(dev.name + " f " + std::to_string(c.f) + " bin " +
                       std::to_string(c.bin) +
                       (coalesced ? " coalesced" : " scattered") +
                       (l1 ? " L1" : " noL1"));
          const TraceStats want = replay_trace(dev, config, rows);
          EXPECT_GT(want.warp_instructions, 0u);
          expect_stats_eq(simulate_hermitian_load(dev, config, rows), want);
        }
      }
    }
  }
}

TEST(Trace, StatsPinnedToReferenceValues) {
  // Full TraceStats of cheap configurations, recorded from the original
  // materialize-then-replay simulator; the modeled numbers must not move.
  struct Pinned {
    const char* name;
    TraceStats stats;
  };
  const auto titan = DeviceSpec::maxwell_titan_x();
  const auto titan_rows = make_rows(6, 64, 2000, 1);
  TraceConfig coal;
  coal.coalesced = true;
  TraceConfig scattered;
  scattered.coalesced = false;
  TraceConfig scattered_no_l1 = scattered;
  scattered_no_l1.l1_enabled = false;
  TraceConfig tail = scattered;
  tail.bin = 20;
  TraceConfig f64 = coal;
  f64.f = 64;
  f64.l1_enabled = false;
  const Pinned pinned[] = {
      {"titan coalesced",
       {1536, 2538, 1088, 84, 1366, 392, 62, 1082, 6}},
      {"titan scattered",
       {1200, 38300, 20053, 16876, 1371, 0, 978, 222, 6}},
      {"titan scattered noL1",
       {1200, 38300, 0, 36932, 1368, 0, 981, 219, 6}},
      {"k40 scattered bin 20",
       {952, 28307, 5781, 21736, 790, 0, 828, 124, 4}},
      {"p100 coalesced f 64 noL1",
       {900, 900, 0, 4, 896, 0, 4, 896, 5}},
  };
  const TraceStats got[] = {
      simulate_hermitian_load(titan, coal, titan_rows),
      simulate_hermitian_load(titan, scattered, titan_rows),
      simulate_hermitian_load(titan, scattered_no_l1, titan_rows),
      simulate_hermitian_load(DeviceSpec::kepler_k40(), tail,
                              make_rows(4, 70, 500, 3)),
      simulate_hermitian_load(DeviceSpec::pascal_p100(), f64,
                              make_rows(5, 90, 100000, 4)),
  };
  for (std::size_t i = 0; i < std::size(pinned); ++i) {
    SCOPED_TRACE(pinned[i].name);
    expect_stats_eq(got[i], pinned[i].stats);
  }
}

// ---------- cost model ----------

TEST(CostModel, ComputeBoundKernel) {
  const auto dev = DeviceSpec::pascal_p100();
  KernelProfile p;
  p.name = "flops_only";
  p.flops = 1e12;
  p.compute_efficiency = 1.0;
  const auto t = kernel_time(dev, p);
  EXPECT_STREQ(t.bound_by, "compute");
  EXPECT_NEAR(t.seconds, 1e12 / dev.peak_flops, 1e-9);
}

TEST(CostModel, BandwidthBoundKernel) {
  const auto dev = DeviceSpec::pascal_p100();
  KernelProfile p;
  p.name = "stream";
  p.dram_read_bytes = 74e9;
  p.dram_efficiency = 1.0;
  const auto t = kernel_time(dev, p);
  EXPECT_STREQ(t.bound_by, "dram");
  EXPECT_NEAR(t.seconds, 0.1, 1e-6);
}

TEST(CostModel, LatencyBoundAtLowOccupancy) {
  const auto dev = DeviceSpec::maxwell_titan_x();
  KernelProfile p;
  p.name = "pointer_chase";
  p.dram_read_bytes = 1e6;  // trivial traffic
  p.stall_latency_s = 10.0;  // but enormous serialized latency
  p.warps_per_sm = 2;
  const auto t = kernel_time(dev, p);
  EXPECT_STREQ(t.bound_by, "latency");
  EXPECT_GT(t.seconds, t.t_dram);
}

TEST(CostModel, MemcpyBandwidthBelowPeak) {
  for (const auto& dev :
       {DeviceSpec::kepler_k40(), DeviceSpec::maxwell_titan_x(),
        DeviceSpec::pascal_p100()}) {
    EXPECT_LT(memcpy_bandwidth(dev), dev.dram_bw);
    EXPECT_GT(memcpy_bandwidth(dev), 0.5 * dev.dram_bw);
  }
}

TEST(CostModel, ApplyTraceScalesWithRows) {
  const auto dev = DeviceSpec::maxwell_titan_x();
  TraceStats stats;
  stats.rows_simulated = 10;
  stats.dram_accesses = 100;
  stats.l2_hits = 50;
  stats.inst_worst_dram = 100;
  KernelProfile p1;
  apply_trace(dev, stats, 10.0, p1);
  KernelProfile p2;
  apply_trace(dev, stats, 1000.0, p2);
  EXPECT_NEAR(p2.dram_read_bytes, 100.0 * p1.dram_read_bytes, 1e-6);
  EXPECT_NEAR(p2.stall_latency_s, 100.0 * p1.stall_latency_s, 1e-12);
}

TEST(CostModel, HostSgdEpochScalesInverselyWithMachines) {
  const auto one = HostSpec::libmf_40core();
  const double t1 = host_sgd_epoch_seconds(one, 1e8, 100);
  EXPECT_GT(t1, 0.0);
  auto two = one;
  two.machines = 2;
  EXPECT_LT(host_sgd_epoch_seconds(two, 1e8, 100), t1);
}

TEST(CostModel, NetworkTimeOnlyForClusters) {
  EXPECT_EQ(host_network_epoch_seconds(HostSpec::libmf_40core(), 1e5, 100),
            0.0);
  EXPECT_GT(host_network_epoch_seconds(HostSpec::nomad_cluster(32), 1e5, 100),
            0.0);
}

// ---------- interconnect ----------

TEST(Interconnect, NvlinkFasterThanPcie) {
  const double bytes = 1e9;
  EXPECT_LT(transfer_seconds(LinkSpec::nvlink(), bytes),
            transfer_seconds(LinkSpec::pcie3(), bytes));
}

TEST(Interconnect, AllGatherScalesWithGpuCount) {
  const auto link = LinkSpec::nvlink();
  EXPECT_EQ(allgather_seconds(link, 1, 1e9), 0.0);
  const double t2 = allgather_seconds(link, 2, 1e9);
  const double t4 = allgather_seconds(link, 4, 1e9);
  EXPECT_GT(t4, t2);
  EXPECT_NEAR(t4 / t2, 3.0, 0.01);  // (g−1) rounds
}

TEST(Interconnect, RejectsNegativeBytes) {
  EXPECT_THROW(transfer_seconds(LinkSpec::nvlink(), -1.0), CheckError);
}

TEST(Interconnect, PipelinedStreamOverlapsTransferWithCompute) {
  // wall = t0 + Σ max(c_i, t_{i+1}) + c_last. Equal stages of 1s transfer /
  // 2s compute: 1 + 2 + 2 + 2 = 7 instead of the serial 9.
  const std::vector<double> t{1.0, 1.0, 1.0};
  const std::vector<double> c{2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(pipelined_stream_seconds(t, c), 7.0);

  // Transfer-bound: compute hides entirely behind the wire.
  const std::vector<double> t2{4.0, 4.0};
  const std::vector<double> c2{1.0, 1.0};
  EXPECT_DOUBLE_EQ(pipelined_stream_seconds(t2, c2), 4.0 + 4.0 + 1.0);

  // Single stage cannot overlap anything; empty stream is free.
  const std::vector<double> one{3.0};
  EXPECT_DOUBLE_EQ(pipelined_stream_seconds(one, one), 6.0);
  EXPECT_DOUBLE_EQ(pipelined_stream_seconds({}, {}), 0.0);
}

TEST(Interconnect, PipelinedStreamValidatesInput) {
  const std::vector<double> two{1.0, 1.0};
  const std::vector<double> three{1.0, 1.0, 1.0};
  EXPECT_THROW(pipelined_stream_seconds(two, three), CheckError);
  const std::vector<double> neg{1.0, -1.0};
  EXPECT_THROW(pipelined_stream_seconds(two, neg), CheckError);
}

// ---------- sim clock ----------

TEST(SimClock, AccumulatesPerKernel) {
  SimClock clock;
  clock.charge("solve", 1.5);
  clock.charge("solve", 0.5);
  clock.charge("hermitian", 2.0);
  EXPECT_DOUBLE_EQ(clock.of("solve"), 2.0);
  EXPECT_DOUBLE_EQ(clock.of("hermitian"), 2.0);
  EXPECT_DOUBLE_EQ(clock.of("missing"), 0.0);
  EXPECT_DOUBLE_EQ(clock.total(), 4.0);
  clock.reset();
  EXPECT_DOUBLE_EQ(clock.total(), 0.0);
}

TEST(SimClock, RejectsNegativeCharge) {
  SimClock clock;
  EXPECT_THROW(clock.charge("k", -1.0), CheckError);
}

// ---------- device presets ----------

TEST(Device, PresetsMatchTableIII) {
  const auto k = DeviceSpec::kepler_k40();
  const auto m = DeviceSpec::maxwell_titan_x();
  const auto p = DeviceSpec::pascal_p100();
  EXPECT_NEAR(k.peak_flops, 4e12, 1e10);
  EXPECT_NEAR(m.peak_flops, 7e12, 1e10);
  EXPECT_NEAR(p.peak_flops, 11e12, 1e10);
  EXPECT_NEAR(k.dram_bw, 288e9, 1e8);
  EXPECT_NEAR(m.dram_bw, 340e9, 1e8);
  EXPECT_NEAR(p.dram_bw, 740e9, 1e8);
  // Generations get strictly faster in both dimensions.
  EXPECT_LT(k.peak_flops, m.peak_flops);
  EXPECT_LT(m.peak_flops, p.peak_flops);
  EXPECT_LT(k.dram_bw, m.dram_bw);
  EXPECT_LT(m.dram_bw, p.dram_bw);
}


TEST(Device, VoltaPresetHasTensorCores) {
  const auto v = DeviceSpec::volta_v100();
  EXPECT_GT(v.tensor_flops, v.peak_flops);      // TC peak far above FP32
  EXPECT_GT(v.peak_flops, DeviceSpec::pascal_p100().peak_flops);
  EXPECT_GT(v.dram_bw, DeviceSpec::pascal_p100().dram_bw);
  EXPECT_EQ(DeviceSpec::kepler_k40().tensor_flops, 0.0);
}

TEST(CostModel, HostAlsEpochScalesWithF) {
  const auto host = HostSpec::libmf_40core();
  const double f50 = host_als_epoch_seconds(host, 1e8, 5e5, 2e4, 50);
  const double f100 = host_als_epoch_seconds(host, 1e8, 5e5, 2e4, 100);
  EXPECT_GT(f100, 3.5 * f50);  // Nz·f² term dominates → ~4x
}

TEST(Trace, EmptyRowsProduceNoInstructions) {
  const auto dev = DeviceSpec::maxwell_titan_x();
  std::vector<std::vector<index_t>> rows(3);  // all empty
  TraceConfig config;
  const auto stats = simulate_hermitian_load(dev, config, rows);
  EXPECT_EQ(stats.warp_instructions, 0u);
  EXPECT_EQ(stats.line_accesses, 0u);
  EXPECT_EQ(stats.rows_simulated, 3u);
}

}  // namespace
}  // namespace cumf::gpusim
