// Set-associative LRU cache simulation.
//
// Solution 2 of the paper rests on a cache claim: under low occupancy the
// non-coalesced load pattern's working set fits in L1/L2, so the caches act
// as a "coalescing buffer" and the unconventional pattern wins. Rather than
// assert that, we simulate it: address traces of both load schemes run
// through this L1→L2 hierarchy and the measured hit rates feed the timing
// model.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace cumf::gpusim {

struct CacheConfig {
  std::int64_t size_bytes = 0;
  int line_bytes = 128;
  int ways = 4;
};

/// One level of set-associative cache with true-LRU replacement.
class CacheLevel {
 public:
  explicit CacheLevel(const CacheConfig& config);

  /// Presents one line-aligned address; returns true on hit. Misses insert
  /// the line (allocate-on-miss) and evict the LRU way: the lowest-index way
  /// with the smallest stamp, so invalid ways fill first, in order.
  bool access(std::uint64_t address);

  void flush();

  std::int64_t sets() const noexcept { return sets_; }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t accesses() const noexcept { return hits_ + misses_; }
  double hit_rate() const noexcept;

 private:
  /// line % sets_, exact for every line.
  std::uint64_t set_of(std::uint64_t line) const noexcept;

  CacheConfig config_;
  std::int64_t sets_ = 0;
  int line_shift_ = 0;
  /// ceil(2^64 / sets_) mod 2^64, the reciprocal set_of uses below 2^32.
  std::uint64_t set_magic_ = 0;
  // tags_[set * ways + way]; stamp 0 == invalid.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Where a memory access was served from.
enum class MemLevel { L1, L2, Dram };

/// Two-level hierarchy; the L1 can be bypassed (the paper's noL1 / coalesced
/// configurations, matching CUDA's -dlcm=cg compile flag).
class CacheHierarchy {
 public:
  CacheHierarchy(const CacheConfig& l1, const CacheConfig& l2,
                 bool l1_enabled);

  MemLevel access(std::uint64_t address);

  std::uint64_t served_by(MemLevel level) const;
  std::uint64_t accesses() const noexcept { return total_; }
  bool l1_enabled() const noexcept { return l1_enabled_; }

  void flush();

 private:
  CacheLevel l1_;
  CacheLevel l2_;
  bool l1_enabled_;
  std::uint64_t total_ = 0;
  std::uint64_t from_l1_ = 0;
  std::uint64_t from_l2_ = 0;
  std::uint64_t from_dram_ = 0;
};

}  // namespace cumf::gpusim
