#include "gpusim/cache.hpp"

#include <algorithm>
#include <bit>

namespace cumf::gpusim {

namespace {
bool is_pow2(std::int64_t x) noexcept { return x > 0 && (x & (x - 1)) == 0; }

/// Presents `tag` to the `ways` ways of one set at time `clock`: a hit
/// refreshes its stamp, a miss replaces the lowest-index way holding the
/// smallest stamp. Returns true on hit. Tags are unique within a set, so
/// neither scan needs an early exit or a data-dependent branch.
[[gnu::always_inline]] inline bool touch_set(std::uint64_t* tags,
                                             std::uint64_t* stamps, int ways,
                                             std::uint64_t tag,
                                             std::uint64_t clock) noexcept {
  int hit = ways;
  for (int w = 0; w < ways; ++w) {
    hit = tags[w] == tag ? w : hit;
  }
  if (hit < ways) {
    stamps[hit] = clock;
    return true;
  }
  int victim = 0;
  std::uint64_t oldest = stamps[0];
  for (int w = 1; w < ways; ++w) {
    const bool older = stamps[w] < oldest;
    oldest = older ? stamps[w] : oldest;
    victim = older ? w : victim;
  }
  tags[victim] = tag;
  stamps[victim] = clock;
  return false;
}
}  // namespace

CacheLevel::CacheLevel(const CacheConfig& config) : config_(config) {
  CUMF_EXPECTS(config_.size_bytes > 0, "cache size must be positive");
  CUMF_EXPECTS(is_pow2(config_.line_bytes), "line size must be a power of 2");
  CUMF_EXPECTS(config_.ways > 0, "cache must have at least one way");
  // Arbitrary set counts are allowed (real L1s are often non-power-of-two
  // when partitioned); indexing uses modulo rather than bit masking.
  sets_ = config_.size_bytes / (static_cast<std::int64_t>(config_.line_bytes) *
                                config_.ways);
  CUMF_EXPECTS(sets_ > 0, "cache smaller than one set");
  CUMF_EXPECTS(sets_ <= std::int64_t{0xFFFFFFFF}, "too many cache sets");
  line_shift_ = std::countr_zero(static_cast<unsigned>(config_.line_bytes));
  set_magic_ = ~std::uint64_t{0} / static_cast<std::uint64_t>(sets_) + 1;
  tags_.assign(static_cast<std::size_t>(sets_) * config_.ways, 0);
  stamps_.assign(tags_.size(), 0);
}

std::uint64_t CacheLevel::set_of(std::uint64_t line) const noexcept {
  const auto sets = static_cast<std::uint64_t>(sets_);
  if (line >> 32 != 0) {
    return line % sets;
  }
  // Lemire, Kaser & Kurz, "Faster remainder by direct computation" (2019):
  // for 32-bit line and sets, the low word of magic·line is the fraction
  // line/sets, and that fraction times sets has the remainder as its high
  // word.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(set_magic_ * line) * sets) >> 64);
}

bool CacheLevel::access(std::uint64_t address) {
  const std::uint64_t line = address >> line_shift_;
  const std::uint64_t tag = line + 1;  // +1 so tag 0 means "invalid"
  const std::size_t base = static_cast<std::size_t>(set_of(line)) *
                           static_cast<std::size_t>(config_.ways);
  std::uint64_t* const tags = tags_.data() + base;
  std::uint64_t* const stamps = stamps_.data() + base;
  ++clock_;

  // The trace simulation's L1 is 8-way and its L2 16-way; constant way
  // counts let the compiler unroll and vectorize the scans.
  bool hit = false;
  switch (config_.ways) {
    case 8:
      hit = touch_set(tags, stamps, 8, tag, clock_);
      break;
    case 16:
      hit = touch_set(tags, stamps, 16, tag, clock_);
      break;
    default:
      hit = touch_set(tags, stamps, config_.ways, tag, clock_);
      break;
  }
  ++(hit ? hits_ : misses_);
  return hit;
}

void CacheLevel::flush() {
  std::fill(tags_.begin(), tags_.end(), 0);
  std::fill(stamps_.begin(), stamps_.end(), 0);
  clock_ = hits_ = misses_ = 0;
}

double CacheLevel::hit_rate() const noexcept {
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(hits_) / static_cast<double>(total);
}

CacheHierarchy::CacheHierarchy(const CacheConfig& l1, const CacheConfig& l2,
                               bool l1_enabled)
    : l1_(l1), l2_(l2), l1_enabled_(l1_enabled) {}

MemLevel CacheHierarchy::access(std::uint64_t address) {
  ++total_;
  if (l1_enabled_ && l1_.access(address)) {
    ++from_l1_;
    return MemLevel::L1;
  }
  if (l2_.access(address)) {
    ++from_l2_;
    return MemLevel::L2;
  }
  ++from_dram_;
  return MemLevel::Dram;
}

std::uint64_t CacheHierarchy::served_by(MemLevel level) const {
  switch (level) {
    case MemLevel::L1:
      return from_l1_;
    case MemLevel::L2:
      return from_l2_;
    case MemLevel::Dram:
      return from_dram_;
  }
  return 0;
}

void CacheHierarchy::flush() {
  l1_.flush();
  l2_.flush();
  total_ = from_l1_ = from_l2_ = from_dram_ = 0;
}

}  // namespace cumf::gpusim
