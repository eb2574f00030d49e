// Shared plumbing of the end-to-end benchmark: run options, the benchmark's
// own in-memory span recorder, exact percentiles over raw samples, and the
// report that prints every metric with its source and the final JSON line.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"

namespace e2e {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;     ///< per-layer run instead of end-to-end run
  std::string workdir;    ///< scratch files (ratings, checkpoints, shards)
  int threads = 1;        ///< threads the workload may start, all told
};

inline double now_s() {
  return static_cast<double>(cumf::Stopwatch::now_ns()) * 1e-9;
}

/// Median of raw samples; throws on an empty set.
double median(std::vector<double> samples);

/// Exact nearest-rank percentile `q` (0 < q < 1) of raw samples, or nullopt
/// when fewer than ten samples lie beyond it.
std::optional<double> percentile(std::vector<double> samples, double q);

/// Spans the benchmark records around each public call it makes. Kept in
/// memory per thread (never in a ring that can overflow) and aggregated by
/// name into self time once the run ends. Recording is on only during
/// traced passes; an untraced pass pays one relaxed load per call.
class Spans {
 public:
  struct Stat {
    std::uint64_t count = 0;
    double total_s = 0.0;
    /// Total minus the part of each span its direct children cover.
    double self_s = 0.0;
  };

  static Spans& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records one span from construction to destruction, as a child of the
  /// calling thread's current span.
  class Scope {
   public:
    explicit Scope(const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    const char* name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t start_ns_ = 0;
  };

  /// Makes `parent` the current span of the calling thread, so spans that
  /// worker threads record descend from the pass that started them.
  static void adopt(std::uint64_t parent);
  static std::uint64_t current();

  /// Per-name statistics of the spans that descend from span `under`.
  std::map<std::string, Stat> aggregate(std::uint64_t under) const;

  struct Record {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

 private:
  std::vector<Record>& local();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::deque<std::vector<Record>> buffers_;  ///< one per recording thread
};

/// Collects metrics, correctness checks and operation counts, and prints
/// them: one human-readable line per number (naming its source) followed
/// by the JSON result line.
class Report {
 public:
  explicit Report(const RunConfig& config) : config_(config) {}

  /// `source` says where the number comes from: "measured host",
  /// "modeled <device>", "computed from OpCounts" or "counted".
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& source);
  /// An informational line (not part of the JSON result).
  void note(const std::string& line);
  void check(const std::string& name, bool ok, const std::string& detail);

  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }

  /// Prints the span table of one phase (count, total and self time).
  void spans(const char* phase,
             const std::map<std::string, Spans::Stat>& stats);

  /// Prints the selected metric set and the JSON line; returns the exit
  /// code (non-zero when a check failed or nothing was attempted).
  int finish();

 private:
  struct Value {
    double value;
    std::string unit;
    std::string source;
  };
  const RunConfig& config_;
  std::map<std::string, Value> values_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

void run_train_incore(const RunConfig& config, Report& report);
void run_train_ooc(const RunConfig& config, Report& report);
void run_serve_mixed(const RunConfig& config, Report& report);
void run_model_sweep(const RunConfig& config, Report& report);

}  // namespace e2e
