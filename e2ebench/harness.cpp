#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <utility>


namespace e2e {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares, in the same order. A traced run
// prints every per-layer metric on every workload; a layer the workload
// does not exercise reads 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},     {"run_s", "s"},        {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"}, {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"data.parse_s", "s"},
    {"data.split_s", "s"},
    {"data.shard_write_s", "s"},
    {"data.shard_bytes", "B"},
    {"data.tile_load_s", "s"},
    {"data.tile_bytes", "B"},
    {"data.tile_hits", "count"},
    {"data.tile_misses", "count"},
    {"data.tile_hit_ratio", "ratio"},
    {"data.ckpt_write_s", "s"},
    {"data.ckpt_bytes", "B"},
    {"core.engine_build_s", "s"},
    {"core.epoch_s_median", "s"},
    {"core.epoch_s_max", "s"},
    {"core.hermitian_s", "s"},
    {"core.solve_s", "s"},
    {"core.ooc_stall_s", "s"},
    {"core.ooc_compute_s", "s"},
    {"core.hermitian_gflop", "GFLOP"},
    {"core.hermitian_gb", "GB"},
    {"core.solve_gflop", "GFLOP"},
    {"core.solve_gb", "GB"},
    {"core.solve_flop_per_byte", "FLOP/B"},
    {"solver.systems", "count"},
    {"solver.cg_iters_per_system", "count"},
    {"solver.fp16_pack_mb", "MB"},
    {"solver.cg_fallbacks", "count"},
    {"solver.fp16_fallbacks", "count"},
    {"solver.failures", "count"},
    {"metrics.rmse_s", "s"},
    {"serve.topk_s", "s"},
    {"serve.queue_ms", "ms"},
    {"serve.observe_s", "s"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.requests", "count"},
    {"serve.errors", "count"},
    {"serve.gen_late_ms", "ms"},
    {"gpusim.phase_times_s", "s"},
    {"gpusim.load_stats_s", "s"},
    {"gpusim.calls", "count"},
    {"prof.trace_dropped", "count"},
    {"prof.trace_overhead", "ratio"},
};

thread_local std::uint64_t t_current_span = 0;
thread_local std::vector<Spans::Record>* t_buffer = nullptr;

std::string format_number(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

}  // namespace

double median(std::vector<double> samples) {
  if (samples.empty()) {
    throw std::runtime_error("median of no samples");
  }
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double hi = samples[mid];
  if (samples.size() % 2 == 1) {
    return hi;
  }
  const double lo = *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lo + hi);
}

std::optional<double> percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0 || n - rank < 10) {
    return std::nullopt;
  }
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

Spans& Spans::instance() {
  static Spans spans;
  return spans;
}

Spans::Scope::Scope(const char* name) : name_(name) {
  Spans& spans = instance();
  if (!spans.enabled()) {
    return;
  }
  id_ = spans.next_id_.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current_span;
  t_current_span = id_;
  start_ns_ = cumf::Stopwatch::now_ns();
}

Spans::Scope::~Scope() {
  if (id_ == 0) {
    return;
  }
  const std::uint64_t end = cumf::Stopwatch::now_ns();
  t_current_span = parent_;
  instance().local().push_back({name_, id_, parent_, start_ns_, end});
}

void Spans::adopt(std::uint64_t parent) { t_current_span = parent; }

std::uint64_t Spans::current() { return t_current_span; }

std::vector<Spans::Record>& Spans::local() {
  if (t_buffer == nullptr) {
    const std::lock_guard lock(mutex_);
    t_buffer = &buffers_.emplace_back();
  }
  return *t_buffer;
}

std::map<std::string, Spans::Stat> Spans::aggregate(std::uint64_t under) const {
  const std::lock_guard lock(mutex_);
  std::unordered_map<std::uint64_t, std::uint64_t> parent_of;
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const auto& buffer : buffers_) {
    for (const Record& r : buffer) {
      parent_of[r.id] = r.parent;
      children[r.parent].emplace_back(r.start_ns, r.end_ns);
    }
  }
  // Nanoseconds of [start, end) covered by the union of the child spans,
  // which may overlap when they ran on different threads.
  const auto covered = [&](const Record& r) {
    const auto it = children.find(r.id);
    if (it == children.end()) {
      return std::uint64_t{0};
    }
    auto spans = it->second;
    std::sort(spans.begin(), spans.end());
    std::uint64_t total = 0;
    std::uint64_t reach = r.start_ns;
    for (const auto& [b, e] : spans) {
      const std::uint64_t lo = std::max(b, reach);
      const std::uint64_t hi = std::min(e, r.end_ns);
      if (hi > lo) {
        total += hi - lo;
        reach = hi;
      }
    }
    return total;
  };
  const auto descends = [&](std::uint64_t id) {
    while (id != 0) {
      if (id == under) {
        return true;
      }
      const auto it = parent_of.find(id);
      id = it == parent_of.end() ? 0 : it->second;
    }
    return false;
  };
  std::map<std::string, Stat> out;
  for (const auto& buffer : buffers_) {
    for (const Record& r : buffer) {
      if (!descends(r.parent)) {
        continue;
      }
      Stat& s = out[r.name];
      const std::uint64_t d = r.end_ns - r.start_ns;
      ++s.count;
      s.total_s += static_cast<double>(d) * 1e-9;
      s.self_s += static_cast<double>(d - covered(r)) * 1e-9;
    }
  }
  return out;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& source) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  values_[name] = Value{value, unit, source};
}

void Report::note(const std::string& line) { std::printf("  %s\n", line.c_str()); }

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  std::printf("  check %-34s %s  %s\n", name.c_str(), ok ? "ok  " : "FAIL",
              detail.c_str());
  if (!ok) {
    failures_.push_back(name);
  }
}

void Report::spans(const char* phase,
                   const std::map<std::string, Spans::Stat>& stats) {
  std::printf("  spans of the traced %s (measured host):\n", phase);
  for (const auto& [name, s] : stats) {
    std::printf("    %-24s count %8llu  total %10.6f s  self %10.6f s\n",
                name.c_str(), static_cast<unsigned long long>(s.count),
                s.total_s, s.self_s);
  }
}

int Report::finish() {
  std::fflush(stdout);
  bool complete = true;
  std::string json = "{";
  bool first = true;
  std::printf("\n%s metrics (workload %s):\n",
              config_.trace ? "per-layer" : "end-to-end",
              config_.workload.c_str());
  const auto emit = [&](const MetricDef& def) {
    auto it = values_.find(def.name);
    if (it == values_.end()) {
      if (!config_.trace) {
        std::fprintf(stderr, "e2ebench: metric %s was not measured\n",
                     def.name);
        complete = false;
        return;
      }
      it = values_.emplace(def.name, Value{0.0, def.unit, "not exercised"})
               .first;
    }
    if (it->second.unit != def.unit) {
      std::fprintf(stderr, "e2ebench: metric %s has unit %s, expected %s\n",
                   def.name, it->second.unit.c_str(), def.unit);
      complete = false;
    }
    std::printf("  %-28s %16s %-6s [%s]\n", def.name,
                format_number(it->second.value, 6).c_str(), def.unit,
                it->second.source.c_str());
    json += (first ? "\"" : ", \"") + std::string(def.name) +
            "\": {\"value\": " + format_number(it->second.value, 17) +
            ", \"unit\": \"" + def.unit + "\"}";
    first = false;
  };
  if (config_.trace) {
    for (const MetricDef& def : kPerLayer) {
      emit(def);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      emit(def);
    }
  }
  json += "}";
  const bool correct = failures_.empty() && complete && attempted_ > 0;
  std::printf("operations: attempted %llu, failed %llu (failed_frac %.6g)\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              attempted_ > 0 ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 0.0);
  for (const std::string& f : failures_) {
    std::fprintf(stderr, "e2ebench: correctness check failed: %s\n",
                 f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace e2e
