// serve_mixed: an open-loop request stream against ServeEngine.
//
// The only workload that exercises scoring, the shard merge, the hot-user
// factor cache and fold-in. About 90 % of requests are top_k(10) reads for
// Zipf-popular users (so the LRU cache sees reuse) and about 10 % are
// observe() fold-ins, a few of them for new users. Writes take the
// exclusive lock that reads share, so a read speed-up that costs fold-ins
// shows here, and the reverse does too.
//
// One generator thread releases each request at its due time and worker
// threads take released requests in order. Latency runs from the due time,
// so a stall charges the wait it imposes on every later request.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "data/model_io.hpp"
#include "harness.hpp"
#include "metrics/ranking.hpp"
#include "prof/prof.hpp"
#include "serve/serve.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace e2e {
namespace {

using namespace cumf;
using Scope = Spans::Scope;

constexpr int kSetupReps = 5;
constexpr std::size_t kUsers = 20000;
constexpr std::size_t kItems = 8192;
constexpr std::size_t kF = 64;
constexpr std::size_t kRatingsPerUser = 32;
constexpr std::size_t kShards = 4;
constexpr std::size_t kCacheEntries = 2048;
constexpr std::size_t kTopK = 10;
constexpr double kUserZipf = 0.9;
constexpr double kObserveShare = 0.10;
constexpr double kNewUserShare = 0.05;  ///< of observes
/// Fixed offered rate, about a third of what two workers sustain, so a
/// host that slows for a while does not tip the queue into a backlog.
constexpr double kRate = 2000.0;
constexpr std::size_t kPassRequests = 4000;
/// Rates tried for serve_max_qps, each for kRungSeconds.
constexpr double kLadder[] = {2000, 4000, 6000, 8000, 11000, 15000, 20000};
constexpr double kRungSeconds = 0.5;
/// A rung's p99 needs ten top_k samples beyond it.
constexpr std::size_t kRungMinRequests = 1500;
constexpr double kP99LimitMs = 5.0;
constexpr std::size_t kCheckedUsers = 256;

enum class Kind : std::uint8_t { top_k, observe, observe_new_user };

struct Request {
  Kind kind;
  index_t user;  ///< unused for observe_new_user (resolved when served)
  index_t item;
  real_t rating;
};

struct Outcome {
  double due = 0.0;
  double sent = 0.0;   ///< released by the generator
  double start = 0.0;  ///< picked up by a worker
  double end = 0.0;
  bool failed = false;
  Rating applied{};  ///< the observe() actually issued
};

struct Setup {
  Matrix theta;  ///< copy of Θ for the offline reference
  RatingsCoo seen;
  std::unique_ptr<serve::ServeEngine> engine;
  std::vector<Request> requests;
};

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (real_t& v : m.data()) {
    v = static_cast<real_t>(rng.normal() * 0.3);
  }
  return m;
}

Setup prepare(std::uint64_t seed) {
  Setup s;
  Rng rng(seed);
  FactorModel model{random_matrix(kUsers, kF, rng),
                    random_matrix(kItems, kF, rng)};
  s.theta = model.theta;
  s.seen = RatingsCoo(static_cast<index_t>(kUsers), static_cast<index_t>(kItems));
  for (std::size_t u = 0; u < kUsers; ++u) {
    for (std::size_t j = 0; j < kRatingsPerUser; ++j) {
      s.seen.add(static_cast<index_t>(u),
                 static_cast<index_t>(rng.uniform_index(kItems)),
                 static_cast<real_t>(1 + rng.uniform_index(5)));
    }
  }
  s.seen.sort_and_dedup();
  serve::ServeOptions options;
  options.shards = kShards;
  options.cache_capacity = kCacheEntries;
  {
    const Scope span("ServeEngine");
    s.engine = std::make_unique<serve::ServeEngine>(
        std::move(model), CsrMatrix::from_coo(s.seen), options);
  }
  const ZipfSampler users(kUsers, kUserZipf);
  s.requests.reserve(kPassRequests);
  for (std::size_t i = 0; i < kPassRequests; ++i) {
    Request r{Kind::top_k, static_cast<index_t>(users(rng)), 0, 0};
    if (rng.uniform() < kObserveShare) {
      r.kind = rng.uniform() < kNewUserShare ? Kind::observe_new_user
                                             : Kind::observe;
      r.item = static_cast<index_t>(rng.uniform_index(kItems));
      r.rating = static_cast<real_t>(1 + rng.uniform_index(5));
    }
    s.requests.push_back(r);
  }
  return s;
}

void serve_one(serve::ServeEngine& engine, const Request& r, Outcome& o) {
  try {
    if (r.kind == Kind::top_k) {
      const Scope s("top_k");
      const auto items = engine.top_k(r.user, kTopK);
      o.failed = items.size() != kTopK;
    } else {
      const Scope s("observe");
      // A new user takes the next id; if a concurrent fold-in claimed it
      // first this becomes a second rating for that user, which is valid.
      const index_t user =
          r.kind == Kind::observe_new_user ? engine.users() : r.user;
      o.applied = Rating{user, r.item, r.rating};
      engine.observe(o.applied);
    }
  } catch (const std::exception&) {
    o.failed = true;
  }
}

/// Replays `count` requests (cycling through the schedule) at `rate`. The
/// generator publishes each request at its due time by advancing
/// `released`; workers claim the next released index. Both sides poll
/// instead of sleeping: on a virtual machine, waking an idle CPU takes
/// milliseconds at random, which would swamp the tail being measured.
std::vector<Outcome> replay(serve::ServeEngine& engine,
                            const std::vector<Request>& schedule,
                            std::size_t count, double rate, int workers) {
  std::vector<Outcome> out(count);
  std::atomic<std::size_t> released{0};
  std::atomic<std::size_t> claimed{0};
  const std::uint64_t parent = Spans::current();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      Spans::adopt(parent);
      for (;;) {
        std::size_t i = claimed.load(std::memory_order_relaxed);
        if (i >= count) {
          return;
        }
        if (i >= released.load(std::memory_order_acquire) ||
            !claimed.compare_exchange_weak(i, i + 1,
                                           std::memory_order_relaxed)) {
          continue;
        }
        Outcome& o = out[i];
        o.start = now_s();
        serve_one(engine, schedule[i % schedule.size()], o);
        o.end = now_s();
      }
    });
  }
  const double start = now_s() + 1e-3;
  for (std::size_t i = 0; i < count; ++i) {
    const double due = start + static_cast<double>(i) / rate;
    double t = now_s();
    while (t < due) {
      t = now_s();
    }
    out[i].due = due;
    out[i].sent = t;
    released.store(i + 1, std::memory_order_release);
  }
  for (std::thread& t : pool) {
    t.join();
  }
  return out;
}

double last_end(const std::vector<Outcome>& out) {
  double end = 0.0;
  for (const Outcome& o : out) {
    end = std::max(end, o.end);
  }
  return end;
}

struct Latencies {
  std::vector<double> top_k_ms;
  std::vector<double> observe_ms;
  std::vector<double> queue_ms;     ///< due → picked up by a worker
  std::vector<double> gen_late_ms;  ///< due → released by the generator
  std::vector<double> walls_s;      ///< first due → last completion
  std::uint64_t failed = 0;
};

/// Latency from the due time; a failed request counts as missing any limit,
/// so it enters with the whole replay's duration.
void collect(const std::vector<Outcome>& out,
             const std::vector<Request>& schedule, Latencies& lat) {
  const double span_ms = (out.back().end - out.front().due) * 1e3;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Outcome& o = out[i];
    const double ms = o.failed ? std::max(span_ms, kP99LimitMs * 2)
                               : (o.end - o.due) * 1e3;
    lat.failed += o.failed ? 1 : 0;
    lat.queue_ms.push_back((o.start - o.due) * 1e3);
    lat.gen_late_ms.push_back((o.sent - o.due) * 1e3);
    (schedule[i % schedule.size()].kind == Kind::top_k ? lat.top_k_ms
                                                       : lat.observe_ms)
        .push_back(ms);
  }
  lat.walls_s.push_back(last_end(out) - out.front().due);
}

std::string fmt(const char* f, double a, double b = 0, double c = 0) {
  char buf[200];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

}  // namespace

void run_serve_mixed(const RunConfig& config, Report& report) {
  const int workers = config.threads - 1;
  report.note("threads: 1 generator + " + std::to_string(workers) +
              " workers (open loop)");
  report.note(fmt("model %.0f users x %.0f items, f=%.0f", kUsers, kItems,
                  kF) +
              "; " + std::to_string(kShards) + " shards, cache " +
              std::to_string(kCacheEntries) + " users; Zipf users, " +
              "10% observe (5% of them new users)");

  Spans& spans = Spans::instance();
  spans.set_enabled(config.trace);
  const Scope run("run");  // parent of every span this run records
  std::vector<double> setup_s;
  Setup s;
  std::uint64_t setup_root = 0;
  {
    const Scope root("setup");
    setup_root = root.id();
    for (int rep = 0; rep < kSetupReps; ++rep) {
      s = Setup{};
      const double t0 = now_s();
      const Scope span("setup_rep");
      s = prepare(config.seed);
      setup_s.push_back(now_s() - t0);
    }
  }
  spans.set_enabled(false);
  serve::ServeEngine& engine = *s.engine;

  std::vector<Rating> applied;
  const auto remember = [&](const std::vector<Outcome>& out) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (s.requests[i % s.requests.size()].kind != Kind::top_k &&
          !out[i].failed) {
        applied.push_back(out[i].applied);
      }
    }
  };

  // Fixed-rate passes.
  const double fixed_budget = config.seconds * (config.trace ? 0.5 : 0.65);
  // Each replay's own p50/p90/p99 (about 3600 top_k samples, so 36 beyond
  // the p99); the run reports their medians, which one stalled replay does
  // not move. The p99 is printed but not gated: on a shared 4-CPU virtual
  // machine it followed the host's millisecond stalls and moved 2x between
  // runs of the same code, where the p90 moved about 10 %.
  Latencies fixed;
  std::vector<double> pass_p50_ms;
  std::vector<double> pass_p90_ms;
  std::vector<double> pass_p99_ms;
  const double t_fixed = now_s();
  do {
    const auto out = replay(engine, s.requests, kPassRequests, kRate, workers);
    Latencies pass;
    collect(out, s.requests, pass);
    const auto p99 = percentile(pass.top_k_ms, 0.99);
    if (!p99) {
      throw std::runtime_error("too few top_k samples for a p99");
    }
    pass_p50_ms.push_back(median(pass.top_k_ms));
    pass_p90_ms.push_back(*percentile(pass.top_k_ms, 0.9));
    pass_p99_ms.push_back(*p99);
    collect(out, s.requests, fixed);
    remember(out);
    report.attempted(out.size());
  } while (now_s() - t_fixed < fixed_budget);
  report.failed(fixed.failed);

  std::uint64_t timed_root = 0;
  Latencies traced;
  serve::CacheStats cache0{};
  if (config.trace) {
    cache0 = engine.cache_stats();
    prof::Tracer::instance().enable();
    spans.set_enabled(true);
    {
      const Scope root("timed");
      timed_root = root.id();
      const double t0 = now_s();
      do {
        const Scope pass("pass");
        const auto out =
            replay(engine, s.requests, kPassRequests, kRate, workers);
        collect(out, s.requests, traced);
        remember(out);
        report.attempted(out.size());
      } while (now_s() - t0 < config.seconds * 0.5);
    }
    spans.set_enabled(false);
    prof::Tracer::instance().disable();
    report.failed(traced.failed);
  }

  // Ladder: the highest offered rate whose top_k p99 meets the limit with
  // no request failed and no backlog left when the rung's last one is due.
  double max_qps = 0.0;
  if (!config.trace) {
    for (const double rate : kLadder) {
      const auto n = std::max(kRungMinRequests,
                              static_cast<std::size_t>(rate * kRungSeconds));
      const auto out = replay(engine, s.requests, n, rate, workers);
      Latencies rung;
      collect(out, s.requests, rung);
      remember(out);
      report.attempted(out.size());
      report.failed(rung.failed);
      const auto p99 = percentile(rung.top_k_ms, 0.99);
      const double backlog_ms = (last_end(out) - out.back().due) * 1e3;
      const bool ok = rung.failed == 0 && p99 && *p99 <= kP99LimitMs &&
                      backlog_ms <= kP99LimitMs;
      report.note(fmt("ladder %6.0f req/s: top_k p99 %.3f ms, backlog at end "
                      "%.3f ms",
                      rate, p99.value_or(-1.0), backlog_ms) +
                  (ok ? "  meets limit" : "  misses limit"));
      if (!ok) {
        break;
      }
      max_qps = rate;
    }
  }

  // Sampled top_k answers equal the offline brute force on the same state:
  // base factors plus every fold-in, seen set plus every observed item.
  {
    const index_t users = engine.users();
    Matrix x(users, kF);
    for (index_t u = 0; u < users; ++u) {
      const auto row = engine.user_factor(u);
      std::copy(row.begin(), row.end(), x.row(u).begin());
    }
    RatingsCoo seen(users, static_cast<index_t>(kItems));
    for (const Rating& r : s.seen.entries()) {
      seen.add(r.u, r.v, r.r);
    }
    for (const Rating& r : applied) {
      seen.add(r.u, r.v, r.r);
    }
    seen.sort_and_dedup();
    const CsrMatrix seen_csr = CsrMatrix::from_coo(seen);
    Rng rng(config.seed ^ 0x5eedu);
    std::size_t mismatches = 0;
    std::size_t checked = 0;
    for (std::size_t i = 0; i < kCheckedUsers; ++i) {
      // Half the sample from users that folded in, half uniform.
      const index_t u =
          i % 2 == 0 && !applied.empty()
              ? applied[rng.uniform_index(applied.size())].u
              : static_cast<index_t>(rng.uniform_index(users));
      ++checked;
      if (engine.top_k(u, kTopK) !=
          recommend_top_k(x, s.theta, seen_csr, u, kTopK)) {
        ++mismatches;
      }
    }
    report.check("top_k==recommend_top_k", mismatches == 0,
                 std::to_string(checked) + " sampled users, " +
                     std::to_string(mismatches) + " mismatched; " +
                     std::to_string(users - kUsers) + " new users folded in");
  }

  if (config.trace) {
    const auto setup = spans.aggregate(setup_root);
    const auto timed = spans.aggregate(timed_root);
    report.spans("set-ups", setup);
    report.spans("passes", timed);
    const auto per_call = [&](const char* name) {
      const auto it = timed.find(name);
      return it == timed.end() || it->second.count == 0
                 ? 0.0
                 : it->second.self_s / double(it->second.count);
    };
    report.metric("serve.topk_s", per_call("top_k"), "s",
                  "measured host, service time per call");
    report.metric("serve.observe_s", per_call("observe"), "s",
                  "measured host, service time per call");
    const serve::CacheStats c = engine.cache_stats();
    const double hits = double(c.hits - cache0.hits);
    const double lookups = hits + double(c.misses - cache0.misses);
    report.metric("serve.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
                  "ratio", "counted over traced passes");
    report.metric("serve.requests", double(kPassRequests), "count",
                  "counted per pass");
    report.metric("serve.errors",
                  double(traced.failed) / double(traced.walls_s.size()),
                  "count", "counted per pass");
    report.metric("serve.queue_ms", median(traced.queue_ms), "ms",
                  "measured host, median wait from due to service start");
    report.metric("serve.gen_late_ms", median(traced.gen_late_ms), "ms",
                  "measured host, median release delay after due");
    report.metric("prof.trace_dropped",
                  double(prof::Tracer::instance().total_dropped()), "count",
                  "counted, library tracer ring events dropped");
    report.metric("prof.trace_overhead",
                  median(traced.walls_s) / median(fixed.walls_s), "ratio",
                  "measured host, traced / untraced pass wall");
    return;
  }

  const auto fold_p99 = percentile(fixed.observe_ms, 0.99);
  const std::string per_replay =
      "measured host, top_k latency from due, median over " +
      std::to_string(pass_p50_ms.size()) + " replays (" +
      std::to_string(fixed.top_k_ms.size()) + " samples) of each replay's ";
  report.metric("setup_s", median(setup_s), "s",
                "measured host, median of " + std::to_string(kSetupReps) +
                    " set-ups");
  report.metric("run_s", median(fixed.walls_s), "s",
                "measured host, median of " +
                    std::to_string(fixed.walls_s.size()) +
                    " replays of " + std::to_string(kPassRequests) +
                    " requests at " + fmt("%.0f", kRate) + " req/s");
  report.metric("op_p50_ms", median(pass_p50_ms), "ms", per_replay + "p50");
  report.metric("op_p90_ms", median(pass_p90_ms), "ms", per_replay + "p90");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", "measured, getrusage");
  report.note(fmt("serve_p50_ms %.4g, serve_p99_ms %.4g [measured host, "
                  "top_k at %.0f req/s offered, median over replays]",
                  median(pass_p50_ms), median(pass_p99_ms), kRate));
  report.note(fmt("top_k p99 of all replays pooled %.4g ms, worst replay's "
                  "p99 %.4g ms",
                  percentile(fixed.top_k_ms, 0.99).value_or(0.0),
                  *std::max_element(pass_p99_ms.begin(), pass_p99_ms.end())));
  if (fold_p99) {
    report.note(fmt("foldin_p99_ms %.4g of %.0f observe() calls [measured "
                    "host, from due]",
                    *fold_p99, double(fixed.observe_ms.size())));
  } else {
    report.note("foldin_p99_ms: fewer than 10 observe() samples beyond p99");
  }
  report.note(fmt("serve_max_qps %.0f req/s [measured host, ladder, p99 "
                  "limit %.1f ms]",
                  max_qps, kP99LimitMs));
  report.note(fmt("serve.gen_late_ms median %.4g, max %.4g [measured host]",
                  median(fixed.gen_late_ms),
                  *std::max_element(fixed.gen_late_ms.begin(),
                                    fixed.gen_late_ms.end())));
}

}  // namespace e2e
