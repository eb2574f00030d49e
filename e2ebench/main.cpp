// cumf_e2e — the end-to-end benchmark of the cuMF-ALS system.
//
//   cumf_e2e --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// Runs one workload (train_incore, train_ooc, serve_mixed, model_sweep)
// through the library's public entry points, checks its outputs, and prints
// one line per number, naming its source, then a JSON result line. With
// --trace 0 the result holds the end-to-end metrics of an untraced run;
// with --trace 1 it holds the per-layer metrics of a traced run. Exits
// non-zero when a correctness check fails.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.hpp"
#include "simd/vec.hpp"

#ifndef CUMF_E2E_BUILD_TYPE
#define CUMF_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace e2e;

struct Workload {
  const char* name;
  void (*run)(const RunConfig&, Report&);
  int (*threads)(int nproc);  ///< threads the workload starts, all told
};

int engine_threads(int nproc) { return nproc < 4 ? nproc : 4; }
int one_thread(int) { return 1; }
// A generator and two workers, leaving a CPU free so that a preempted
// worker resumes at once instead of holding the engine's lock meanwhile.
int serve_threads(int nproc) { return nproc < 3 ? 2 : 3; }

constexpr Workload kWorkloads[] = {
    {"train_incore", &run_train_incore, &engine_threads},
    {"train_ooc", &run_train_ooc, &engine_threads},
    {"serve_mixed", &run_serve_mixed, &serve_threads},
    {"model_sweep", &run_model_sweep, &one_thread},
};

int cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return 1;
  }
  return CPU_COUNT(&set);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--workdir DIR\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && config.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      config.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace ||
      config.workdir.empty()) {
    return usage(argv[0]);
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (config.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }
  const int nproc = cpus_available();
  config.threads = workload->threads(nproc);
  const int threads = config.threads;
  std::printf("e2ebench workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("  nproc %d, workload threads %d, simd backend %s (default "
              "path %s), build %s\n",
              nproc, threads, cumf::simd::backend_name(),
              cumf::simd::to_string(cumf::simd::kDefaultPath),
              CUMF_E2E_BUILD_TYPE);
  if (threads > nproc) {
    std::fprintf(stderr, "e2ebench: %s needs %d threads but only %d CPUs\n",
                 workload->name, threads, nproc);
    return 2;
  }

  int code = 1;
  try {
    std::filesystem::create_directories(config.workdir);
    Report report(config);
    workload->run(config, report);
    code = report.finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n", workload->name,
                 e.what());
    code = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(config.workdir, ec);
  return code;
}
