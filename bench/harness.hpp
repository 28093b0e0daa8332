// harness.hpp — shared benchmark harness for the figure-reproduction
// binaries. Reproduces the paper's §8 methodology at this machine's
// scale; all knobs are env-overridable:
//   FLOCK_BENCH_MS      timed window per point   (default 150 ms)
//   FLOCK_BENCH_REPS    repetitions averaged     (default 1; paper used 3)
//   FLOCK_MAX_THREADS   "all threads" point      (default hw concurrency)
//   FLOCK_LARGE_N       the paper's 100M-key axis (default 1M here)
//   FLOCK_SMALL_N       the paper's 100K-key axis (default 100K)
//
// Output format (stdout): one CSV row per measurement:
//   figure,series,x,mops
// Progress notes go to stderr.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "flock/flock.hpp"
#include "workload/driver.hpp"
#include "workload/set_adapter.hpp"
#include "workload/zipf.hpp"

namespace bench {

inline long env_long(const char* name, long dflt) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atol(v) : dflt;
}

struct env {
  int ms = static_cast<int>(env_long("FLOCK_BENCH_MS", 150));
  int reps = static_cast<int>(env_long("FLOCK_BENCH_REPS", 1));
  int max_threads = static_cast<int>(env_long(
      "FLOCK_MAX_THREADS",
      static_cast<long>(std::thread::hardware_concurrency())));
  uint64_t large_n =
      static_cast<uint64_t>(env_long("FLOCK_LARGE_N", 1000000));
  uint64_t small_n =
      static_cast<uint64_t>(env_long("FLOCK_SMALL_N", 100000));
  // Oversubscription point: 1.5x the paper's 216/144; here 2x cores.
  int oversub_threads = static_cast<int>(
      env_long("FLOCK_OVERSUB_THREADS",
               2 * static_cast<long>(std::thread::hardware_concurrency())));
};

inline env& cfg() {
  static env e;
  return e;
}

inline void emit(const char* figure, const std::string& series, double x,
                 double mops) {
  std::printf("%s,%s,%g,%.3f\n", figure, series.c_str(), x, mops);
  std::fflush(stdout);
}

inline void note(const char* fmt, const std::string& s) {
  std::fprintf(stderr, fmt, s.c_str());
  std::fflush(stderr);
}

/// One measured point: construct (factory), prefill, run, average reps.
template <class Factory>
double measure(Factory&& make, bool blocking,
               const flock_workload::zipf_distribution& dist,
               uint64_t range, int threads, double update_percent) {
  flock::mode_guard mode(blocking);
  auto set = make();
  flock_workload::prefill_half(*set, range);
  double total = 0;
  flock_workload::run_config rc;
  rc.threads = threads;
  rc.update_percent = update_percent;
  rc.millis = cfg().ms;
  for (int r = 0; r < cfg().reps; r++) {
    auto res = flock_workload::run_mixed(*set, dist, rc);
    total += res.mops;
  }
  flock::epoch_manager::instance().flush();
  return total / cfg().reps;
}

/// Thread-axis sweep with one prefill per series (the structure stays at
/// ~half occupancy across balanced runs, matching the paper's steady
/// state).
template <class Factory>
void sweep_threads(const char* figure, const std::string& series,
                   Factory&& make, bool blocking, uint64_t range,
                   double update_percent, double alpha,
                   const std::vector<int>& threads) {
  note("  %s\n", series + " (thread sweep)");
  flock_workload::zipf_distribution dist(range, alpha);
  flock::mode_guard mode(blocking);
  auto set = make();
  flock_workload::prefill_half(*set, range);
  for (int t : threads) {
    flock_workload::run_config rc;
    rc.threads = t;
    rc.update_percent = update_percent;
    rc.millis = cfg().ms;
    double total = 0;
    for (int r = 0; r < cfg().reps; r++)
      total += flock_workload::run_mixed(*set, dist, rc).mops;
    emit(figure, series, t, total / cfg().reps);
  }
  flock::epoch_manager::instance().flush();
}

/// Update-percent axis.
template <class Factory>
void sweep_updates(const char* figure, const std::string& series,
                   Factory&& make, bool blocking, uint64_t range,
                   int threads, double alpha,
                   const std::vector<double>& updates) {
  note("  %s\n", series + " (update sweep)");
  flock_workload::zipf_distribution dist(range, alpha);
  flock::mode_guard mode(blocking);
  auto set = make();
  flock_workload::prefill_half(*set, range);
  for (double u : updates) {
    flock_workload::run_config rc;
    rc.threads = threads;
    rc.update_percent = u;
    rc.millis = cfg().ms;
    double total = 0;
    for (int r = 0; r < cfg().reps; r++)
      total += flock_workload::run_mixed(*set, dist, rc).mops;
    emit(figure, series, u, total / cfg().reps);
  }
  flock::epoch_manager::instance().flush();
}

/// Zipf-alpha axis (distribution tables rebuilt per alpha).
template <class Factory>
void sweep_alpha(const char* figure, const std::string& series,
                 Factory&& make, bool blocking, uint64_t range, int threads,
                 double update_percent, const std::vector<double>& alphas) {
  note("  %s\n", series + " (zipf sweep)");
  flock::mode_guard mode(blocking);
  auto set = make();
  flock_workload::prefill_half(*set, range);
  for (double a : alphas) {
    flock_workload::zipf_distribution dist(range, a);
    flock_workload::run_config rc;
    rc.threads = threads;
    rc.update_percent = update_percent;
    rc.millis = cfg().ms;
    double total = 0;
    for (int r = 0; r < cfg().reps; r++)
      total += flock_workload::run_mixed(*set, dist, rc).mops;
    emit(figure, series, a, total / cfg().reps);
  }
  flock::epoch_manager::instance().flush();
}

/// Structure-size axis (fresh structure per size).
template <class Factory>
void sweep_sizes(const char* figure, const std::string& series,
                 Factory&& make, bool blocking, int threads,
                 double update_percent, double alpha,
                 const std::vector<uint64_t>& sizes) {
  note("  %s\n", series + " (size sweep)");
  for (uint64_t n : sizes) {
    flock_workload::zipf_distribution dist(n, alpha);
    double m = measure(make, blocking, dist, n, threads, update_percent);
    emit(figure, series, static_cast<double>(n), m);
  }
}

// --- machine-readable output (BENCH_micro.json) ----------------------------
//
// Benchmarks that want their numbers tracked across PRs append
// series -> mops pairs here and call write_json() at exit; the driver
// compares the file against the previous PR's copy. Path overridable with
// FLOCK_BENCH_JSON.
class json_reporter {
 public:
  void add(const std::string& series, double mops) {
    series_.emplace_back(series, mops);
  }

  void write(const char* default_path = "BENCH_micro.json") {
    const char* path = std::getenv("FLOCK_BENCH_JSON");
    if (path == nullptr) path = default_path;
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "json_reporter: cannot open %s\n", path);
      return;
    }
    std::fprintf(f, "{\n  \"series\": {\n");
    for (std::size_t i = 0; i < series_.size(); i++)
      std::fprintf(f, "    \"%s\": %.3f%s\n", series_[i].first.c_str(),
                   series_[i].second, i + 1 < series_.size() ? "," : "");
    std::fprintf(f, "  },\n  \"stats\": {");
    const flock::stats_snapshot s = flock::stats();
    const char* sep = "\n";
#define FLOCK_DUMP_COUNTER(name)                        \
  std::fprintf(f, "%s    \"" #name "\": %llu", sep,   \
               static_cast<unsigned long long>(s.name)); \
  sep = ",\n";
    FLOCK_STATS_COUNTERS(FLOCK_DUMP_COUNTER)
#undef FLOCK_DUMP_COUNTER
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", path);
  }

 private:
  std::vector<std::pair<std::string, double>> series_;
};

/// Default thread axis: powers up to max, plus oversubscribed points.
inline std::vector<int> thread_axis() {
  std::vector<int> v;
  for (int t = 1; t < cfg().max_threads; t *= 2) v.push_back(t);
  v.push_back(cfg().max_threads);
  v.push_back(3 * cfg().max_threads / 2);
  v.push_back(2 * cfg().max_threads);
  v.push_back(4 * cfg().max_threads);
  return v;
}

}  // namespace bench
