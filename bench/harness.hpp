// harness.hpp — shared benchmark harness for the figure-reproduction
// binaries and contended_locks. Reproduces the paper's §8 methodology at
// this machine's scale. Three env knobs, each a positive integer (any
// other value exits non-zero with a one-line message):
//   FLOCK_BENCH_MS   timed window per point    (default 150 ms)
//   FLOCK_LARGE_N    the paper's 100M-key axis (default 1M here)
//   FLOCK_SMALL_N    the paper's 100K-key axis (default 100K)
// contended_locks reads only FLOCK_BENCH_MS. The "all threads" point is
// the hardware concurrency and the oversubscribed point twice that. Each
// point is one run: repeat the process to see the spread.
//
// Output format (stdout): one CSV row per measurement:
//   figure,series,x,mops
// Progress notes go to stderr.
#pragma once

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "flock/flock.hpp"
#include "workload/driver.hpp"
#include "workload/set_adapter.hpp"
#include "workload/zipf.hpp"

namespace bench {

/// The positive integer in env var `name`, or `dflt` when it is unset.
/// Any other value ends the process with exit status 2.
inline long env_long(const char* name, long dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr) return dflt;
  char* end = nullptr;
  errno = 0;
  long n = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno != 0 || n <= 0 || n > INT_MAX) {
    std::fprintf(stderr, "%s=%s: expected a positive integer\n", name, v);
    std::exit(2);
  }
  return n;
}

struct env {
  int ms = static_cast<int>(env_long("FLOCK_BENCH_MS", 150));
  uint64_t large_n =
      static_cast<uint64_t>(env_long("FLOCK_LARGE_N", 1000000));
  uint64_t small_n =
      static_cast<uint64_t>(env_long("FLOCK_SMALL_N", 100000));
  int max_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  // Oversubscription point: 1.5x the paper's 216/144; here 2x cores.
  int oversub_threads = 2 * max_threads;
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

/// The workload of one measured point.
struct run {
  uint64_t range;         // keys drawn from [1, range], half prefilled
  int threads;
  double update_percent;
  double alpha;           // zipf skew
};

/// One CSV row: `x` is the value of the figure's varied axis.
struct point {
  double x;
  run r;
};

/// The points of one axis: `base` with `field` set to each of `xs`.
template <class T>
std::vector<point> along(run base, T run::*field, const std::vector<T>& xs) {
  std::vector<point> v;
  for (T x : xs) {
    base.*field = x;
    v.push_back({static_cast<double>(x), base});
  }
  return v;
}

/// Measure one series over `points`, one CSV row each. The structure is
/// rebuilt and prefilled only when a point's range changes, so a thread,
/// update or alpha axis keeps one prefill at ~half occupancy (the paper's
/// steady state) and a size axis gets a fresh structure per size. The
/// zipf table is rebuilt only when the range or alpha changes.
template <class Factory>
void sweep(const char* figure, const std::string& series, Factory&& make,
           bool blocking, const std::vector<point>& points) {
  std::fprintf(stderr, "  %s\n", series.c_str());
  flock::mode_guard mode(blocking);
  decltype(make()) set;
  std::optional<flock_workload::zipf_distribution> dist;
  for (const point& p : points) {
    if (set == nullptr || dist->range() != p.r.range) {
      flock::epoch_manager::instance().flush();
      set = nullptr;
      set = make();
      flock_workload::prefill_half(*set, p.r.range);
    }
    if (!dist || dist->range() != p.r.range || dist->alpha() != p.r.alpha)
      dist.emplace(p.r.range, p.r.alpha);
    flock_workload::run_config rc;
    rc.threads = p.r.threads;
    rc.update_percent = p.r.update_percent;
    rc.millis = cfg().ms;
    emit(figure, series, p.x, flock_workload::run_mixed(*set, *dist, rc).mops);
  }
  flock::epoch_manager::instance().flush();
}

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
