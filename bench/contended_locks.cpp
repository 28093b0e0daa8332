// contended_locks — multi-thread contention bench for the lock paths
// themselves. The figure benches measure whole data structures;
// this one isolates the lock acquire/release cycle under the three
// contention shapes the paper's §8 argues about:
//
//   hot     N threads hammer ONE lock (the worst case: every acquisition
//           is contended once N > 1).
//   zipf    N threads pick from an array of locks with zipf(0.99) skew —
//           a few hot locks plus a long cold tail, the shape real
//           structures (hashtable sentinels, tree roots) produce.
//   oversub N >> cores on one hot lock: the paper's headline scenario,
//           where a blocking lock holder can be descheduled mid-critical-
//           section but lock-free waiters can finish its work.
//
// Sweeps threads (1/2/4/8; 8x cores for oversub) x {blocking, lock-free}
// x {try, strict} over 64 zipf locks or one hot lock, and prints one
// harness CSV row per point (figure "contended", series e.g.
// hot_try_lockfree_t4, x = threads, mops = successful acquisitions),
// plus every stats counter's per-point delta on stderr so the
// help-throttle's effect is visible next to the throughput it buys.
// FLOCK_BENCH_MS sets the timed window per point.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "flock/flock.hpp"
#include "harness.hpp"
#include "workload/zipf.hpp"

namespace {

constexpr int kZipfLocks = 64;
constexpr int kOversubPerCore = 8;

// One lock + its counter, padded so neighbouring array entries don't
// false-share.
struct alignas(2 * flock::kCacheLine) lock_slot {
  flock::lock lk;
  flock::mutable_<uint64_t>* ctr = nullptr;
};

struct point_result {
  double mops = 0;        // successful acquisitions per second (counter
                          // delta; for strict this equals calls)
  double call_mops = 0;   // completed lock calls per second (try mode:
                          // includes failed attempts — reported to stderr)
  uint64_t acquired = 0;  // successful acquisitions (counter delta)
};

/// Run `threads` workers for the timed window; each iteration picks a slot
/// via `pick(rng)` and try/strict-locks it around a counter increment.
template <bool Strict, class Pick>
point_result run_point(std::vector<lock_slot>& slots, int threads,
                       Pick&& pick) {
  std::atomic<bool> stop{false};
  std::atomic<bool> go{false};
  std::atomic<uint64_t> calls{0};
  uint64_t before = 0;
  for (auto& s : slots) before += s.ctr->read_raw();

  std::vector<std::thread> ws;
  ws.reserve(threads);
  for (int t = 0; t < threads; t++) {
    ws.emplace_back([&, t] {
      flock_workload::rng64 rng(flock_workload::splitmix64(t + 1));
      while (!go.load(std::memory_order_acquire)) {
      }
      uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        lock_slot& s = slots[pick(rng)];
        auto* ctr = s.ctr;
        flock::with_epoch([&] {
          return flock::acquire<Strict>(s.lk, [ctr] {
            ctr->store(ctr->load() + 1);
            return true;
          });
        });
        n++;
      }
      calls.fetch_add(n, std::memory_order_relaxed);
    });
  }
  auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(bench::cfg().ms));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : ws) w.join();
  auto t1 = std::chrono::steady_clock::now();

  uint64_t after = 0;
  for (auto& s : slots) after += s.ctr->read_raw();
  point_result r;
  double secs = std::chrono::duration<double>(t1 - t0).count();
  r.acquired = after - before;
  r.mops = static_cast<double>(r.acquired) / secs / 1e6;
  r.call_mops = static_cast<double>(calls.load()) / secs / 1e6;
  return r;
}

std::vector<lock_slot> make_slots(int n) {
  std::vector<lock_slot> slots(n);
  for (auto& s : slots) {
    s.ctr = flock::pool_new<flock::mutable_<uint64_t>>();
    s.ctr->init(0);
  }
  return slots;
}

void free_slots(std::vector<lock_slot>& slots) {
  for (auto& s : slots) flock::pool_delete(s.ctr);
  slots.clear();
  flock::epoch_manager::instance().flush();
}

/// Every stats counter that moved between `a` and `b`, on stderr.
void print_stat_deltas(const flock::stats_snapshot& a,
                       const flock::stats_snapshot& b) {
#define FLOCK_PRINT_DELTA(name)                     \
  if (b.name != a.name)                             \
    std::fprintf(stderr, "  " #name " %llu",        \
                 static_cast<unsigned long long>(b.name - a.name));
  FLOCK_STATS_COUNTERS(FLOCK_PRINT_DELTA)
#undef FLOCK_PRINT_DELTA
  std::fprintf(stderr, "\n");
}

template <bool Strict>
void sweep(const char* scenario, int nlocks,
           const std::vector<int>& thread_points) {
  for (bool blocking : {true, false}) {
    flock::set_blocking(blocking);
    for (int t : thread_points) {
      auto slots = make_slots(nlocks);
      // zipf(0.99) over the array; a 1-entry array degenerates to "hot".
      flock_workload::zipf_distribution dist(
          static_cast<uint64_t>(nlocks), nlocks > 1 ? 0.99 : 0.0);
      auto before = flock::stats();
      point_result r = run_point<Strict>(slots, t, [&](auto& rng) {
        return nlocks > 1 ? dist.sample(rng) - 1 : 0;
      });
      auto after = flock::stats();
      std::string series = std::string(scenario) + "_" +
                           (Strict ? "strict" : "try") + "_" +
                           (blocking ? "blocking" : "lockfree") + "_t" +
                           std::to_string(t);
      bench::emit("contended", series, t, r.mops);
      std::fprintf(stderr, "  %-28s %8.3f Mops acquired (%.3f calls)",
                   series.c_str(), r.mops, r.call_mops);
      print_stat_deltas(before, after);
      free_slots(slots);
    }
  }
  flock::set_blocking(false);
}

}  // namespace

int main() {
  const std::vector<int> threads{1, 2, 4, 8};
  int cores = static_cast<int>(std::thread::hardware_concurrency());
  if (cores < 1) cores = 1;
  const std::vector<int> oversub{kOversubPerCore * cores};

  std::fprintf(stderr, "contended_locks: window=%dms locks=%d cores=%d\n",
               bench::cfg().ms, kZipfLocks, cores);
  std::printf("figure,series,threads,mops\n");

  std::fprintf(stderr, "single hot lock, try:\n");
  sweep<false>("hot", 1, threads);
  std::fprintf(stderr, "single hot lock, strict:\n");
  sweep<true>("hot", 1, threads);
  std::fprintf(stderr, "zipf lock array, try:\n");
  sweep<false>("zipf", kZipfLocks, threads);
  std::fprintf(stderr, "zipf lock array, strict:\n");
  sweep<true>("zipf", kZipfLocks, threads);
  std::fprintf(stderr, "oversubscription (%dx %d cores), strict:\n",
               kOversubPerCore, cores);
  sweep<true>("oversub", 1, oversub);
  std::fprintf(stderr, "oversubscription, try:\n");
  sweep<false>("oversub", 1, oversub);
  return 0;
}
