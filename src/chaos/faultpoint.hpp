// faultpoint.hpp — named, compile-time-erasable fault points for
// deterministic chaos testing of the flock runtime.
//
// The paper's core robustness claim (§1, §3) is that a stalled or dead
// lock holder cannot block the system: helpers finish its critical
// section. Validating that with wall-clock stalls is flaky on small
// machines and blind to the narrow protocol windows (merge publication,
// root swing + epoch retire, slab refill). This header gives every such
// window a *name* — `FLOCK_FAULTPOINT("ht.merge.pre_publish")` — and lets
// a test arm a deterministic fault at it:
//
//   stall       bounded spin at the point (replaces wall-clock sleeps);
//   kill        the thread parks at the point until release_killed() —
//               the paper's dead-holder scenario: the operation is
//               abandoned mid-protocol for the rest of the test, then the
//               thread resumes harmlessly at teardown (idempotence makes
//               the resumed replay a no-op);
//   alloc_fail  the allocation guarded by the point reports failure
//               (only honored at FLOCK_FAULTPOINT_ALLOC_FAIL sites).
//
// Erasure: unless FLOCK_CHAOS is defined at compile time, the macros
// expand to nothing (`FLOCK_FAULTPOINT_ALLOC_FAIL` to `false`), so
// release/bench builds carry zero instructions per point. The registry,
// counters, and plan API below always compile (they are cheap inert
// atomics), so stats aggregation and reporters link the same either way.
// Test targets define FLOCK_CHAOS (see CMakeLists.txt); with no plan
// armed a compiled-in point costs one relaxed atomic load.
//
// Determinism: hit arrivals are only counted while a point has a plan
// armed, and each plan entry counts the arrivals that match its own
// filter (any-thread, or victim-only — a thread marked by victim_scope).
// An entry fires on its nth..nth+count-1 matching arrivals. Arm a
// victim-only kill with nth=1 and the *first* protocol-window crossing of
// the designated thread faults, every run, regardless of scheduling.
// Seeded pseudo-random plans (`arm_seeded`, seed from FLOCK_CHAOS_SEED or
// set at runtime like set_backoff) arm stalls across the registered
// points plus alloc-fail at the resize trigger — the two fault classes
// that are safe to inject blindly. (Blind kill/alloc-fail at arbitrary
// points is deliberately not part of seeded plans: a killed thread parks
// until the test releases it, and the runtime's defined alloc-failure
// surface is the resize trigger and the pool/array null contract — see
// allocator.hpp.)
//
// This header is dependency-free with respect to the flock runtime (the
// runtime includes it, not vice versa), so it can be threaded through
// lock.hpp, epoch.hpp, allocator.hpp, hashtable.hpp, and sharded_map.hpp
// without include cycles.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

namespace flock_chaos {

enum class fault : uint8_t { stall, kill, alloc_fail };

/// Canonical names of the fault points threaded through the runtime.
/// Tests may additionally register ad-hoc points (any string literal
/// passed to FLOCK_FAULTPOINT registers itself on first hit).
inline constexpr const char* kKnownPoints[] = {
    "lock.install.post",        // descriptor installed, thunk not yet run
    "lock.handoff.pre_unlock",  // done published, unlock CAS pending
    "lock.help.pre_run",        // helper validated, about to run the thunk
    "ht.grow.pre_publish",      // split copies live, forwarded flag pending
    "ht.merge.pre_publish",     // merge built, single-store publish pending
    "ht.root.pre_swing",        // resize drained, root CAS pending
    "ht.root.pre_retire",       // root swung, table epoch-retire pending
    "ht.resize.alloc",          // successor-table allocation (alloc-fail)
    "ht.move.pre_splice",       // inside the cross-table move's inner CS
    "epoch.retire",             // retire push onto the open batch
    "epoch.seal",               // batch seal + reclamation decision
    "alloc.refill",             // slab refill (alloc-fail capable)
    "alloc.array",              // array_new header allocation (alloc-fail)
    "store.move.pre_nest",      // cross-shard move, before the lock nest
};
inline constexpr std::size_t kKnownPointCount =
    sizeof(kKnownPoints) / sizeof(kKnownPoints[0]);

namespace detail {

inline void chaos_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// Injection counters (monotonic, like the flock stat counters) and the
// kill-park rendezvous. Always compiled so reporters can read them
// unconditionally; zero forever in builds without FLOCK_CHAOS.
inline std::atomic<uint64_t> g_stalls{0};
inline std::atomic<uint64_t> g_kills{0};
inline std::atomic<uint64_t> g_alloc_fails{0};
inline std::atomic<uint64_t> g_parked{0};
inline std::atomic<bool> g_release_killed{false};

// Victim marking: plans can restrict a fault to threads inside a
// victim_scope, which is what makes kill tests deterministic (the
// designated holder faults on ITS first crossing, not whichever thread
// arrives first).
inline thread_local bool tl_victim = false;

// Cooperative-scheduler hook (see scheduler.hpp). A thread running under
// the schedule explorer installs a hook; every fault point (and every
// FLOCK_SCHEDPOINT) then yields to the scheduler *before* the fault
// machinery runs, so "which thread runs next" composes with "does a
// fault fire here". Thread-local and a plain function pointer, so the
// runtime keeps zero link-time dependency on the scheduler and threads
// outside the explorer pay one TLS load only when FLOCK_CHAOS is on.
struct sched_hook {
  void (*fn)(sched_hook* self, const char* point);
};
inline thread_local sched_hook* tl_sched_hook = nullptr;

inline void sched_point(const char* name) {
  sched_hook* h = tl_sched_hook;
  if (h != nullptr) [[unlikely]]
    h->fn(h, name);
}

struct plan_entry {
  fault kind = fault::stall;
  bool victim_only = false;
  uint64_t nth = 1;           // fire on matching arrivals [nth, nth+count)
  uint64_t count = 1;
  uint32_t stall_spins = 0;
  std::atomic<uint64_t> seen{0};  // matching arrivals since armed
};

struct point_state {
  static constexpr int kMaxEntries = 6;
  char name[48] = {};
  std::atomic<uint32_t> armed{0};  // active entries; 0 == fast path
  std::atomic<uint64_t> hits{0};   // arrivals while armed (diagnostics)
  plan_entry entries[kMaxEntries];
};

inline constexpr std::size_t kMaxPoints = 64;
inline point_state g_points[kMaxPoints]{};
inline std::atomic<std::size_t> g_npoints{0};
inline std::mutex g_registry_mu;

/// Intern a point by name (cold: once per FLOCK_FAULTPOINT site thanks to
/// the function-local static in the macro, plus arm/reset calls).
inline point_state* registry_get(const char* name) {
  std::lock_guard<std::mutex> g(g_registry_mu);
  std::size_t n = g_npoints.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; i++)
    if (std::strcmp(g_points[i].name, name) == 0) return &g_points[i];
  if (n >= kMaxPoints) std::abort();  // registry overflow: a test bug
  std::strncpy(g_points[n].name, name, sizeof(g_points[n].name) - 1);
  g_npoints.store(n + 1, std::memory_order_release);
  return &g_points[n];
}

/// Apply one fired fault. Returns true when an allocation should fail.
inline bool apply(const plan_entry& e) {
  switch (e.kind) {
    case fault::stall: {
      g_stalls.fetch_add(1, std::memory_order_relaxed);
      for (uint32_t i = 0; i < e.stall_spins; i++) chaos_pause();
      return false;
    }
    case fault::kill: {
      g_kills.fetch_add(1, std::memory_order_relaxed);
      g_parked.fetch_add(1, std::memory_order_acq_rel);
      while (!g_release_killed.load(std::memory_order_acquire))
        std::this_thread::yield();
      g_parked.fetch_sub(1, std::memory_order_acq_rel);
      return false;
    }
    case fault::alloc_fail: {
      g_alloc_fails.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

/// Slow path behind the macro's armed check. `alloc_site` selects whether
/// alloc_fail entries are honored (and whether they tick their arrival
/// counters) at this site.
inline bool on_hit(point_state* p, bool alloc_site) {
  p->hits.fetch_add(1, std::memory_order_relaxed);
  bool fail_alloc = false;
  uint32_t n = p->armed.load(std::memory_order_acquire);
  if (n > static_cast<uint32_t>(point_state::kMaxEntries))
    n = point_state::kMaxEntries;
  for (uint32_t i = 0; i < n; i++) {
    plan_entry& e = p->entries[i];
    if (e.kind == fault::alloc_fail && !alloc_site) continue;
    if (e.victim_only && !tl_victim) continue;
    uint64_t s = e.seen.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (s >= e.nth && s < e.nth + e.count)
      if (apply(e)) fail_alloc = true;
  }
  return fail_alloc;
}

}  // namespace detail

// --- plan control -----------------------------------------------------------

struct arm_options {
  uint64_t nth = 1;            // 1-based matching-arrival index to fire on
  uint64_t count = 1;          // consecutive arrivals that fire
  uint32_t stall_spins = 20000;  // stall budget (bounded, deterministic)
  bool victim_only = false;    // fire only for threads in a victim_scope
};

/// Arm one fault at a named point. Returns false if the point's entry
/// table is full. Arm/reset are test-orchestration calls: arm before the
/// threads under test start arriving at the point.
inline bool arm(const char* point, fault kind, arm_options o = {}) {
  detail::point_state* p = detail::registry_get(point);
  std::lock_guard<std::mutex> g(detail::g_registry_mu);
  uint32_t n = p->armed.load(std::memory_order_relaxed);
  if (n >= detail::point_state::kMaxEntries) return false;
  detail::plan_entry& e = p->entries[n];
  e.kind = kind;
  e.victim_only = o.victim_only;
  e.nth = o.nth == 0 ? 1 : o.nth;
  e.count = o.count == 0 ? 1 : o.count;
  e.stall_spins = o.stall_spins;
  e.seen.store(0, std::memory_order_relaxed);
  p->armed.store(n + 1, std::memory_order_release);
  return true;
}

/// Threads currently parked by a kill fault.
inline uint64_t parked() {
  return detail::g_parked.load(std::memory_order_acquire);
}

/// Unpark every killed thread (idempotent). Call before joining them;
/// their abandoned operations then complete as harmless idempotent
/// replays of work helpers already finished.
inline void release_killed() {
  detail::g_release_killed.store(true, std::memory_order_release);
}

/// Disarm every point and zero the per-plan arrival counters. Requires
/// all killed threads released and joined (parked() == 0). Injection
/// totals (stalls/kills/alloc_fails) stay monotonic, like flock::stats().
inline void reset() {
  std::lock_guard<std::mutex> g(detail::g_registry_mu);
  std::size_t n = detail::g_npoints.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; i++) {
    detail::g_points[i].armed.store(0, std::memory_order_release);
    detail::g_points[i].hits.store(0, std::memory_order_relaxed);
    for (auto& e : detail::g_points[i].entries)
      e.seen.store(0, std::memory_order_relaxed);
  }
  detail::g_release_killed.store(false, std::memory_order_release);
}

/// Arrivals observed at a point while armed (0 for unknown names is not
/// distinguished from never-hit; tests arm first, then drive traffic).
inline uint64_t hits(const char* point) {
  return detail::registry_get(point)->hits.load(std::memory_order_relaxed);
}

inline uint64_t stalls_injected() {
  return detail::g_stalls.load(std::memory_order_relaxed);
}
inline uint64_t kills_injected() {
  return detail::g_kills.load(std::memory_order_relaxed);
}
inline uint64_t alloc_fails_injected() {
  return detail::g_alloc_fails.load(std::memory_order_relaxed);
}

/// RAII victim marker for the calling thread (see header comment).
/// Nests: an inner scope restores the enclosing scope's marking on exit
/// rather than clearing it, so helpers that re-enter instrumented code
/// from within a victim's thunk can scope themselves independently.
class victim_scope {
 public:
  victim_scope() : prev_(detail::tl_victim) { detail::tl_victim = true; }
  ~victim_scope() { detail::tl_victim = prev_; }
  victim_scope(const victim_scope&) = delete;
  victim_scope& operator=(const victim_scope&) = delete;

 private:
  bool prev_;
};

// --- seeded plans -----------------------------------------------------------

/// FLOCK_CHAOS_SEED from the environment; 0 (no plan) when unset.
inline uint64_t seed_from_env() {
  const char* s = std::getenv("FLOCK_CHAOS_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 0;
}

/// Deterministic pseudo-random plan from a seed: bounded stalls scattered
/// across the canonical points (random nth/count/spins), plus — on
/// odd-ish seeds — alloc-fail bursts at the resize trigger. Safe to run
/// under any workload: stalls are bounded and the resize trigger is the
/// one allocation site the runtime survives failing (see hashtable.hpp).
/// Runtime-settable per test, like set_backoff: reset() then
/// arm_seeded(next_seed).
inline void arm_seeded(uint64_t seed, int entries = 6) {
  uint64_t x = seed ? seed : 0x9e3779b97f4a7c15ULL;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < entries; i++) {
    const char* point = kKnownPoints[next() % kKnownPointCount];
    arm_options o;
    o.nth = 1 + next() % 64;
    o.count = 1 + next() % 4;
    o.stall_spins = 500 + static_cast<uint32_t>(next() % 20000);
    arm(point, fault::stall, o);
  }
  if (seed & 1) {
    arm_options o;
    o.nth = 1 + next() % 4;
    o.count = 1 + next() % 8;
    arm("ht.resize.alloc", fault::alloc_fail, o);
  }
}

}  // namespace flock_chaos

// --- the instrumentation macros --------------------------------------------

#ifdef FLOCK_CHAOS
/// Mark a protocol window. Disarmed cost: one relaxed load + one TLS
/// load + predicted branches. `name` must be a string literal (interned
/// once per site via the function-local static). Under the schedule
/// explorer the yield to the scheduler happens FIRST, so a fault plan
/// composed with a schedule fires after the interleaving decision —
/// "thread dies at step k of schedule S" is one enumerable event.
#define FLOCK_FAULTPOINT(name)                                       \
  do {                                                               \
    ::flock_chaos::detail::sched_point(name);                        \
    static ::flock_chaos::detail::point_state* fp_pt_ =              \
        ::flock_chaos::detail::registry_get(name);                   \
    if (fp_pt_->armed.load(std::memory_order_relaxed) != 0)          \
        [[unlikely]]                                                 \
      ::flock_chaos::detail::on_hit(fp_pt_, /*alloc_site=*/false);   \
  } while (0)

/// Mark an allocation site: evaluates to true when the allocation at
/// this point must report failure (stall/kill entries armed here also
/// fire, before the failure decision is returned).
#define FLOCK_FAULTPOINT_ALLOC_FAIL(name)                            \
  ([]() -> bool {                                                    \
    ::flock_chaos::detail::sched_point(name);                        \
    static ::flock_chaos::detail::point_state* fp_pt_ =              \
        ::flock_chaos::detail::registry_get(name);                   \
    if (fp_pt_->armed.load(std::memory_order_relaxed) == 0)          \
        [[likely]]                                                   \
      return false;                                                  \
    return ::flock_chaos::detail::on_hit(fp_pt_, /*alloc_site=*/true); \
  }())

/// Mark a scheduler-only yield point: a window that the schedule
/// explorer must be able to preempt at, but where no fault plan ever
/// fires (descriptor tag revalidation, write_once publication, ...).
/// No registry entry, no counters — just the thread-local hook check.
#define FLOCK_SCHEDPOINT(name) ::flock_chaos::detail::sched_point(name)
#else
#define FLOCK_FAULTPOINT(name) \
  do {                         \
  } while (0)
#define FLOCK_FAULTPOINT_ALLOC_FAIL(name) false
#define FLOCK_SCHEDPOINT(name) \
  do {                         \
  } while (0)
#endif
