// faultpoint.hpp — named, compile-time-erasable fault points for
// deterministic chaos testing of the flock runtime.
//
// The paper's core robustness claim (§1, §3) is that a stalled or dead
// lock holder cannot block the system: helpers finish its critical
// section. Validating that with wall-clock stalls is flaky on small
// machines and blind to the narrow protocol windows (merge publication,
// root swing + epoch retire, slab refill). This header gives every such
// window an *id* in one point list below — `FLOCK_FAULTPOINT(
// ht_merge_pre_publish)` — and lets a test arm a deterministic fault at
// it:
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
// Ids are typed: `point` for the armable kinds, `sched_point` for
// scheduler-only yields. A misspelled id, a string, arming a sched point,
// or a site macro of the wrong kind is a compile error, in every build.
//
// Erasure: unless FLOCK_CHAOS is defined at compile time, the macros
// expand to an unevaluated `sizeof` that type-checks the id
// (`FLOCK_FAULTPOINT_ALLOC_FAIL` to `false`), so release/bench builds
// carry zero instructions per point; CI checks that no bench or example
// binary references the point table. The table, counters, and plan API
// below always compile (they are cheap inert atomics), so stats
// aggregation and reporters link the same either way. Test targets
// define FLOCK_CHAOS (see CMakeLists.txt); with no plan armed a
// compiled-in point costs one relaxed atomic load. FLOCK_CHAOS compiles
// in exactly three things: these points, the lock-API misuse guards
// (flock/lock.hpp), which add per-thread tracking to thread_context and
// a parent pointer to each descriptor, and the replay oracle
// (flock/descriptor.hpp, flock/lock.hpp), which adds a first-run record
// to each descriptor and an owner replay to each top-level acquisition.
//
// Determinism: hit arrivals are only counted while a point has a plan
// armed, and each plan entry counts the arrivals that match its own
// filter (any-thread, or victim-only — a thread marked by victim_scope).
// An entry fires on its nth..nth+count-1 matching arrivals. Arm a
// victim-only kill with nth=1 and the *first* protocol-window crossing of
// the designated thread faults, every run, regardless of scheduling.
// Seeded pseudo-random plans (`arm_seeded`, seed from FLOCK_CHAOS_SEED or
// passed by the test) arm stalls across the runtime's points plus
// alloc-fail at the resize trigger — the two fault classes that are safe
// to inject blindly. (Blind kill/alloc-fail at arbitrary
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
#include <mutex>
#include <thread>

// --- the point lists --------------------------------------------------------
//
// X(id, "dotted.name", kind), one entry per protocol window; one id may
// mark the window at several sites (lock_install_post). kind is
//   fault  a FLOCK_FAULTPOINT site: stall and kill plans fire here;
//   alloc  a FLOCK_FAULTPOINT_ALLOC_FAIL site: alloc_fail plans fire too;
//   sched  a FLOCK_SCHEDPOINT site: a schedule-explorer yield, never armed.
// The name is what the explorer's point filters and recorded schedules
// see. The runtime's fault and alloc points are seeded plans' draw
// order (kKnownPoints): append, never reorder.
#define FLOCK_CHAOS_POINTS(X)                                               \
  /* descriptor installed, thunk not yet run */                             \
  X(lock_install_post, "lock.install.post", fault)                          \
  /* done published, unlock CAS pending */                                  \
  X(lock_handoff_pre_unlock, "lock.handoff.pre_unlock", fault)              \
  /* helper validated, about to run the thunk */                            \
  X(lock_help_pre_run, "lock.help.pre_run", fault)                          \
  /* split copies live, forwarded flag pending */                           \
  X(ht_grow_pre_publish, "ht.grow.pre_publish", fault)                      \
  /* merge built, single-store publish pending */                           \
  X(ht_merge_pre_publish, "ht.merge.pre_publish", fault)                    \
  /* resize drained, root CAS pending */                                    \
  X(ht_root_pre_swing, "ht.root.pre_swing", fault)                          \
  /* root swung, table epoch-retire pending */                              \
  X(ht_root_pre_retire, "ht.root.pre_retire", fault)                        \
  /* successor-table allocation */                                          \
  X(ht_resize_alloc, "ht.resize.alloc", alloc)                              \
  /* inside the cross-table move's inner critical section */                \
  X(ht_move_pre_splice, "ht.move.pre_splice", fault)                        \
  /* retire push onto the open batch */                                     \
  X(epoch_retire, "epoch.retire", fault)                                    \
  /* batch seal + reclamation decision */                                   \
  X(epoch_seal, "epoch.seal", fault)                                        \
  /* slab refill */                                                         \
  X(alloc_refill, "alloc.refill", alloc)                                    \
  /* array_new header allocation */                                         \
  X(alloc_array, "alloc.array", alloc)                                      \
  /* cross-shard move, before the lock nest */                              \
  X(store_move_pre_nest, "store.move.pre_nest", fault)                      \
  /* log slot seen empty, commit CAS pending */                             \
  X(log_commit_pre, "log.commit.pre", sched)                                \
  /* mutable_ store validated, committing CAS pending */                    \
  X(mut_cas_pre, "mut.cas.pre", sched)                                      \
  /* write_once publication store pending */                                \
  X(wo_publish, "wo.publish", sched)                                        \
  /* find saw the bucket unforwarded, chain walk pending */                 \
  X(ht_read_post_flag, "ht.read.post_flag", sched)                          \
  /* lock waiter's backoff round spun, lock-word re-check pending */        \
  X(backoff_round, "backoff.round", sched)

// Points that only tests cross, one protocol window each.
#define FLOCK_CHAOS_TEST_POINTS(X)                                          \
  X(test_probe, "test.probe", fault)                                        \
  X(test_victim, "test.victim", fault)                                      \
  X(test_blocking_body, "test.blocking.body", fault)                        \
  X(test_holder_body, "test.holder.body", fault)                            \
  X(test_nest_body, "test.nest.body", fault)                                \
  X(test_nest_after, "test.nest.after", fault)                              \
  X(test_edge_p1, "test.edge.p1", fault)                                    \
  X(test_edge_victim, "test.edge.victim", fault)                            \
  X(test_edge_alloc, "test.edge.alloc", alloc)                              \
  X(test_rd_announced, "test.rd.announced", sched)                          \
  X(test_rd_loaded, "test.rd.loaded", sched)                                \
  X(test_wr_unlinked, "test.wr.unlinked", sched)                            \
  X(test_wr_retired, "test.wr.retired", sched)

// Kind filters: FLOCK_CHAOS_ARMABLE_<kind>(...) keeps its arguments for
// fault and alloc entries, FLOCK_CHAOS_SCHED_<kind>(...) for sched ones.
#define FLOCK_CHAOS_ARMABLE_fault(...) __VA_ARGS__
#define FLOCK_CHAOS_ARMABLE_alloc(...) __VA_ARGS__
#define FLOCK_CHAOS_ARMABLE_sched(...)
#define FLOCK_CHAOS_SCHED_fault(...)
#define FLOCK_CHAOS_SCHED_alloc(...)
#define FLOCK_CHAOS_SCHED_sched(...) __VA_ARGS__

#define FLOCK_CHAOS_POINT_ID(id, name, kind) FLOCK_CHAOS_ARMABLE_##kind(id, )
#define FLOCK_CHAOS_SCHED_ID(id, name, kind) FLOCK_CHAOS_SCHED_##kind(id, )
#define FLOCK_CHAOS_POINT_ROW(id, name, kind) \
  FLOCK_CHAOS_ARMABLE_##kind({name, point_kind::kind}, )
#define FLOCK_CHAOS_SCHED_NAME(id, name, kind) FLOCK_CHAOS_SCHED_##kind(name, )
#define FLOCK_CHAOS_KNOWN_POINT(id, name, kind) \
  FLOCK_CHAOS_ARMABLE_##kind(point::id, )

namespace flock_chaos {

enum class fault : uint8_t { stall, kill, alloc_fail };

enum class point_kind : uint8_t { fault, alloc, sched };

/// Id of a fault or alloc point: what FLOCK_FAULTPOINT,
/// FLOCK_FAULTPOINT_ALLOC_FAIL, arm() and hits() take.
enum class point : uint8_t {
  FLOCK_CHAOS_POINTS(FLOCK_CHAOS_POINT_ID)
  FLOCK_CHAOS_TEST_POINTS(FLOCK_CHAOS_POINT_ID)
};

/// Id of a sched point: what FLOCK_SCHEDPOINT takes. No plan API accepts
/// one, so a scheduler-only window cannot be armed by mistake.
enum class sched_point : uint8_t {
  FLOCK_CHAOS_POINTS(FLOCK_CHAOS_SCHED_ID)
  FLOCK_CHAOS_TEST_POINTS(FLOCK_CHAOS_SCHED_ID)
};

/// The runtime's fault and alloc points, in list order: the points seeded
/// plans draw from.
inline constexpr point kKnownPoints[] = {
    FLOCK_CHAOS_POINTS(FLOCK_CHAOS_KNOWN_POINT)};
inline constexpr std::size_t kKnownPointCount =
    sizeof(kKnownPoints) / sizeof(kKnownPoints[0]);

namespace detail {

struct point_row {
  const char* name;
  point_kind kind;
};
inline constexpr point_row kPoints[] = {
    FLOCK_CHAOS_POINTS(FLOCK_CHAOS_POINT_ROW)
    FLOCK_CHAOS_TEST_POINTS(FLOCK_CHAOS_POINT_ROW)};
inline constexpr const char* kSchedNames[] = {
    FLOCK_CHAOS_POINTS(FLOCK_CHAOS_SCHED_NAME)
    FLOCK_CHAOS_TEST_POINTS(FLOCK_CHAOS_SCHED_NAME)};
inline constexpr std::size_t kPointCount =
    sizeof(kPoints) / sizeof(kPoints[0]);

constexpr const point_row& row(point p) {
  return kPoints[static_cast<std::size_t>(p)];
}

/// Names the id of a FLOCK_FAULTPOINT (K = fault) or
/// FLOCK_FAULTPOINT_ALLOC_FAIL (K = alloc) site; a point listed with the
/// other kind does not compile.
template <point P, point_kind K>
struct site {
  static_assert(row(P).kind == K,
                "the site macro does not match the point's kind in its "
                "point list");
  static constexpr point value = P;
};

}  // namespace detail

/// A point's dotted name, as the schedule explorer sees it.
constexpr const char* name(point p) { return detail::row(p).name; }
constexpr const char* name(sched_point p) {
  return detail::kSchedNames[static_cast<std::size_t>(p)];
}

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
// sched point) then yields to the scheduler *before* the fault
// machinery runs, so "which thread runs next" composes with "does a
// fault fire here". Thread-local and a plain function pointer, so the
// runtime keeps zero link-time dependency on the scheduler and threads
// outside the explorer pay one TLS load only when FLOCK_CHAOS is on.
struct sched_hook {
  void (*fn)(sched_hook* self, const char* point);
};
inline thread_local sched_hook* tl_sched_hook = nullptr;

// Points are inert on a thread while this is set: no yield, no arrival
// counted, no fault. The owner replay (flock/lock.hpp, replay_owner) sets
// it, so seeded plans and explored schedules never see the replay.
inline thread_local bool tl_inert = false;

inline void yield_to_scheduler(const char* name) {
  sched_hook* h = tl_sched_hook;
  if (h != nullptr && !tl_inert) [[unlikely]]
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
  std::atomic<uint32_t> armed{0};  // active entries; 0 == fast path
  std::atomic<uint64_t> hits{0};   // arrivals while armed (diagnostics)
  plan_entry entries[kMaxEntries];
};

// The point table, indexed by id; arm() and reset() serialize on g_plan_mu.
inline point_state g_points[kPointCount]{};
inline std::mutex g_plan_mu;

inline point_state& state(point p) {
  return g_points[static_cast<std::size_t>(p)];
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

/// Slow path behind cross()'s armed check. `alloc_site` selects whether
/// alloc_fail entries are honored (and whether they tick their arrival
/// counters) at this site.
inline bool on_hit(point_state& p, bool alloc_site) {
  p.hits.fetch_add(1, std::memory_order_relaxed);
  bool fail_alloc = false;
  uint32_t n = p.armed.load(std::memory_order_acquire);
  if (n > static_cast<uint32_t>(point_state::kMaxEntries))
    n = point_state::kMaxEntries;
  for (uint32_t i = 0; i < n; i++) {
    plan_entry& e = p.entries[i];
    if (e.kind == fault::alloc_fail && !alloc_site) continue;
    if (e.victim_only && !tl_victim) continue;
    uint64_t s = e.seen.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (s >= e.nth && s < e.nth + e.count)
      if (apply(e)) fail_alloc = true;
  }
  return fail_alloc;
}

/// One arrival at a compiled-in point: yield to the schedule explorer
/// first, so a fault plan composed with a schedule fires after the
/// interleaving decision ("thread dies at step k of schedule S" is one
/// enumerable event), then the armed check. Returns true when the
/// allocation at an alloc point must report failure.
inline bool cross(point id) {
  if (tl_inert) [[unlikely]]
    return false;
  yield_to_scheduler(name(id));
  point_state& p = state(id);
  if (p.armed.load(std::memory_order_relaxed) == 0) [[likely]]
    return false;
  return on_hit(p, /*alloc_site=*/row(id).kind == point_kind::alloc);
}

}  // namespace detail

// --- plan control -----------------------------------------------------------

struct arm_options {
  uint64_t nth = 1;            // 1-based matching-arrival index to fire on
  uint64_t count = 1;          // consecutive arrivals that fire
  uint32_t stall_spins = 20000;  // stall budget (bounded, deterministic)
  bool victim_only = false;    // fire only for threads in a victim_scope
};

/// Arm one fault at a point. Returns false if the point's entry table is
/// full. Arm/reset are test-orchestration calls: arm before the threads
/// under test start arriving at the point.
inline bool arm(point id, fault kind, arm_options o = {}) {
  std::lock_guard<std::mutex> g(detail::g_plan_mu);
  detail::point_state& p = detail::state(id);
  uint32_t n = p.armed.load(std::memory_order_relaxed);
  if (n >= detail::point_state::kMaxEntries) return false;
  detail::plan_entry& e = p.entries[n];
  e.kind = kind;
  e.victim_only = o.victim_only;
  e.nth = o.nth == 0 ? 1 : o.nth;
  e.count = o.count == 0 ? 1 : o.count;
  e.stall_spins = o.stall_spins;
  e.seen.store(0, std::memory_order_relaxed);
  p.armed.store(n + 1, std::memory_order_release);
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
  std::lock_guard<std::mutex> g(detail::g_plan_mu);
  for (detail::point_state& p : detail::g_points) {
    p.armed.store(0, std::memory_order_release);
    p.hits.store(0, std::memory_order_relaxed);
    for (auto& e : p.entries) e.seen.store(0, std::memory_order_relaxed);
  }
  detail::g_release_killed.store(false, std::memory_order_release);
}

/// Arrivals observed at a point while armed (tests arm first, then drive
/// traffic).
inline uint64_t hits(point id) {
  return detail::state(id).hits.load(std::memory_order_relaxed);
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
/// across the runtime's points (random nth/count/spins), plus — on
/// odd-ish seeds — alloc-fail bursts at the resize trigger. Safe to run
/// under any workload: stalls are bounded and the resize trigger is the
/// one allocation site the runtime survives failing (see hashtable.hpp).
/// A test can re-plan at run time: reset() then arm_seeded(next_seed).
inline void arm_seeded(uint64_t seed, int entries = 6) {
  uint64_t x = seed ? seed : 0x9e3779b97f4a7c15ULL;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < entries; i++) {
    point id = kKnownPoints[next() % kKnownPointCount];
    arm_options o;
    o.nth = 1 + next() % 64;
    o.count = 1 + next() % 4;
    o.stall_spins = 500 + static_cast<uint32_t>(next() % 20000);
    arm(id, fault::stall, o);
  }
  if (seed & 1) {
    arm_options o;
    o.nth = 1 + next() % 4;
    o.count = 1 + next() % 8;
    arm(point::ht_resize_alloc, fault::alloc_fail, o);
  }
}

}  // namespace flock_chaos

// --- the instrumentation macros --------------------------------------------
//
// Each takes a bare id from the point lists. In every build the id is
// named in an operand, so a typo or an id of the wrong type or kind fails
// to compile; without FLOCK_CHAOS that operand is unevaluated and the
// site emits no instructions.

// A site's id, checked against the kind the point list gives it.
#define FLOCK_CHAOS_SITE(id, kind)                      \
  ::flock_chaos::detail::site<::flock_chaos::point::id, \
                              ::flock_chaos::point_kind::kind>

#ifdef FLOCK_CHAOS
/// Mark a protocol window. Disarmed cost: one TLS load + one relaxed load
/// + predicted branches.
#define FLOCK_FAULTPOINT(id) \
  static_cast<void>(     \
      ::flock_chaos::detail::cross(FLOCK_CHAOS_SITE(id, fault)::value))

/// Mark an allocation site: evaluates to true when the allocation at
/// this point must report failure (stall/kill entries armed here also
/// fire, before the failure decision is returned).
#define FLOCK_FAULTPOINT_ALLOC_FAIL(id) \
  ::flock_chaos::detail::cross(FLOCK_CHAOS_SITE(id, alloc)::value)

/// Mark a scheduler-only yield point: a window that the schedule
/// explorer must be able to preempt at, but where no fault plan ever
/// fires (descriptor tag revalidation, write_once publication, ...).
/// No table entry, no counters — just the thread-local hook check.
#define FLOCK_SCHEDPOINT(id)                 \
  ::flock_chaos::detail::yield_to_scheduler( \
      ::flock_chaos::name(::flock_chaos::sched_point::id))
#else
#define FLOCK_FAULTPOINT(id) \
  static_cast<void>(sizeof(FLOCK_CHAOS_SITE(id, fault)))
#define FLOCK_FAULTPOINT_ALLOC_FAIL(id) \
  (static_cast<void>(sizeof(FLOCK_CHAOS_SITE(id, alloc))), false)
#define FLOCK_SCHEDPOINT(id) \
  static_cast<void>(sizeof(::flock_chaos::sched_point::id))
#endif
