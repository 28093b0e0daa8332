// stats.hpp — lightweight introspection counters for the helping
// machinery. The counters live directly in the per-thread context
// (thread_context.hpp), so the hot-path cost is one plain increment on a
// structure that is already resident; this header provides the aggregate
// view. Used by benchmarks to report helping rates and by tests to assert
// helping actually happened.
#pragma once

#include <atomic>
#include <cstdint>

#include "allocator.hpp"
#include "chaos/faultpoint.hpp"
#include "config.hpp"
#include "thread_context.hpp"
#include "threading.hpp"

namespace flock {
namespace detail {

// Resizes deferred because the successor-table allocation failed
// (injected "ht.resize.alloc" fault or real OOM); bumped by the ds tier
// (hashtable.hpp), aggregated here. Monotonic, process-wide.
inline std::atomic<uint64_t> g_resize_deferrals{0};

}  // namespace detail

// The counters, declared once. stats_snapshot's fields and every dump
// of them (bench/harness.hpp json_reporter) expand this list, so a
// counter added here is dumped with no second list to keep in step.
// X(name) per counter, in dump order.
#define FLOCK_STATS_COUNTERS(X)                                              \
  X(descriptors_created) /* lock acquisitions (lock-free mode) */           \
  X(helps_attempted)     /* help() entries */                               \
  X(helps_run)           /* help() revalidations that ran a thunk */        \
  X(descriptors_reused)  /* fast-path pool reuse (never helped) */          \
  X(helps_avoided)       /* throttled waits resolved without a help */      \
  X(backoff_spins)       /* cpu_pause iterations spent backing off */       \
  /* Fault-tolerance counters (chaos instrumentation + allocation      */   \
  /* failure contract; all zero without FLOCK_CHAOS and without OOM).  */   \
  X(alloc_failures)      /* null pool/array returns (allocator.hpp) */      \
  X(resize_deferrals)    /* resizes deferred on allocation failure */       \
  X(chaos_stalls)        /* injected stalls (chaos/faultpoint.hpp) */       \
  X(chaos_kills)         /* injected kills (dead-holder parks) */           \
  X(chaos_alloc_fails)   /* injected allocation failures */

struct stats_snapshot {
#define FLOCK_STATS_FIELD(name) uint64_t name = 0;
  FLOCK_STATS_COUNTERS(FLOCK_STATS_FIELD)
#undef FLOCK_STATS_FIELD
};

/// Aggregate counters across all threads (monotonic since process start).
/// The per-thread cells are plain single-writer words, so a snapshot
/// taken while traffic runs is approximate: each cell is read whole
/// (no tearing on word-aligned targets) but cells are not mutually
/// consistent. Monitoring output only — never use for control flow.
/// (.tsan-suppressions carries the matching race:flock::stats entry.)
inline stats_snapshot stats() {
  stats_snapshot s;
  const int bound = thread_id_bound();
  for (int i = 0; i < bound; i++) {
    const detail::thread_context& c = detail::g_ctx[i];
    s.descriptors_created += c.stat_created;
    s.helps_attempted += c.stat_attempted;
    s.helps_run += c.stat_ran;
    s.descriptors_reused += c.stat_reused;
    s.helps_avoided += c.stat_helps_avoided;
    s.backoff_spins += c.stat_backoff_spins;
  }
  s.alloc_failures = alloc_failures();
  // mo: relaxed — monotonic monitoring counter, same approximate-snapshot
  // contract as the per-thread cells above.
  s.resize_deferrals =
      detail::g_resize_deferrals.load(std::memory_order_relaxed);
  s.chaos_stalls = flock_chaos::stalls_injected();
  s.chaos_kills = flock_chaos::kills_injected();
  s.chaos_alloc_fails = flock_chaos::alloc_fails_injected();
  return s;
}

}  // namespace flock
