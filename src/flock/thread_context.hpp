// thread_context.hpp — the single per-thread hot-path structure.
//
// Every per-acquisition bookkeeping item the runtime needs — dense thread
// id, cursor into the current thunk's log, stat counters, the epoch
// announcement slot, the tag-wrap announcement pair, and the epoch-retire
// batches — lives in one cache-line-aligned slot of a static array,
// reached through ONE thread-local pointer fetch (`my_ctx()`). The
// previous design paid a separate guarded TLS lookup for each of these
// (thread_id(), tls_log(), my_stats(), epoch slots, announce slots) on
// every lock acquisition.
//
// `tl_ctx` is a trivially-initialized thread_local pointer, so compilers
// emit a plain TLS load with no init guard; the one-time registration
// (dense id acquisition, slot reset) hides behind an [[unlikely]] null
// check. Ids recycle on thread exit exactly as before: the context slot
// is indexed by id, and a new thread that inherits an id also inherits
// the slot's monotonic counters (stats aggregation is cumulative) and any
// retire backlog left by the previous owner (drained by normal sealing or
// by flush(), as the old per-id retire lists were).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "config.hpp"

namespace flock {

struct log_block;   // log.hpp
struct descriptor;  // descriptor.hpp

/// Cursor into the log of the thunk the thread is currently running;
/// {nullptr, 0} outside of any thunk (then commits pass through).
struct log_cursor {
  log_block* block = nullptr;
  int pos = 0;
};

namespace detail {

struct retired_item {
  void* p;
  void (*del)(void*);
};

/// A fixed-capacity block of retired objects. retire() is an O(1) push
/// into the open batch; when the batch fills it is sealed — stamped with
/// the global epoch, which upper-bounds every member's retire epoch — and
/// reclamation decisions happen per batch, not per object (DEBRA-style
/// amortization, see epoch.hpp).
struct retire_batch {
  static constexpr int kCapacity = 64;
  int64_t epoch = -1;  // seal stamp; -1 while open
  int n = 0;
  retire_batch* next = nullptr;
  retired_item items[kCapacity];
};

struct alignas(2 * kCacheLine) thread_context {
  // --- owner-private hot state (never written by other threads) ----------
  log_cursor log;            // cursor into the current thunk's log
  int id = -1;               // dense id in [0, kMaxThreads)
  uint64_t commit_count = 0;  // log-slot commits (instrumentation)
  uint64_t stat_created = 0;   // descriptors created (lock acquisitions)
  uint64_t stat_attempted = 0; // help() entries
  uint64_t stat_ran = 0;       // help() revalidations that ran a thunk
  uint64_t stat_reused = 0;    // never-helped fast-path descriptor reuse
  uint64_t stat_helps_avoided = 0;  // throttled waits resolved without helping
  uint64_t stat_backoff_spins = 0;  // cpu_pause iterations spent backing off
  uint64_t backoff_rng = 0;    // xorshift state (lazily seeded from id)
  // Deferred nested retires (lock.hpp, retire_logged): set while this
  // thread runs its own top-level descriptor; the list links nested
  // descriptors through descriptor::deferred_next until that top-level
  // acquisition decides reuse or epoch retire for the whole chain.
  bool owner_run = false;
  descriptor* deferred = nullptr;

  // --- own cache line: state scanned by other threads --------------------
  alignas(kCacheLine) std::atomic<int64_t> announced{-1};  // epoch slot
  std::atomic<const void*> ann_loc{nullptr};  // tag-wrap announcement
  std::atomic<uint64_t> ann_packed{0};        //   (tagged.hpp)
  int epoch_depth = 0;  // with_epoch nesting; owner-only

  // --- cold: epoch-retire backlog (owner-only; flush() requires
  // quiescence, same contract as the old per-id retire lists) -------------
  retire_batch* open = nullptr;         // partially filled batch
  retire_batch* sealed_head = nullptr;  // FIFO of sealed batches (oldest first)
  retire_batch* sealed_tail = nullptr;
  retire_batch* batch_free = nullptr;   // small recycling cache
  int batch_free_n = 0;
  long long retired_pending = 0;  // items in open + sealed (stats)

#ifdef FLOCK_DEBUG_API
  // Lock-API misuse tracking (lock.hpp): the stack of descriptors whose
  // thunks are running on this thread, and the number of critical
  // sections this thread is currently completing (asserted zero at
  // thread exit — a leaked, never-released lock). Owner-only.
  static constexpr int kDbgRunDepth = 16;
  void* dbg_run_stack[kDbgRunDepth] = {};
  int dbg_run_depth = 0;
  long long dbg_held = 0;
#endif
};

inline constinit thread_context g_ctx[kMaxThreads]{};

/// Aborts: one more live thread than kMaxThreads. Out of line and cold so
/// the cap check adds only a compare and a call to thread registration.
[[noreturn, gnu::cold, gnu::noinline]] inline void too_many_threads() {
  std::fprintf(stderr,
               "[flock] more than kMaxThreads = %d live threads; raise "
               "kMaxThreads (config.hpp)\n",
               kMaxThreads);
  std::abort();
}

/// Dense id allocation with recycling (cold path: thread birth/death only).
class id_allocator {
 public:
  static id_allocator& instance() {
    static id_allocator a;
    return a;
  }

  int acquire() {
    std::lock_guard<std::mutex> g(mu_);
    if (!free_.empty()) {
      int id = free_.back();
      free_.pop_back();
      return id;
    }
    // Checked in every build: past the cap, g_ctx[next_] is out of bounds.
    if (next_ >= kMaxThreads) [[unlikely]]
      too_many_threads();
    return next_++;
  }

  void release(int id) {
    std::lock_guard<std::mutex> g(mu_);
    free_.push_back(id);
  }

  /// Upper bound (exclusive) on ids ever handed out; all slot scans use
  /// this instead of kMaxThreads to stay cheap.
  int high_water() const {
    // A scanner that reads bound n sees at least the (mutex-published) id
    // handout, and every g_ctx slot below the bound is a static whose
    // previous holder left it quiescent (announced=-1, ann_loc=null), so
    // a raced raise can only expose a benign idle slot, never garbage.
    // mo: acquire — pairs with the acq_rel raise in note_high_water.
    return next_hint_.load(std::memory_order_acquire);
  }

  void note_high_water(int n) {
    // mo: relaxed — only seeds the CAS expected value; the CAS re-reads
    // with its own ordering on failure.
    int cur = next_hint_.load(std::memory_order_relaxed);
    // mo: acq_rel — monotone-max CAS: release for high_water()'s acquire,
    // acquire so a loser observes the raiser's larger bound and exits.
    while (n > cur &&
           !next_hint_.compare_exchange_weak(cur, n, std::memory_order_acq_rel)) {
    }
  }

 private:
  id_allocator() = default;
  std::mutex mu_;
  std::vector<int> free_;
  int next_ = 0;
  std::atomic<int> next_hint_{0};
};

// Trivially initialized: access compiles to a plain TLS load, no guard.
inline thread_local thread_context* tl_ctx = nullptr;

/// Cold one-time registration for the calling thread.
[[gnu::noinline]] inline thread_context* init_thread_context() {
  struct owner {
    thread_context* c;
    owner() {
      int id = id_allocator::instance().acquire();
      id_allocator::instance().note_high_water(id + 1);
      c = &g_ctx[id];
      // Reset transient state a previous holder of this id may have left;
      // monotonic counters and the retire backlog carry over (see header
      // comment). A holder that never finished its top-level acquisition
      // strands its deferred list (see lock.hpp); the new owner starts with
      // an empty one.
      c->id = id;
      c->log = {};
      c->epoch_depth = 0;
      c->owner_run = false;
      c->deferred = nullptr;
      // mo: relaxed (both) — these rewrite the previous holder's already
      // quiescent values with the same quiescent values; the id hand-off
      // itself synchronizes through the allocator mutex.
      c->announced.store(-1, std::memory_order_relaxed);
      c->ann_loc.store(nullptr, std::memory_order_relaxed);  // mo: ditto
#ifdef FLOCK_DEBUG_API
      c->dbg_run_depth = 0;
      c->dbg_held = 0;
#endif
      tl_ctx = c;
    }
    ~owner() {
#ifdef FLOCK_DEBUG_API
      if (c->dbg_held != 0) {
        std::fprintf(stderr,
                     "[flock] FLOCK_DEBUG_API: thread %d exiting while "
                     "holding %lld never-released lock(s)\n",
                     c->id, c->dbg_held);
        std::abort();
      }
#endif
      tl_ctx = nullptr;
      id_allocator::instance().release(c->id);
    }
  };
  thread_local owner o;
  tl_ctx = o.c;
  return o.c;
}

/// THE per-operation TLS access: one pointer load plus a predictable branch.
inline thread_context* my_ctx() noexcept {
  thread_context* c = tl_ctx;
  if (c == nullptr) [[unlikely]] return init_thread_context();
  return c;
}

}  // namespace detail
}  // namespace flock
