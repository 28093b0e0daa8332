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
// the slot's monotonic counters (stats aggregation is cumulative), its
// spare descriptors, and any retire backlog left by the previous owner
// (drained by normal sealing or by flush(), as the old per-id retire lists
// were).
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
/// reclamation decisions happen per batch, not per object: one
/// announcement scan per seal (see epoch.hpp).
struct retire_batch {
  static constexpr int kCapacity = 64;
  int64_t epoch = -1;  // seal stamp; -1 while open
  int n = 0;
  retire_batch* next = nullptr;
  retired_item items[kCapacity];
};

// The per-thread stat counters, declared once: thread_context's cells and
// stats()'s sums (stats.hpp) expand this list, and it opens
// FLOCK_STATS_COUNTERS there. X(name) per counter, in dump order.
#define FLOCK_THREAD_STATS(X)                                               \
  X(descriptors_created) /* lock acquisitions (lock-free mode) */          \
  X(helps_attempted)     /* help() entries */                              \
  X(helps_run)           /* help() revalidations that ran a thunk */       \
  X(descriptors_reused)  /* §6 reuse of never-helped descriptors */        \
  X(helps_avoided)       /* throttled waits resolved without a help */     \
  X(backoff_spins)       /* cpu_pause iterations spent backing off */

struct alignas(2 * kCacheLine) thread_context {
  // --- owner-private hot state (never written by other threads) ----------
  log_cursor log;            // cursor into the current thunk's log
  int id = -1;               // dense id in [0, kMaxThreads)
  uint64_t commit_count = 0;  // log-slot commits (instrumentation)
  // Stat cells, one per FLOCK_THREAD_STATS entry, written only by the
  // owner (stat_add), read by stats():
  struct stat_cells {
#define FLOCK_STAT_CELL(name) std::atomic<uint64_t> name{0};
    FLOCK_THREAD_STATS(FLOCK_STAT_CELL)
#undef FLOCK_STAT_CELL
  } stat;
  uint64_t backoff_rng = 0;    // xorshift state (lazily seeded from id)
  // Deferred nested retires (lock.hpp, retire_nested): set while this
  // thread runs its own top-level descriptor; the list links nested
  // descriptors through descriptor::deferred_next until that top-level
  // acquisition decides reuse or epoch retire for the whole chain.
  bool owner_run = false;
  descriptor* deferred = nullptr;
  // Recycled descriptors (descriptor.hpp, recycle), linked through
  // descriptor::deferred_next; new_descriptor_ctx takes from here before
  // it carves a fresh one. Carries over on id reuse, like the retire
  // backlog.
  descriptor* spare = nullptr;
  long long descriptors_live = 0;  // taken minus recycled by this thread

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

#ifdef FLOCK_CHAOS
  // Lock-API misuse guards (lock.hpp), compiled into test builds only:
  // the stack of this thread's open critical sections — the descriptors
  // whose thunks run (lock-free mode) or the lock words of its sections
  // (blocking mode) — tracked up to kDbgRunDepth deep. Owner-only; the
  // depth must be zero when the thread exits.
  static constexpr int kDbgRunDepth = 16;
  const void* dbg_run_stack[kDbgRunDepth] = {};
  int dbg_run_depth = 0;

  void dbg_run_push(const void* entry) {
    if (dbg_run_depth < kDbgRunDepth) dbg_run_stack[dbg_run_depth] = entry;
    dbg_run_depth++;
  }
#endif
};

inline constinit thread_context g_ctx[kMaxThreads]{};

/// Bump a stat cell of the calling thread's own context. A load and a
/// store, not an RMW: the owner is the only writer, so this compiles to a
/// plain add, and stats() reading the cell concurrently is not a race.
inline void stat_add(std::atomic<uint64_t>& cell, uint64_t n = 1) noexcept {
  // mo: relaxed (both) — single-writer monitoring counter; readers need
  // only an untorn value, never ordering with the protocol's accesses.
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

/// Read any thread's stat cell (stats()): an untorn, unordered value.
inline uint64_t stat_read(const std::atomic<uint64_t>& cell) noexcept {
  // mo: relaxed — see stat_add.
  return cell.load(std::memory_order_relaxed);
}

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
    // mo: relaxed — every writer holds mu_, as this thread does.
    const int id = next_.load(std::memory_order_relaxed);
    if (id >= kMaxThreads) [[unlikely]]
      too_many_threads();
    // mo: release — pairs with high_water()'s acquire.
    next_.store(id + 1, std::memory_order_release);
    return id;
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
    // a slot whose new holder has not registered yet is a benign idle
    // slot, never garbage.
    // mo: acquire — pairs with the release store in acquire().
    return next_.load(std::memory_order_acquire);
  }

 private:
  id_allocator() = default;
  std::mutex mu_;
  std::vector<int> free_;
  std::atomic<int> next_{0};  // written under mu_, read by high_water()
};

// Trivially initialized: access compiles to a plain TLS load, no guard.
inline thread_local thread_context* tl_ctx = nullptr;

/// Cold one-time registration for the calling thread.
[[gnu::noinline]] inline thread_context* init_thread_context() {
  struct owner {
    thread_context* c;
    owner() {
      int id = id_allocator::instance().acquire();
      c = &g_ctx[id];
      // Reset transient state a previous holder of this id may have left;
      // monotonic counters and the retire backlog carry over (see header
      // comment), and so does the spare-descriptor list. A holder that never
      // finished its top-level acquisition strands its deferred list (see
      // lock.hpp); the new owner starts with an empty one.
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
#ifdef FLOCK_CHAOS
      c->dbg_run_depth = 0;
#endif
      tl_ctx = c;
    }
    ~owner() {
#ifdef FLOCK_CHAOS
      if (c->dbg_run_depth != 0) {
        std::fprintf(stderr,
                     "[flock] lock API misuse: thread %d exiting inside "
                     "%d unfinished critical section(s)\n",
                     c->id, c->dbg_run_depth);
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
