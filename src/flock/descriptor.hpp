// descriptor.hpp — the descriptor a thread leaves behind when it takes a
// lock (paper §1, §3, §4): the thunk to run, the shared idempotence log,
// a done flag, plus two implementation fields from §6: the creation epoch
// (helpers adopt it) and a helped flag (never-helped descriptors are
// reused immediately instead of epoch-retired — at every nesting depth:
// a nested descriptor waits on its owner's deferred list until the
// enclosing top-level acquisition judges the whole chain, see lock.hpp).
//
// The first log block (one cache line: 7 slots and the next pointer) is
// embedded, so acquiring a lock costs exactly one pool allocation. Inside
// a thunk, creation is an idempotent allocation: each run builds a
// candidate and commits its pointer to the enclosing log. A nested
// try_lock commits its candidate together with the lock word its install
// CAS expects (`expected`), so one slot carries both (lock.hpp).
#pragma once

#include <atomic>
#include <cstdint>

#include "allocator.hpp"
#include "config.hpp"
#include "epoch.hpp"
#include "log.hpp"
#include "stats.hpp"
#include "thunk.hpp"

namespace flock {

struct descriptor {
  log_block head;                   // first log block, embedded
  std::atomic<bool> done{false};    // update-once; loads of it are logged
  std::atomic<bool> helped{false};  // §6 reuse optimization (see lock.hpp)
  // Creator's announced epoch. Atomic because help() reads it from a
  // descriptor that may already be recycled and re-stamped (lock.hpp);
  // relaxed on both sides, see new_descriptor_ctx.
  std::atomic<int64_t> epoch{-1};
  // Nested try_lock only: the lock word its install CAS expects. The run
  // that builds the candidate writes it before committing the candidate's
  // pointer, so every run that adopts the pointer reads the same word (the
  // commit's release/acquire orders it).
  uint64_t expected = 0;
  thunk fn;
#ifdef FLOCK_DEBUG_API
  // The descriptor whose thunk was running when this one was created —
  // the lock-holding chain for the non-holder unlock check (lock.hpp).
  // Helpers replaying a nested acquisition create loser candidates with
  // their own parent, but only the first-committed descriptor survives,
  // so the chain reflects the original nesting.
  // A never-helped chain, nested parents included, is pool-reused as a
  // whole right after its top-level unlock, so parent pointers go stale
  // as soon as the top-level acquisition returns. A helped chain is
  // epoch-retired as a whole, so a walk from a helper's validated run
  // still reads live parents; a walk that reaches recycled memory reads
  // mapped slab storage and can only fail to match or pass spuriously.
  descriptor* dbg_parent = nullptr;
#endif
  // Owner-private link of the deferred nested-retire list (lock.hpp,
  // retire_nested). Sits in the tail padding: sizeof is unchanged.
  descriptor* deferred_next = nullptr;

  // User-provided on purpose: a defaulted constructor would make
  // pool_new_ctx's `new (mem) descriptor()` value-initialize, zero-filling
  // all 256 bytes (the 104-byte thunk buffer included, which emplace
  // overwrites anyway) before the member initializers run. Every member
  // has its own initializer, so this leaves only the buffer untouched.
  descriptor() {}
  descriptor(const descriptor&) = delete;
  descriptor& operator=(const descriptor&) = delete;

  ~descriptor() {
    // Free any overflow log blocks. Safe: destruction happens either
    // before the descriptor was ever published (loser of an idempotent
    // allocation) or after epoch reclamation says nobody can reach it.
    // The destroying thread may not be the thread that linked an overflow
    // block, so it must see the block's initialized contents before
    // freeing it.
    // mo: acquire (both loads) — pairs with the acq_rel append CAS in
    // log.hpp's log_advance.
    log_block* b = head.next.load(std::memory_order_acquire);
    while (b != nullptr) {
      log_block* nxt = b->next.load(std::memory_order_acquire);  // mo: ditto
      pool_delete(b);
      b = nxt;
    }
  }

  /// Alg. 2 `run`: install this descriptor's log as the thread's current
  /// log, run the thunk, restore the previous log (supports nesting).
  bool run(detail::thread_context* c) {
    log_cursor saved = c->log;
    c->log = {&head, 0};
#ifdef FLOCK_DEBUG_API
    if (c->dbg_run_depth < detail::thread_context::kDbgRunDepth)
      c->dbg_run_stack[c->dbg_run_depth] = this;
    c->dbg_run_depth++;
#endif
    bool result = fn();
#ifdef FLOCK_DEBUG_API
    c->dbg_run_depth--;
#endif
    c->log = saved;
    return result;
  }

  bool run() { return run(detail::my_ctx()); }
};
// Four cache lines: the pool's size class for descriptors.
static_assert(sizeof(descriptor) == 4 * kCacheLine);

namespace detail {

/// Build a descriptor for thunk `f`, stamped with the creator's epoch:
/// the one place a descriptor is allocated. Aborts when the pool cannot
/// supply one (allocator.hpp's failure contract).
template <class F>
descriptor* new_descriptor_ctx(thread_context* c, F&& f) {
  stat_add(c->stat_created);
  descriptor* d = pool_new_ctx<descriptor>(c);
  if (d == nullptr) [[unlikely]]
    out_of_memory("descriptor");
  d->fn.emplace(std::forward<F>(f));
#ifdef FLOCK_DEBUG_API
  d->dbg_parent =
      c->dbg_run_depth > 0 && c->dbg_run_depth <= thread_context::kDbgRunDepth
          ? static_cast<descriptor*>(c->dbg_run_stack[c->dbg_run_depth - 1])
          : nullptr;
#endif
  // mo: relaxed — reading our OWN announcement slot (single writer is
  // this thread); only the value matters, not ordering with other slots.
  int64_t e = c->announced.load(std::memory_order_relaxed);
  // mo: relaxed — the stamp needs no ordering of its own: the lock-word
  // CAS that installs this descriptor publishes it, and help() reads it
  // only after the acquire load of that word.
  d->epoch.store(e >= 0 ? e : epoch_manager::instance().current_epoch(),
                 std::memory_order_relaxed);
  return d;
}

/// Commit this run's candidate (null allowed) to the enclosing log and
/// adopt whatever the slot holds: the first run to commit wins, losers
/// free theirs (they were never published).
inline descriptor* commit_descriptor_ctx(thread_context* c,
                                         descriptor* mine) {
  auto [committed, first] =
      commit_raw_ctx(c, reinterpret_cast<uint64_t>(mine));
  if (first) return mine;
  if (mine != nullptr) pool_delete_ctx(c, mine);
  return reinterpret_cast<descriptor*>(committed);
}

/// Idempotent descriptor creation (Alg. 3 createDescriptor) with the
/// caller's context: one log slot inside a thunk, a plain build outside.
template <class F>
descriptor* create_descriptor_ctx(thread_context* c, F&& f) {
  return commit_descriptor_ctx(c, new_descriptor_ctx(c, std::forward<F>(f)));
}

}  // namespace detail

/// Public spelling (one context fetch).
template <class F>
descriptor* create_descriptor(F&& f) {
  return detail::create_descriptor_ctx(detail::my_ctx(), std::forward<F>(f));
}

}  // namespace flock
