// descriptor.hpp — the descriptor a thread leaves behind when it takes a
// lock (paper §1, §3, §4): the thunk to run, the shared idempotence log,
// a done flag, plus two implementation fields from §6: the creation epoch
// (helpers adopt it) and a helped flag (never-helped descriptors are
// reused immediately instead of epoch-retired).
//
// The first log block (one cache line: 7 slots and the next pointer) is
// embedded, so acquiring a lock costs exactly one pool allocation.
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
  int64_t epoch = -1;               // creator's announced epoch
  thunk fn;
#ifdef FLOCK_DEBUG_API
  // The descriptor whose thunk was running when this one was created —
  // the lock-holding chain for the non-holder unlock check (lock.hpp).
  // Helpers replaying a nested acquisition create loser candidates with
  // their own parent, but only the first-committed descriptor survives,
  // so the chain reflects the original nesting.
  descriptor* dbg_parent = nullptr;
#endif

  descriptor() = default;
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
    // log.hpp's log_bump.
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

namespace detail {

/// Idempotent descriptor creation (Alg. 3 createDescriptor) with the
/// caller's context and compile-time ccas: every run of the enclosing
/// thunk builds a candidate; the first to commit wins and losers free
/// theirs (they were never published).
template <bool Ccas, class F>
descriptor* create_descriptor_ctx(thread_context* c, F&& f) {
  c->stat_created++;
  descriptor* mine = pool_new_ctx<descriptor>(c);
  mine->fn.emplace(std::forward<F>(f));
#ifdef FLOCK_DEBUG_API
  mine->dbg_parent =
      c->dbg_run_depth > 0 && c->dbg_run_depth <= thread_context::kDbgRunDepth
          ? static_cast<descriptor*>(c->dbg_run_stack[c->dbg_run_depth - 1])
          : nullptr;
#endif
  // mo: relaxed — reading our OWN announcement slot (single writer is
  // this thread); only the value matters, not ordering with other slots.
  int64_t e = c->announced.load(std::memory_order_relaxed);
  mine->epoch = e >= 0 ? e : epoch_manager::instance().current_epoch();
  auto [committed, first] =
      commit_raw_ctx<Ccas>(c, reinterpret_cast<uint64_t>(mine));
  if (first) return mine;
  pool_delete_ctx(c, mine);
  return reinterpret_cast<descriptor*>(committed);
}

}  // namespace detail

/// Public spelling (one context fetch, one ccas-flag load).
template <class F>
descriptor* create_descriptor(F&& f) {
  detail::thread_context* c = detail::my_ctx();
  return use_ccas()
             ? detail::create_descriptor_ctx<true>(c, std::forward<F>(f))
             : detail::create_descriptor_ctx<false>(c, std::forward<F>(f));
}

}  // namespace flock
