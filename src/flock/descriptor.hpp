// descriptor.hpp — the descriptor a thread leaves behind when it takes a
// lock (paper §1, §3, §4): the thunk to run, the shared idempotence log,
// a done flag, plus two implementation fields from §6: the creation epoch
// (helpers adopt it) and a helped flag (never-helped descriptors are
// reused immediately instead of epoch-retired — at every nesting depth:
// a nested descriptor waits on its owner's deferred list until the
// enclosing top-level acquisition judges the whole chain, see lock.hpp).
//
// The first log block (one cache line: 7 slots and the next pointer) is
// embedded, so a descriptor is three cache lines: the log, the flags and
// the thunk (captures up to kThunkInlineBytes = 64 bytes). Inside a
// thunk, creation is an idempotent allocation: each run builds a
// candidate and commits its pointer to the enclosing log. A nested
// try_lock commits its candidate together with the lock word its install
// CAS expects (`expected`), so one slot carries both (lock.hpp).
//
// Lifecycle: descriptor memory is type-stable. A descriptor is
// constructed once, when new_descriptor_ctx carves it from the pool, and
// is never destroyed (~descriptor is deleted). Every release — the §6
// reuse of a never-helped descriptor, a lost install race, a losing
// candidate, the epoch deleter of a helped one — is one recycle(c, d):
// it frees the overflow log blocks, resets the log, `done` and `helped`
// (and the replay oracle's first-run record) with atomic stores, clears
// the thunk, and pushes d on the releasing thread's spare list, from
// which the next acquisition takes it.
//
// Invariant: a thread holding a stale pointer to a recycled descriptor
// (a waiter or helper that read a lock word before the owner released
// it) touches only its atomics — `done`, `helped`, `epoch` — and acts on
// nothing it read there before it revalidates the lock word with a
// seq_cst read (lock.hpp). The word's tag is monotonic while any stale
// referencer exists, so a recycled descriptor never passes that check,
// and the stale access is an atomic access to live memory, not a race.
//
// Replay oracle (test builds only, with FLOCK_CHAOS): Definition 1 says
// any number of runs of a thunk from one log look like one run. Each
// descriptor records where its first completed run ended — the log slots
// it consumed and the thunk's result — and every later run (a helper's,
// a late one, a resumed killed owner's, the owner replay in lock.hpp)
// must end at the same place, or the process aborts with
// "[flock] replay diverged". A thunk that branches on something its log
// does not hold (a raw read, a clock, a random number, a static) or that
// returns a different result is caught on its first replay.
#pragma once

#include <atomic>
#include <cstdint>
#ifdef FLOCK_CHAOS
#include <cstdio>
#include <cstdlib>
#endif

#include "allocator.hpp"
#include "config.hpp"
#include "epoch.hpp"
#include "log.hpp"
#include "stats.hpp"
#include "thread_context.hpp"
#include "threading.hpp"
#include "thunk.hpp"

namespace flock {

#ifdef FLOCK_CHAOS
namespace detail {

[[noreturn, gnu::cold, gnu::noinline]] inline void replay_diverged(
    const void* d, uint32_t first, uint32_t now) {
  std::fprintf(stderr,
               "[flock] replay diverged: descriptor %p's first run ended "
               "after %u log slots returning %u, this run after %u "
               "returning %u\n",
               d, first >> 2, first >> 1 & 1, now >> 2, now >> 1 & 1);
  std::abort();
}

}  // namespace detail
#endif

struct descriptor {
  log_block head;                   // first log block, embedded
  std::atomic<bool> done{false};    // update-once; loads of it are logged
  std::atomic<bool> helped{false};  // §6 reuse optimization (see lock.hpp)
#ifdef FLOCK_CHAOS
  // Replay oracle (see the header): the first completed run's end,
  // `slots << 2 | result << 1 | 1`; 0 until a run completes.
  std::atomic<uint32_t> first_run{0};
#endif
  // Creator's announced epoch. Atomic because help() reads it from a
  // descriptor that may already be recycled and re-stamped (see the
  // invariant above); relaxed on both sides, see new_descriptor_ctx.
  std::atomic<int64_t> epoch{-1};
  // Nested try_lock only: the lock word its install CAS expects. The run
  // that builds the candidate writes it before committing the candidate's
  // pointer, so every run that adopts the pointer reads the same word (the
  // commit's release/acquire orders it).
  uint64_t expected = 0;
  thunk fn;
#ifdef FLOCK_CHAOS
  // Lock-API misuse guards (lock.hpp): the descriptor whose thunk was
  // running when this one was created — the lock-holding chain for the
  // non-holder unlock check. Helpers replaying a nested acquisition
  // create loser candidates with their own parent, but only the
  // first-committed descriptor survives, so the chain reflects the
  // original nesting. A never-helped chain, nested parents included, is
  // recycled as a whole right after its top-level unlock, so parent
  // pointers go stale as soon as the top-level acquisition returns, and
  // a recycled parent is re-stamped by its next owner: atomic, so a
  // helper's walk that reaches it reads type-stable memory and can only
  // fail to match or pass spuriously.
  std::atomic<const descriptor*> dbg_parent{nullptr};
#endif
  // Owner-private link: of the deferred nested-retire list (lock.hpp,
  // retire_nested) while in use, of the spare list once recycled.
  descriptor* deferred_next = nullptr;

  descriptor() = default;
  descriptor(const descriptor&) = delete;
  descriptor& operator=(const descriptor&) = delete;
  ~descriptor() = delete;  // type-stable: released by recycle(), never freed

  /// Alg. 2 `run`: install this descriptor's log as the thread's current
  /// log, run the thunk, restore the previous log (supports nesting). Test
  /// builds check the run against the first one (check_run).
  bool run(detail::thread_context* c) {
    log_cursor saved = c->log;
    c->log = {&head, 0};
#ifdef FLOCK_CHAOS
    c->dbg_run_push(this);
#endif
    bool result = fn();
#ifdef FLOCK_CHAOS
    c->dbg_run_depth--;
    check_run(c, result);
#endif
    c->log = saved;
    return result;
  }

  bool run() { return run(detail::my_ctx()); }

#ifdef FLOCK_CHAOS
  /// Replay oracle: compare the run ending at cursor c->log with result
  /// `result` against the first completed run, recording it if none is.
  void check_run(detail::thread_context* c, bool result) {
    uint32_t slots = static_cast<uint32_t>(c->log.pos);
    // mo: relaxed — this run already walked (and acquired) every block up
    // to its cursor.
    for (const log_block* b = &head; b != c->log.block;
         b = b->next.load(std::memory_order_relaxed))
      slots += kLogBlockEntries;
    const uint32_t now = slots << 2 | uint32_t{result} << 1 | 1;
    uint32_t first = 0;
    // mo: relaxed — only the value is compared; it orders nothing.
    if (!first_run.compare_exchange_strong(first, now,
                                           std::memory_order_relaxed) &&
        first != now)
      detail::replay_diverged(this, first, now);
  }
#endif
};
static_assert(sizeof(descriptor) == 3 * kCacheLine,
              "a descriptor is three cache lines: log, flags, thunk");

namespace detail {

/// Carve a fresh descriptor from the pool: the only place one is
/// constructed. Aborts when the pool cannot supply one (allocator.hpp's
/// failure contract). Out of line: a thread carves only until its spare
/// list covers its peak of live descriptors.
[[gnu::noinline]] inline descriptor* carve_descriptor(thread_context* c) {
  descriptor* d = pool_new_ctx<descriptor>(c);
  if (d == nullptr) [[unlikely]]
    out_of_memory("descriptor");
  return d;
}

/// Build a descriptor for thunk `f`, stamped with the creator's epoch:
/// the one place a descriptor is taken, from the thread's spare list or,
/// when that is empty, carved fresh.
template <class F>
descriptor* new_descriptor_ctx(thread_context* c, F&& f) {
  stat_add(c->stat.descriptors_created);
  descriptor* d = c->spare;
  if (d != nullptr) [[likely]]
    c->spare = d->deferred_next;
  else
    d = carve_descriptor(c);
  ++c->descriptors_live;
  d->fn.emplace(std::forward<F>(f));
#ifdef FLOCK_CHAOS
  // mo: relaxed — see dbg_parent.
  d->dbg_parent.store(
      c->dbg_run_depth > 0 && c->dbg_run_depth <= thread_context::kDbgRunDepth
          ? static_cast<const descriptor*>(
                c->dbg_run_stack[c->dbg_run_depth - 1])
          : nullptr,
      std::memory_order_relaxed);
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

/// The one release of a descriptor (see the header): reset it in place
/// and push it on the calling thread's spare list. The caller guarantees
/// that no run of d's thunk can still start or be in progress: d was
/// never published, or the §6 hand-off or the epoch says so.
inline void recycle(thread_context* c, descriptor* d) {
  // The recycling thread may not be the one that linked an overflow
  // block, so it must see the block's contents before freeing it.
  // mo: acquire (both loads) — pairs with the acq_rel append CAS in
  // log.hpp's log_advance.
  log_block* b = d->head.next.load(std::memory_order_acquire);
  while (b != nullptr) {
    log_block* nxt = b->next.load(std::memory_order_acquire);  // mo: ditto
    pool_delete_ctx(c, b);
    b = nxt;
  }
  // Runs fill slots in order, so the committed ones are a prefix.
  for (log_entry& e : d->head.entries) {
    // mo: relaxed — no run of d is left (see above); a past run's slot
    // stores happen-before this through the hand-off or the epoch.
    if (e.v.load(std::memory_order_relaxed) == kLogEmpty) break;
    // mo: relaxed (all resets) — stale readers discard what they read
    // (the invariant in the header), and the next owner publishes the
    // reset state with the CAS or log commit that hands d to anyone else.
    e.v.store(kLogEmpty, std::memory_order_relaxed);
  }
  d->head.next.store(nullptr, std::memory_order_relaxed);  // mo: ditto
  d->done.store(false, std::memory_order_relaxed);         // mo: ditto
  d->helped.store(false, std::memory_order_relaxed);       // mo: ditto
#ifdef FLOCK_CHAOS
  d->first_run.store(0, std::memory_order_relaxed);        // mo: ditto
#endif
  d->fn.clear();
  d->deferred_next = c->spare;
  c->spare = d;
  --c->descriptors_live;
}

/// Epoch-deferred recycle of a descriptor a helper may still be running.
inline void epoch_recycle_ctx(thread_context* c, descriptor* d) {
  g_epoch.retire_ctx(c, d, [](void* p) {
    recycle(my_ctx(), static_cast<descriptor*>(p));
  });
}

/// Commit this run's candidate (null allowed) to the enclosing log and
/// adopt whatever the slot holds: the first run to commit wins, losers
/// recycle theirs (they were never published).
inline descriptor* commit_descriptor_ctx(thread_context* c,
                                         descriptor* mine) {
  auto [committed, first] =
      commit_raw_ctx(c, reinterpret_cast<uint64_t>(mine));
  if (first) return mine;
  if (mine != nullptr) recycle(c, mine);
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

/// Release a create_descriptor'd descriptor that no thread is running.
inline void recycle(descriptor* d) { detail::recycle(detail::my_ctx(), d); }

/// Descriptors taken and not yet recycled, across all threads: the live
/// count that leak audits compare (exact at quiescence). Recycled
/// descriptors stay carved, so pool_outstanding<descriptor>() counts
/// every descriptor carved so far instead.
inline long long descriptors_live() {
  long long n = 0;
  const int bound = thread_id_bound();
  for (int i = 0; i < bound; i++) n += detail::g_ctx[i].descriptors_live;
  return n;
}

}  // namespace flock
