// lock.hpp — lock-free try-locks and strict locks (paper §4, Algorithm 3)
// plus the blocking (test-and-test-and-set) mode selected at runtime (§7).
//
// A lock is one compact mutable word holding (descriptor pointer | locked
// bit). In lock-free mode, try_lock either installs a descriptor and runs
// it, or helps whoever is installed and returns false. Anyone may run a
// descriptor at any time; idempotence (descriptor log) makes that safe.
//
// Hot-path structure: try_lock/strict_lock perform exactly one runtime
// mode dispatch at entry — is_blocking() picks the blocking or the helping
// path — then run with the thread context in a register. No TLS lookups
// and no shared-flag loads happen inside the loops.
//
// Log-slot discipline (this is what keeps nested locks correct): every run
// of an enclosing thunk must consume the *same* log slots in the same
// order. A nested try_lock consumes two, on every branch:
//   1. the candidate descriptor, or null when the run read the lock held.
//      The candidate carries the lock word its install CAS expects
//      (descriptor::expected), written before the commit, so every run
//      installs from the one committed word;
//   2. the outcome `word == d|locked || d->done`, read after the install
//      CAS (skipped when slot 1 holds null). Its first committer owns d's
//      retire (retire_nested), so exactly one run retires d.
// A nested strict_lock commits its descriptor once, then per iteration
// the lock word and, when that word was free, the outcome. Helping and
// unlocking consume NO enclosing slots: they use raw effects-once CASes,
// which are inherently idempotent because the lock word's tag is
// monotonic while any stale referencer exists (descriptor reuse is
// epoch-gated, see retire paths below). The same monotonic tag makes a
// late run's install CAS from the committed word fail once the word has
// moved on, so a replay cannot re-install a released descriptor.
//
// Compare-and-compare-and-swap (§6 "Avoiding CASes"): log commits and
// lock-word CASes re-read their word and skip a CAS that would fail. The
// blocking CASes and the top-level install CASes, whose expected word was
// read just before, skip that re-read (precheck = false).
//
// helped/reuse hand-off (§6 "This requires some careful synchronization"):
//   helper:  helped.store(true) [seq_cst]; re-read lock word [seq_cst] ==
//            installed value? run : abort.
//   owner:   unlock (CAS or observing read, both seq_cst); read helped
//            [seq_cst].
// All four accesses are seq_cst, so they have a total order S. Suppose the
// owner's helped-read misses the helper's store AND the helper's re-read
// misses the unlock: then owner-unlock <S owner-helped-read <S
// helper-helped-store <S helper-re-read <S owner-unlock — a cycle. Hence
// either the owner sees helped==true (and epoch-retires), or the helper
// sees the word moved on (and never touches the descriptor). Lock-word
// writes are all seq_cst RMWs, so a later-in-S read cannot observe an
// earlier value; the word's tag is monotonic while any stale referencer
// exists, so "moved on" is observable. A helper that loses this race
// holds a stale pointer to a descriptor the owner recycles at once;
// descriptor memory is type-stable, so its later accesses to `done`,
// `helped` and `epoch` are atomic accesses to a live (recycled)
// descriptor, and it acts on none of them before the revalidation fails
// (the invariant in descriptor.hpp). This replaces the previous
// fence-based pairing: seq_cst loads cost nothing extra on x86, which
// deletes one full barrier from every uncontended acquisition (the
// retire-side fence) — the helper side pays the xchg, but helping is the
// cold path.
//
// Contention policy (when we spin, when we help — help_throttled below):
// a lock-free waiter that observes a held lock no longer helps
// immediately. Immediate helping has the right asymptotics but the wrong
// constants: every waiter piles onto the installed descriptor, so the
// holder's thunk is run redundantly by all of them, and their log-slot
// CASes, helped-flag xchgs, and lock-word CASes all collide on the same
// cache lines — the classic helping storm. Instead a waiter spins locally
// on raw reads of the lock word with randomized bounded exponential
// backoff (backoff.hpp), and converts to a helper only when one of two
// things happens:
//
//   * the backoff budget (kHelpDelay rounds) is exhausted while the
//     word has not moved — the holder may be descheduled mid-thunk, so we
//     help to guarantee progress; or
//   * the holder's descriptor has done == true while the lock is still
//     held — the holder finished its thunk but stalled before its unlock
//     CAS, so helping costs one CAS and releases the lock for everyone
//     (we skip the remaining backoff for this).
//
// If the word moves on while we spin, somebody made progress and no help
// was ever needed (the helps_avoided stat counts these). Lock-freedom is
// preserved because helping is delayed by a *bounded* number of the
// waiter's own steps, never skipped: the system-wide progress argument of
// §4 only needs some thread to run the installed descriptor eventually,
// and every waiter still does so after at most kHelpDelay rounds.
//
// Descriptor churn: top-level acquisitions (no enclosing thunk, the common
// case — nesting happens inside thunks) run lean specializations that
// branch on raw reads and the install CAS's own result instead of the
// logged load/commit dance (which passes through at top level anyway, but
// not for free), and re-validate the lock word after descriptor creation —
// the long pole between the entry read and the install CAS — so an install
// race costs a recycle instead of a doomed tag-bump CAS plus logged
// reloads. Nested acquisitions keep the two-slot deterministic structure
// above, since there every branch must consume identical log slots across
// runs; they run out of line, so a call site's inlined code is the
// top-level and blocking paths only.
//
// The §6 reuse shortcut covers every nesting depth. When this thread runs
// its own top-level descriptor (owner_run in the thread context), the run
// of the enclosing thunk that first commits a nested acquisition's outcome
// (retire_nested) parks its descriptor on the thread's deferred list
// instead of epoch-retiring it. Other threads reach a nested descriptor in
// two ways only: through its own lock word, covered by its own helped flag
// and the hand-off above; and through the logs of its ancestors, which
// only helpers read — after setting that ancestor's helped flag. So after
// the top-level unlock, retire_installed_toplevel recycles the whole
// chain if the top-level descriptor and every deferred one read helped ==
// false, and epoch-retires all of them otherwise. Every nested descriptor
// was released (or never installed) before the run that owns it retires
// it, so each helped-read follows that descriptor's own unlock access in
// S, as the hand-off requires. help() clears owner_run while it runs
// someone else's descriptor, so that descriptor's nested retires go
// through the epoch.
//
// A killed owner — parked forever inside its top-level acquisition —
// therefore strands its top-level descriptor and its deferred list, plus
// the descriptor of each nested acquisition still in progress on its
// stack (no run of the parent has retired it yet).
// Everything else it touched is epoch-retired and pinned only by its
// announcement.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>

#ifdef FLOCK_CHAOS
#include <cstdio>
#include <cstdlib>
#endif

#include "backoff.hpp"
#include "chaos/faultpoint.hpp"
#include "config.hpp"
#include "descriptor.hpp"
#include "epoch.hpp"
#include "log.hpp"
#include "mutable.hpp"
#include "stats.hpp"

namespace flock {
namespace detail {

inline constexpr uint64_t kLockedBit = 1;

inline bool lv_locked(uint64_t val) { return (val & kLockedBit) != 0; }
inline descriptor* lv_descr(uint64_t val) {
  return reinterpret_cast<descriptor*>(val & ~kLockedBit);
}

using lock_word = mutable_<uint64_t>;

#ifdef FLOCK_CHAOS
// --- lock-API misuse guards (motivated by "Protecting Locks Against
// Unbalanced Unlock()"). Compiled with the fault points, so every test
// binary carries them and release builds carry nothing. Three checks:
// double release (unlock of an unheld lock), unlock by a non-holder, and
// a thread that exits inside a critical section (thread_context.hpp).
// Both modes track the thread's open sections on its bounded run stack
// (thread_context::dbg_run_stack): lock-free mode the descriptors whose
// thunks run, blocking mode the lock words of its sections. Past the
// tracked depth a lock that is not found may be held by an untracked
// section, so the checks stay silent there rather than guess.

[[noreturn]] inline void dbg_api_abort(const char* what) {
  std::fprintf(stderr, "[flock] lock API misuse: %s\n", what);
  std::abort();
}

inline int dbg_tracked_depth(const thread_context* c) {
  return c->dbg_run_depth < thread_context::kDbgRunDepth
             ? c->dbg_run_depth
             : thread_context::kDbgRunDepth;
}

/// Lock-free non-holder check against the *logged* lock word, so helper
/// replays of a thunk that early-unlocks judge the same (original) value
/// and pass. The holder descriptor must be reachable from some thunk
/// running on this thread, directly or through the dbg_parent creation
/// chain (hand-over-hand: the thunk of lock i+1 legitimately unlocks
/// lock i, its parent). Walks are bounded; descriptor memory is
/// type-stable (descriptor.hpp), so chasing a recycled parent pointer
/// reads a live descriptor and simply fails to match.
inline void dbg_check_unlock_helping(thread_context* c, uint64_t v) {
  if (!lv_locked(v))
    dbg_api_abort("unlock() of a lock that is not held (double release)");
  descriptor* h = lv_descr(v);
  const int depth = dbg_tracked_depth(c);
  for (int i = 0; i < depth; i++) {
    auto* e = static_cast<const descriptor*>(c->dbg_run_stack[i]);
    for (int d = 0; e != nullptr && d < 64; d++) {
      if (e == h) return;
      // mo: relaxed — the walk only compares pointers, and a recycled
      // parent may be re-stamped by its new owner meanwhile.
      e = e->dbg_parent.load(std::memory_order_relaxed);
    }
  }
  if (c->dbg_run_depth > thread_context::kDbgRunDepth) return;
  dbg_api_abort("unlock() by a thread whose thunk does not hold the lock");
}

/// Blocking non-holder and double-release check: clear this thread's
/// entry for the lock word; with none, the word tells which misuse it is.
inline void dbg_check_unlock_blocking(thread_context* c, const lock_word* st) {
  for (int i = dbg_tracked_depth(c) - 1; i >= 0; i--) {
    if (c->dbg_run_stack[i] == st) {
      c->dbg_run_stack[i] = nullptr;
      return;
    }
  }
  if (c->dbg_run_depth > thread_context::kDbgRunDepth) return;
  if (lv_locked(val_of(st->read_raw_packed())))
    dbg_api_abort("unlock() by a thread that does not hold the lock");
  dbg_api_abort("unlock() of a lock that is not held (double release)");
}

#define FLOCK_API_GUARD(stmt) stmt
#else
#define FLOCK_API_GUARD(stmt)
#endif

/// Effects-once unlock: flip (d|locked) -> (d|unlocked) if still current.
/// Raw (no enclosing log slots); the tag makes repeats harmless.
inline void raw_unlock(thread_context* c, lock_word& st, descriptor* d) {
  // seq_cst read: if the CAS is skipped because someone else already
  // unlocked, this read is the owner's hand-off access (see header).
  uint64_t p = st.read_raw_packed_sc();
  uint64_t lockedv = reinterpret_cast<uint64_t>(d) | kLockedBit;
  if (val_of(p) == lockedv)
    st.cas_raw_packed_ctx(c, p, reinterpret_cast<uint64_t>(d),
                          /*precheck=*/true);
}

#ifdef FLOCK_CHAOS
/// Owner replay, which feeds the replay oracle (descriptor.hpp): run a
/// top-level owner's thunk once more before its done store, as a helper
/// could, so every lock-free critical section in a test build runs at
/// least twice and check_run compares the runs. The nested acquisitions
/// it reaches adopt the first run's descriptors and replay their thunks
/// too. It leaves no trace: fault and sched points are inert while it
/// runs, so seeded plans and explored schedules do not see it, and the
/// thread's commit count, stat cells and backoff state are restored.
[[gnu::noinline]] inline void replay_owner(thread_context* c,
                                           descriptor* d) {
  const uint64_t commits = c->commit_count;
  const uint64_t rng = c->backoff_rng;
#define FLOCK_STAT_SAVE(name) stat_read(c->stat.name),
  const uint64_t cells[] = {FLOCK_THREAD_STATS(FLOCK_STAT_SAVE)};
#undef FLOCK_STAT_SAVE
  flock_chaos::detail::tl_inert = true;
  d->run(c);
  flock_chaos::detail::tl_inert = false;
  c->commit_count = commits;
  c->backoff_rng = rng;
  const uint64_t* cell = cells;
  // mo: relaxed — the owner's own stat cells, as in stat_add.
#define FLOCK_STAT_RESTORE(name) \
  c->stat.name.store(*cell++, std::memory_order_relaxed);
  FLOCK_THREAD_STATS(FLOCK_STAT_RESTORE)
#undef FLOCK_STAT_RESTORE
}
#endif

/// Run the descriptor's thunk (idempotently), mark done, release the lock.
inline bool run_and_unlock(thread_context* c, lock_word& st, descriptor* d) {
  bool result = d->run(c);
#ifdef FLOCK_CHAOS
  if (c->owner_run && c->log.block == nullptr) replay_owner(c, d);
#endif
  // mo: release — publishes the thunk's effects (and its committed log
  // entries) to the acquire done-reads in help_throttled and the nested
  // acquisition paths.
  d->done.store(true, std::memory_order_release);
  // Chaos window: done published, unlock CAS pending — the finish-line
  // stall that help_throttled's done-but-locked signal targets.
  FLOCK_FAULTPOINT(lock_handoff_pre_unlock);
  raw_unlock(c, st, d);
  return result;
}

/// Help the descriptor currently installed on `st` (Alg. 3 lines 24/26).
/// `cur_packed` is the packed word under which the caller saw it locked.
/// Consumes no enclosing log slots.
inline void help(thread_context* c, lock_word& st, uint64_t cur_packed) {
  descriptor* d = lv_descr(val_of(cur_packed));
  stat_add(c->stat.helps_attempted);
  d->helped.store(true, std::memory_order_seq_cst);  // hand-off (see header)
  // Adopt the descriptor's epoch before validating: if the validation
  // passes, the creator was still announced at d->epoch when we re-read,
  // so everything the thunk can reach is protected from then on by *our*
  // lowered announcement (see epoch.hpp).
  // mo: relaxed — the acquire read of the lock word that named d orders
  // the creator's stamp; a recycled d's stamp is discarded when the
  // revalidation below fails.
  int64_t prev =
      g_epoch.adopt_ctx(c, d->epoch.load(std::memory_order_relaxed));
  if (st.read_raw_packed_sc() == cur_packed) {
    stat_add(c->stat.helps_run);
    // Chaos window: helper validated and adopted, about to run the thunk
    // (a dead helper here must not wedge anyone — others revalidate and
    // run the same descriptor).
    FLOCK_FAULTPOINT(lock_help_pre_run);
    // Not our chain: its nested retires must not join our deferred list.
    bool owner_run = c->owner_run;
    c->owner_run = false;
    run_and_unlock(c, st, d);
    c->owner_run = owner_run;
  }
  g_epoch.restore_ctx(c, prev);
}

/// Throttled help (contention policy, see header comment): spin locally
/// with randomized bounded exponential backoff before converting to a
/// helper. Consumes no enclosing log slots (raw reads and pauses only),
/// so it is safe on both the top-level and the nested paths. Returns true
/// if we helped, false if progress elsewhere made helping unnecessary.
inline bool help_throttled(thread_context* c, lock_word& st,
                           uint64_t cur_packed) {
  // d may already be recycled (§6 reuse needs no epoch wait): a bogus
  // done bit only means helping "early", and help() revalidates the lock
  // word before running anything (the invariant in descriptor.hpp).
  descriptor* d = lv_descr(val_of(cur_packed));
  // Stall signal #1: the holder finished its thunk but has not released
  // (descheduled between its done-store and its unlock CAS). Only the
  // unlock CAS remains, so help immediately — it is nearly free and
  // releases the lock for every waiter.
  // mo: acquire — pairs with the release done-store in run_and_unlock;
  // seeing done=true implies the thunk's effects are visible before we
  // act on the finished state.
  if (!d->done.load(std::memory_order_acquire)) {
    backoff bo(c);
    while (!bo.exhausted()) {
      bo.spin();
      // Yield point between a round and its re-check. Named outside
      // "lock." so the lock-protocol schedule filters do not branch at
      // every round.
      FLOCK_SCHEDPOINT(backoff_round);
      // Local spinning re-checks with a relaxed raw read: a stale value
      // merely costs one more round, and the decision to help revalidates
      // with the seq_cst protocol inside help().
      if (st.read_raw_packed_relaxed() != cur_packed) {
        // The word moved on: the holder (or another helper) made
        // progress, so our help is no longer needed.
        stat_add(c->stat.helps_avoided);
        return false;
      }
      // mo: acquire — same pairing as the entry done-read above.
      if (d->done.load(std::memory_order_acquire)) break;
    }
    // Stall signal #2: the word did not move for the whole budget — the
    // holder may be descheduled mid-thunk. Fall through and help.
  }
  help(c, st, cur_packed);
  return true;
}

/// Retire a descriptor created by a NESTED acquisition (top-level
/// acquisitions use retire_installed_toplevel below). Called only by the
/// run of the enclosing thunk that first committed the acquisition's
/// outcome, after that run released d if d was installed, so exactly one
/// run retires it; replays of the enclosing thunk can still reach it
/// through the log, and stale runs of an installed descriptor may still
/// hold the pointer. It is deferred to the enclosing top-level acquisition
/// when this is the owner's run (see header), and epoch-retired otherwise.
inline void retire_nested(thread_context* c, descriptor* d) {
  if (c->owner_run) {
    d->deferred_next = c->deferred;
    c->deferred = d;
  } else {
    epoch_recycle_ctx(c, d);
  }
}

// --- lock-free (helping) mode ---------------------------------------------

/// Recycle a never-helped descriptor now (§6 reuse), a helped one after
/// the epoch.
inline void retire_judged(thread_context* c, descriptor* d, bool helped) {
  if (!helped) {
    stat_add(c->stat.descriptors_reused);
    recycle(c, d);
  } else {
    epoch_recycle_ctx(c, d);
  }
}

/// The deferred chain's half of retire_installed_toplevel: one helped
/// descriptor sends the whole chain through the epoch (see header). Out of
/// line, so a lock that nests nothing keeps a small inlined retire path.
[[gnu::noinline]] inline void retire_deferred_chain(thread_context* c,
                                                    descriptor* d,
                                                    bool helped) {
  descriptor* chain = c->deferred;
  c->deferred = nullptr;
  for (descriptor* n = chain; n != nullptr && !helped; n = n->deferred_next)
    helped = n->helped.load(std::memory_order_seq_cst);  // hand-off read
  while (chain != nullptr) {
    descriptor* next = chain->deferred_next;
    retire_judged(c, chain, helped);
    chain = next;
  }
  retire_judged(c, d, helped);
}

/// Top-level retire of a descriptor this thread installed and ran, and of
/// the nested descriptors its run deferred: the §6 reuse optimization
/// without the logged commit (nothing to keep deterministic outside a
/// thunk).
inline void retire_installed_toplevel(thread_context* c, descriptor* d) {
  bool helped = d->helped.load(std::memory_order_seq_cst);
  if (c->deferred != nullptr)
    retire_deferred_chain(c, d, helped);
  else
    retire_judged(c, d, helped);
}

/// Run a descriptor this thread just installed at top level, as its owner,
/// then retire it with its deferred chain.
inline bool run_owned_toplevel(thread_context* c, lock_word& st,
                               descriptor* d) {
  c->owner_run = true;
  bool result = run_and_unlock(c, st, d);
  c->owner_run = false;
  retire_installed_toplevel(c, d);
  return result;
}

/// Top-level try_lock: no enclosing log, so nothing here must stay
/// deterministic across runs — branch on raw reads and on the install
/// CAS's own result, and keep a lost race to one recycle (see header).
template <class F>
bool try_lock_helping_toplevel(thread_context* c, lock_word& st, F&& f) {
  uint64_t cur = st.read_raw_packed();
  if (lv_locked(val_of(cur))) {
    help_throttled(c, st, cur);
    return false;
  }
  descriptor* d = new_descriptor_ctx(c, std::forward<F>(f));
  uint64_t minev = reinterpret_cast<uint64_t>(d) | kLockedBit;
  // Re-validate after descriptor creation — the long pole between the
  // entry read and the install CAS, where install races concentrate.
  // Re-reading also refreshes the expected word, so a tag bumped by an
  // intervening lock/unlock pair does not fail our install.
  cur = st.read_raw_packed();
  if (lv_locked(val_of(cur))) {
    recycle(c, d);  // never published
    help_throttled(c, st, cur);
    return false;
  }
  // No pre-check: we just read the word.
  if (!st.cas_raw_packed_ctx(c, cur, minev, /*precheck=*/false)) {
    recycle(c, d);  // never published
    uint64_t fresh = st.read_raw_packed();
    if (lv_locked(val_of(fresh))) help_throttled(c, st, fresh);
    return false;
  }
  // Chaos window: descriptor installed, thunk not yet run — the paper's
  // dead-holder scenario (a kill here parks holding the lock; helpers
  // must finish the critical section).
  FLOCK_FAULTPOINT(lock_install_post);
  return run_owned_toplevel(c, st, d);
}

/// A nested install attempt of `d` from the packed word `expected`, which
/// every run of the enclosing thunk must pass identically. Consumes one
/// log slot: the outcome, true if d holds or held the lock. An attempt that
/// lost helps whoever holds the lock now. Returns the outcome and whether
/// this run committed it first.
inline std::pair<bool, bool> install_nested(thread_context* c, lock_word& st,
                                            descriptor* d,
                                            uint64_t expected) {
  uint64_t minev = reinterpret_cast<uint64_t>(d) | kLockedBit;
  st.cas_raw_packed_ctx(c, expected, minev,
                        /*precheck=*/true);  // install CAM: effects-once
  // Chaos window (nested): install CAM issued, acquisition not yet
  // judged. Consumes no log slots, so replays may legally diverge here.
  FLOCK_FAULTPOINT(lock_install_post);
  // The word first, then done: a word that moved off d|locked was released
  // by d's unlock, which follows d's done store. If this run's CAS failed,
  // the word had left `expected` and can never return to it (monotonic
  // tag), so an outcome of false means d is never installed.
  uint64_t nowv = val_of(st.read_raw_packed());
  // mo: acquire — pairs with run_and_unlock's release, so an adopted
  // "acquired" implies the thunk's effects of any finished run.
  bool won = nowv == minev || d->done.load(std::memory_order_acquire);
  auto [acquired, first] = commit_raw_ctx(c, won);
  if (acquired == 0 && lv_locked(nowv)) {
    // Help whoever holds the lock *now*; a fresh read keeps the helped
    // descriptor current, and help() revalidates before running.
    uint64_t fresh = st.read_raw_packed();
    if (lv_locked(val_of(fresh))) help_throttled(c, st, fresh);
  }
  return {acquired != 0, first};
}

/// Nested try_lock: two slots of the enclosing log (see header). Helping
/// is throttled here too — backoff spins consume no log slots, so replays
/// may legally spin different amounts. Out of line, so the top-level and
/// blocking paths stay the only code inlined at a try_lock call site.
template <class F>
[[gnu::noinline]] bool try_lock_helping_nested(thread_context* c,
                                               lock_word& st, F&& f) {
  uint64_t cur = st.read_raw_packed();
  descriptor* mine = nullptr;
  if (!lv_locked(val_of(cur))) {
    mine = new_descriptor_ctx(c, std::forward<F>(f));
    mine->expected = cur;
  }
  descriptor* d = commit_descriptor_ctx(c, mine);  // slot 1
  if (d == nullptr) {  // some run read the lock held
    if (lv_locked(val_of(cur))) help_throttled(c, st, cur);
    return false;
  }
  auto [acquired, first] = install_nested(c, st, d, d->expected);  // slot 2
  bool result = acquired && run_and_unlock(c, st, d);
  if (first) retire_nested(c, d);
  return result;
}

template <class F>
bool try_lock_helping(thread_context* c, lock_word& st, F&& f) {
  if (c->log.block == nullptr)
    return try_lock_helping_toplevel(c, st, std::forward<F>(f));
  return try_lock_helping_nested(c, st, std::forward<F>(f));
}

/// Nested strict_lock: one slot for the descriptor, then per iteration one
/// for the lock word and, when that was free, one for the outcome. All
/// logged values are identical across runs, so every run executes the same
/// iterations (backoff spins inside help_throttled consume no log slots
/// and may differ freely).
template <class F>
[[gnu::noinline]] bool strict_lock_helping_nested(thread_context* c,
                                                  lock_word& st, F&& f) {
  descriptor* d = create_descriptor_ctx(c, std::forward<F>(f));
  while (true) {
    uint64_t cur = st.load_packed_ctx(c);  // logged
    if (lv_locked(val_of(cur))) {
      help_throttled(c, st, cur);
      continue;
    }
    auto [acquired, first] = install_nested(c, st, d, cur);
    if (acquired) {
      bool result = run_and_unlock(c, st, d);
      if (first) retire_nested(c, d);
      return result;
    }
  }
}

template <class F>
bool strict_lock_helping(thread_context* c, lock_word& st, F&& f) {
  if (c->log.block != nullptr)
    return strict_lock_helping_nested(c, st, std::forward<F>(f));
  // §4: "by first creating the descriptor, and then putting the attempt to
  // acquire a lock into a while loop". The descriptor is created once,
  // outside the loop, so retries take no fresh descriptor. Top level:
  // raw reads and the install CAS's own result (nothing to keep
  // deterministic), with throttled helping while the lock is held.
  descriptor* d = new_descriptor_ctx(c, std::forward<F>(f));
  uint64_t minev = reinterpret_cast<uint64_t>(d) | kLockedBit;
  while (true) {
    uint64_t cur = st.read_raw_packed();
    if (!lv_locked(val_of(cur))) {
      if (st.cas_raw_packed_ctx(c, cur, minev, /*precheck=*/false)) {
        FLOCK_FAULTPOINT(lock_install_post);
        return run_owned_toplevel(c, st, d);
      }
    } else {
      help_throttled(c, st, cur);
    }
  }
}

// --- blocking (test-and-test-and-set) mode ---------------------------------
//
// The blocking CASes skip the compare-and-compare-and-swap pre-check: the
// caller just read the word, so a second read before the CAS is pure
// overhead here.

/// Run a blocking critical section on a lock this thread just took by
/// installing `held`, then release it: clear the lock word only if it
/// still holds `held`. The section may have released the lock early
/// (hand-over-hand) and another thread re-acquired it since; an
/// unconditional store would release that holder's lock. The holder is
/// the only writer of a held word, so a load and a compare suffice, with
/// no CAS.
template <class F>
bool run_blocking([[maybe_unused]] thread_context* c, lock_word& st,
                  uint64_t held, F&& f) {
  FLOCK_API_GUARD(c->dbg_run_push(&st));
  bool result = f();
  FLOCK_API_GUARD(c->dbg_run_depth--);
  if (st.read_raw_packed() == held) st.store_raw(0);
  return result;
}

template <class F>
bool try_lock_blocking(thread_context* c, lock_word& st, F&& f) {
  uint64_t p = st.read_raw_packed();
  if (lv_locked(val_of(p))) return false;
  uint64_t held = st.next_packed(p, kLockedBit);
  if (!st.cas_packed_ctx(c, p, held, /*precheck=*/false)) return false;
  return run_blocking(c, st, held, std::forward<F>(f));
}

template <class F>
bool strict_lock_blocking(thread_context* c, lock_word& st, F&& f) {
  backoff bo(c);  // shared randomized-exponential helper (backoff.hpp)
  while (true) {
    uint64_t p = st.read_raw_packed();
    if (!lv_locked(val_of(p))) {
      uint64_t held = st.next_packed(p, kLockedBit);
      if (st.cas_packed_ctx(c, p, held, /*precheck=*/false))
        return run_blocking(c, st, held, std::forward<F>(f));
    } else {
      bo.spin();
    }
  }
}

}  // namespace detail

/// A Flock lock. One word; zero-initialized means unlocked.
class lock {
 public:
  lock() = default;
  lock(const lock&) = delete;
  lock& operator=(const lock&) = delete;

  /// Acquire-run-release if free; otherwise (lock-free mode) help the
  /// current holder and return false (Alg. 3 tryLock). The thunk must
  /// capture by value and is run idempotently in lock-free mode.
  /// Mode is resolved exactly once, here.
  template <class F>
  bool try_lock(F&& f) {
    detail::thread_context* c = detail::my_ctx();
    if (is_blocking())
      return detail::try_lock_blocking(c, state_, std::forward<F>(f));
    return detail::try_lock_helping(c, state_, std::forward<F>(f));
  }

  /// Strict lock: loops (helping in lock-free mode) until acquired.
  template <class F>
  bool strict_lock(F&& f) {
    detail::thread_context* c = detail::my_ctx();
    if (is_blocking())
      return detail::strict_lock_blocking(c, state_, std::forward<F>(f));
    return detail::strict_lock_helping(c, state_, std::forward<F>(f));
  }

  /// Early release (§4): undefined unless the calling thread('s thunk)
  /// holds the lock. Enables hand-over-hand locking.
  void unlock() {
    detail::thread_context* c = detail::my_ctx();
    if (is_blocking()) {
      FLOCK_API_GUARD(detail::dbg_check_unlock_blocking(c, &state_));
      state_.store_raw(0);
      return;
    }
    unlock_helping(c);
  }

  bool is_locked() const {
    return detail::lv_locked(val_of(state_.read_raw_packed()));
  }

 private:
  void unlock_helping(detail::thread_context* c) {
    uint64_t cur = state_.load_packed_ctx(c);  // logged
    FLOCK_API_GUARD(detail::dbg_check_unlock_helping(c, val_of(cur)));
    if (detail::lv_locked(val_of(cur)))
      state_.cas_raw_packed_ctx(c, cur, val_of(cur) & ~detail::kLockedBit,
                                /*precheck=*/true);
  }

  detail::lock_word state_;
};

/// Free-function spellings matching the paper's examples.
template <class F>
bool try_lock(lock& l, F&& f) {
  return l.try_lock(std::forward<F>(f));
}
template <class F>
bool strict_lock(lock& l, F&& f) {
  return l.strict_lock(std::forward<F>(f));
}
inline void unlock(lock& l) { l.unlock(); }

/// The containers' one lock policy: a Strict container waits for the lock
/// (strict_lock), any other tries once (try_lock).
template <bool Strict, class F>
bool acquire(lock& l, F&& f) {
  if constexpr (Strict)
    return l.strict_lock(std::forward<F>(f));
  else
    return l.try_lock(std::forward<F>(f));
}

}  // namespace flock
