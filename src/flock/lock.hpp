// lock.hpp — lock-free try-locks and strict locks (paper §4, Algorithm 3)
// plus the blocking (test-and-test-and-set) mode selected at runtime (§7).
//
// A lock is one compact mutable word holding (descriptor pointer | locked
// bit). In lock-free mode, try_lock either installs a descriptor and runs
// it, or helps whoever is installed and returns false. Anyone may run a
// descriptor at any time; idempotence (descriptor log) makes that safe.
//
// Hot-path structure: try_lock/strict_lock perform exactly one runtime
// mode dispatch at entry — is_blocking() picks the blocking path, and the
// helping path is instantiated for each value of the ccas flag — then run
// with the thread context in a register and every mode choice a
// compile-time constant. No TLS lookups and no shared-flag loads happen
// inside the loops.
//
// Log-slot discipline (this is what keeps nested locks correct): every run
// of an enclosing thunk must consume the *same* log slots in the same
// order. The deterministic prefix of try_lock — logged state load,
// idempotent descriptor allocation, logged re-load, logged done-load, and
// the branch-dependent (but branch-deterministic) retire commit — does.
// Helping and unlocking consume NO enclosing slots: they use raw
// effects-once CASes, which are inherently idempotent because the lock
// word's tag is monotonic while any stale referencer exists (descriptor
// reuse is epoch-gated, see retire paths below).
//
// The ccas flag is resolved once per acquisition, so a concurrent
// set_ccas() may race with in-flight operations running the other
// specialization; that is harmless — both commit protocols agree on the
// log-slot contents, ccas only elides CASes that would fail.
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
// exists, so "moved on" is observable. This replaces the previous
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
//   * the backoff budget (FLOCK_HELP_DELAY rounds) is exhausted while the
//     word has not moved — the holder may be descheduled mid-thunk, so we
//     help to guarantee progress; or
//   * the holder's descriptor has done == true while the lock is still
//     held — the holder finished its thunk but stalled before its unlock
//     CAS, so helping costs one CAS and releases the lock for everyone
//     (we skip the remaining backoff for this).
//
// If the word moves on while we spin, somebody made progress and no help
// was ever needed (stat_helps_avoided counts these). Lock-freedom is
// preserved because helping is delayed by a *bounded* number of the
// waiter's own steps, never skipped: the system-wide progress argument of
// §4 only needs some thread to run the installed descriptor eventually,
// and every waiter still does so after at most help_delay rounds.
//
// Descriptor churn: top-level acquisitions (no enclosing thunk, the common
// case — nesting happens inside thunks) run lean specializations that
// branch on raw reads and the install CAS's own result instead of the
// logged load/commit dance (which passes through at top level anyway, but
// not for free), and re-validate the lock word after descriptor creation —
// the long pole between the entry read and the install CAS — so an install
// race costs a pool push instead of a doomed tag-bump CAS plus logged
// reloads. Nested acquisitions keep the fully logged deterministic
// structure, since there every branch must consume identical log slots
// across runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>

#ifdef FLOCK_DEBUG_API
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <unordered_map>
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

#ifdef FLOCK_DEBUG_API
// --- lock-API misuse guards (satellite of the schedule-explorer PR;
// motivated by "Protecting Locks Against Unbalanced Unlock()"). Compiled
// only under FLOCK_DEBUG_API, so release builds carry zero cost. Three
// checks: double release (unlock of an unheld lock), unlock by a
// non-holder, and leaked locks at thread exit (thread_context.hpp).

[[noreturn]] inline void dbg_api_abort(const char* what) {
  std::fprintf(stderr, "[flock] FLOCK_DEBUG_API violation: %s\n", what);
  std::abort();
}

/// Lock-free non-holder check against the *logged* lock word, so helper
/// replays of a thunk that early-unlocks judge the same (original) value
/// and pass. The holder descriptor must be reachable from some thunk
/// running on this thread, directly or through the dbg_parent creation
/// chain (hand-over-hand: the thunk of lock i+1 legitimately unlocks
/// lock i, its parent). Walks are bounded; descriptor storage is
/// slab-backed and never unmapped, so chasing a retired parent pointer
/// reads stale-but-mapped memory and simply fails to match.
inline void dbg_check_unlock_helping(thread_context* c, uint64_t v) {
  if (!lv_locked(v))
    dbg_api_abort("unlock() of a lock that is not held (double release)");
  descriptor* h = lv_descr(v);
  int depth = c->dbg_run_depth < thread_context::kDbgRunDepth
                  ? c->dbg_run_depth
                  : thread_context::kDbgRunDepth;
  for (int i = 0; i < depth; i++) {
    descriptor* e = static_cast<descriptor*>(c->dbg_run_stack[i]);
    for (int d = 0; e != nullptr && d < 64; d++, e = e->dbg_parent)
      if (e == h) return;
  }
  dbg_api_abort("unlock() by a thread whose thunk does not hold the lock");
}

/// Blocking mode has no descriptor to identify the holder, so holders are
/// tracked in a debug-only side table keyed by lock-word address.
inline std::mutex& dbg_blocking_mu() {
  static std::mutex mu;
  return mu;
}
inline std::unordered_map<const void*, int>& dbg_blocking_holders() {
  static std::unordered_map<const void*, int> m;
  return m;
}

inline void dbg_blocking_acquired(thread_context* c, const lock_word* st) {
  std::lock_guard<std::mutex> g(dbg_blocking_mu());
  dbg_blocking_holders()[st] = c->id;
  c->dbg_held++;
}

/// The automatic release at the end of a blocking critical section. If
/// this thread still holds the lock, close its bracket; if it
/// early-released and nobody re-acquired, the trailing store just bumps
/// the tag of an unlocked word (matching release-build behavior). If
/// another thread re-acquired after an early release, the release build
/// would stomp its lock — abort.
inline void dbg_blocking_release_bracket(thread_context* c,
                                         const lock_word* st) {
  std::lock_guard<std::mutex> g(dbg_blocking_mu());
  auto& m = dbg_blocking_holders();
  auto it = m.find(st);
  if (it == m.end()) return;  // early-released, not re-acquired
  if (it->second != c->id)
    dbg_api_abort(
        "blocking critical section ended after an early unlock() and the "
        "lock was re-acquired by another thread; the automatic release "
        "would stomp that holder");
  m.erase(it);
  c->dbg_held--;
}

inline void dbg_check_unlock_blocking(thread_context* c,
                                      const lock_word* st) {
  std::lock_guard<std::mutex> g(dbg_blocking_mu());
  auto& m = dbg_blocking_holders();
  auto it = m.find(st);
  if (it == m.end())
    dbg_api_abort("unlock() of a lock that is not held (double release)");
  if (it->second != c->id)
    dbg_api_abort("unlock() by a thread that does not hold the lock");
  m.erase(it);
  c->dbg_held--;
}

#define FLOCK_DBG_API(stmt) stmt
#else
#define FLOCK_DBG_API(stmt)
#endif

/// Effects-once unlock: flip (d|locked) -> (d|unlocked) if still current.
/// Raw (no enclosing log slots); the tag makes repeats harmless.
template <bool Ccas>
inline void raw_unlock(thread_context* c, lock_word& st, descriptor* d) {
  // seq_cst read: if the CAS is skipped because someone else already
  // unlocked, this read is the owner's hand-off access (see header).
  uint64_t p = st.read_raw_packed_sc();
  uint64_t lockedv = reinterpret_cast<uint64_t>(d) | kLockedBit;
  if (val_of(p) == lockedv)
    st.cas_raw_packed_ctx<Ccas>(c, p, reinterpret_cast<uint64_t>(d));
}

/// Run the descriptor's thunk (idempotently), mark done, release the lock.
template <bool Ccas>
inline bool run_and_unlock(thread_context* c, lock_word& st, descriptor* d) {
  FLOCK_DBG_API(c->dbg_held++);
  bool result = d->run(c);
  // mo: release — publishes the thunk's effects (and its committed log
  // entries) to the acquire done-reads in help_throttled and the nested
  // acquisition paths.
  d->done.store(true, std::memory_order_release);
  // Chaos window: done published, unlock CAS pending — the finish-line
  // stall that help_throttled's done-but-locked signal targets.
  FLOCK_FAULTPOINT("lock.handoff.pre_unlock");
  raw_unlock<Ccas>(c, st, d);
  FLOCK_DBG_API(c->dbg_held--);
  return result;
}

/// Help the descriptor currently installed on `st` (Alg. 3 lines 24/26).
/// `cur_packed` is the packed word under which the caller saw it locked.
/// Consumes no enclosing log slots.
template <bool Ccas>
inline void help(thread_context* c, lock_word& st, uint64_t cur_packed) {
  descriptor* d = lv_descr(val_of(cur_packed));
  c->stat_attempted++;
  d->helped.store(true, std::memory_order_seq_cst);  // hand-off (see header)
  // Adopt the descriptor's epoch before validating: if the validation
  // passes, the creator was still announced at d->epoch when we re-read,
  // so everything the thunk can reach is protected from then on by *our*
  // lowered announcement (see epoch.hpp).
  int64_t prev = g_epoch.adopt_ctx(c, d->epoch);
  if (st.read_raw_packed_sc() == cur_packed) {
    c->stat_ran++;
    // Chaos window: helper validated and adopted, about to run the thunk
    // (a dead helper here must not wedge anyone — others revalidate and
    // run the same descriptor).
    FLOCK_FAULTPOINT("lock.help.pre_run");
    run_and_unlock<Ccas>(c, st, d);
  }
  g_epoch.restore_ctx(c, prev);
}

/// Throttled help (contention policy, see header comment): spin locally
/// with randomized bounded exponential backoff before converting to a
/// helper. Consumes no enclosing log slots (raw reads and pauses only),
/// so it is safe on both the top-level and the nested paths. Returns true
/// if we helped, false if progress elsewhere made helping unnecessary.
template <bool Ccas>
inline bool help_throttled(thread_context* c, lock_word& st,
                           uint64_t cur_packed) {
  // The done-reads below may target a descriptor the owner has already
  // pool-reused (the §6 reuse shortcut returns never-helped descriptors
  // to the pool without an epoch wait). That is the same benign hazard
  // help() has always had with its helped-store: descriptor storage is
  // slab-backed and never unmapped, a stale read at worst yields a bogus
  // done bit, and acting on it just means helping "early" — help()
  // revalidates the lock word with a seq_cst read before running
  // anything, and the word's tag is monotonic while stale referencers
  // exist, so a reused descriptor can never pass that validation.
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
      // Local spinning re-checks with a relaxed raw read: a stale value
      // merely costs one more round, and the decision to help revalidates
      // with the seq_cst protocol inside help().
      if (st.read_raw_packed_relaxed() != cur_packed) {
        // The word moved on: the holder (or another helper) made
        // progress, so our help is no longer needed.
        c->stat_helps_avoided++;
        return false;
      }
      // mo: acquire — same pairing as the entry done-read above.
      if (d->done.load(std::memory_order_acquire)) break;
    }
    // Stall signal #2: the word did not move for the whole budget — the
    // holder may be descheduled mid-thunk. Fall through and help.
  }
  help<Ccas>(c, st, cur_packed);
  return true;
}

/// Retire a descriptor created by a NESTED acquisition (top-level
/// acquisitions use retire_installed_toplevel below, so c->log.block !=
/// nullptr here). Two cases: the descriptor was installed and run, or its
/// install CAS lost and it was never on the lock. Either way replays of
/// the enclosing thunk can still reach it through the log, and stale runs
/// of an installed descriptor may still hold the pointer, so it is always
/// epoch-retired — the §6 pool-reuse shortcut is a top-level-only
/// optimization. The retire decision goes through the log (one slot) so
/// exactly one run of the enclosing thunk performs it.
template <bool Ccas>
inline void retire_logged(thread_context* c, descriptor* d) {
  if (commit_raw_ctx<Ccas>(c, 1).second) epoch_retire_ctx(c, d);
}

// --- lock-free (helping) mode ---------------------------------------------

/// Top-level retire of a descriptor this thread installed and ran: the §6
/// reuse optimization without the logged commit (nothing to keep
/// deterministic outside a thunk).
template <bool Ccas>
inline void retire_installed_toplevel(thread_context* c, descriptor* d) {
  if (!d->helped.load(std::memory_order_seq_cst)) {
    c->stat_reused++;
    pool_delete_ctx(c, d);
  } else {
    epoch_retire_ctx(c, d);
  }
}

/// Top-level try_lock: no enclosing log, so nothing here must stay
/// deterministic across runs — branch on raw reads and on the install
/// CAS's own result, and keep a lost race to one pool push (see header).
template <bool Ccas, class F>
bool try_lock_helping_toplevel(thread_context* c, lock_word& st, F&& f) {
  uint64_t cur = st.read_raw_packed();
  if (lv_locked(val_of(cur))) {
    help_throttled<Ccas>(c, st, cur);
    return false;
  }
  descriptor* d = create_descriptor_ctx<Ccas>(c, std::forward<F>(f));
  uint64_t minev = reinterpret_cast<uint64_t>(d) | kLockedBit;
  // Re-validate after descriptor creation — the long pole between the
  // entry read and the install CAS, where install races concentrate.
  // Re-reading also refreshes the expected word, so a tag bumped by an
  // intervening lock/unlock pair does not fail our install.
  cur = st.read_raw_packed();
  if (lv_locked(val_of(cur))) {
    pool_delete_ctx(c, d);  // never published
    help_throttled<Ccas>(c, st, cur);
    return false;
  }
  // The ccas pre-check is skipped (<false>): we just read the word.
  if (!st.cas_raw_packed_ctx<false>(c, cur, minev)) {
    pool_delete_ctx(c, d);  // never published
    uint64_t fresh = st.read_raw_packed();
    if (lv_locked(val_of(fresh))) help_throttled<Ccas>(c, st, fresh);
    return false;
  }
  // Chaos window: descriptor installed, thunk not yet run — the paper's
  // dead-holder scenario (a kill here parks holding the lock; helpers
  // must finish the critical section).
  FLOCK_FAULTPOINT("lock.install.post");
  bool result = run_and_unlock<Ccas>(c, st, d);
  retire_installed_toplevel<Ccas>(c, d);
  return result;
}

template <bool Ccas, class F>
bool try_lock_helping(thread_context* c, lock_word& st, F&& f) {
  if (c->log.block == nullptr)
    return try_lock_helping_toplevel<Ccas>(c, st, std::forward<F>(f));
  // Nested: the fully logged deterministic prefix (see header comment on
  // log-slot discipline). Helping is throttled here too — backoff spins
  // consume no log slots, so replays may legally spin different amounts.
  uint64_t cur = st.load_packed_ctx<Ccas>(c);  // logged
  if (!lv_locked(val_of(cur))) {
    descriptor* d =
        create_descriptor_ctx<Ccas>(c, std::forward<F>(f));  // logged alloc
    uint64_t minev = reinterpret_cast<uint64_t>(d) | kLockedBit;
    st.cas_raw_packed_ctx<Ccas>(c, cur, minev);  // install CAM: effects-once
    // Chaos window (nested): install CAM issued, acquisition not yet
    // judged. Consumes no log slots, so replays may legally diverge here.
    FLOCK_FAULTPOINT("lock.install.post");
    uint64_t nowv = val_of(st.load_packed_ctx<Ccas>(c));  // logged
    // mo: acquire — raw done-read folded into the log (one slot);
    // pairs with run_and_unlock's release so an adopted "done" implies
    // the thunk's effects.
    bool d_done =
        commit_raw_ctx<Ccas>(c, d->done.load(std::memory_order_acquire))
            .first != 0;
    if (d_done || nowv == minev) {
      // Acquired (possibly already helped to completion).
      bool result = run_and_unlock<Ccas>(c, st, d);
      retire_logged<Ccas>(c, d);
      return result;
    }
    if (lv_locked(nowv)) {
      // Help whoever holds the lock *now*; a fresh read keeps the helped
      // descriptor current, and help() revalidates before running.
      uint64_t fresh = st.read_raw_packed();
      if (lv_locked(val_of(fresh))) help_throttled<Ccas>(c, st, fresh);
    }
    retire_logged<Ccas>(c, d);
    return false;
  }
  help_throttled<Ccas>(c, st, cur);
  return false;
}

template <bool Ccas, class F>
bool strict_lock_helping(thread_context* c, lock_word& st, F&& f) {
  // §4: "by first creating the descriptor, and then putting the attempt to
  // acquire a lock into a while loop". The descriptor is created once,
  // outside the loop, so retries consume no fresh pool traffic.
  descriptor* d = create_descriptor_ctx<Ccas>(c, std::forward<F>(f));
  uint64_t minev = reinterpret_cast<uint64_t>(d) | kLockedBit;
  if (c->log.block == nullptr) {
    // Top level: raw reads and the install CAS's own result (nothing to
    // keep deterministic), with throttled helping while the lock is held.
    while (true) {
      uint64_t cur = st.read_raw_packed();
      if (!lv_locked(val_of(cur))) {
        if (st.cas_raw_packed_ctx<false>(c, cur, minev)) {
          FLOCK_FAULTPOINT("lock.install.post");
          bool result = run_and_unlock<Ccas>(c, st, d);
          retire_installed_toplevel<Ccas>(c, d);
          return result;
        }
      } else {
        help_throttled<Ccas>(c, st, cur);
      }
    }
  }
  // Nested: all logged values are identical across runs, so every run
  // executes the same number of iterations (backoff spins inside
  // help_throttled consume no log slots and may differ freely).
  while (true) {
    uint64_t cur = st.load_packed_ctx<Ccas>(c);  // logged
    if (!lv_locked(val_of(cur))) {
      st.cas_raw_packed_ctx<Ccas>(c, cur, minev);
      FLOCK_FAULTPOINT("lock.install.post");  // no log slots consumed
      uint64_t nowv = val_of(st.load_packed_ctx<Ccas>(c));  // logged
      // mo: acquire — same logged done-read as try_lock_helping's nested
      // path; pairs with run_and_unlock's release.
      bool d_done =
          commit_raw_ctx<Ccas>(c, d->done.load(std::memory_order_acquire))
              .first != 0;
      if (d_done || nowv == minev) {
        bool result = run_and_unlock<Ccas>(c, st, d);
        retire_logged<Ccas>(c, d);
        return result;
      }
      if (lv_locked(nowv)) {
        uint64_t fresh = st.read_raw_packed();
        if (lv_locked(val_of(fresh))) help_throttled<Ccas>(c, st, fresh);
      }
    } else {
      help_throttled<Ccas>(c, st, cur);
    }
  }
}

// --- blocking (test-and-test-and-set) mode ---------------------------------
//
// The blocking CASes skip the ccas pre-check (template argument false):
// the caller just read the word, so a second read before the CAS is pure
// overhead here.

template <class F>
bool try_lock_blocking(thread_context* c, lock_word& st, F&& f) {
  uint64_t p = st.read_raw_packed();
  if (lv_locked(val_of(p))) return false;
  if (!st.cas_raw_packed_ctx<false>(c, p, kLockedBit)) return false;
  FLOCK_DBG_API(dbg_blocking_acquired(c, &st));
  bool result = f();
  FLOCK_DBG_API(dbg_blocking_release_bracket(c, &st));
  st.store_raw(0);
  return result;
}

template <class F>
bool strict_lock_blocking(thread_context* c, lock_word& st, F&& f) {
  backoff bo(c);  // shared randomized-exponential helper (backoff.hpp)
  while (true) {
    uint64_t p = st.read_raw_packed();
    if (!lv_locked(val_of(p))) {
      if (st.cas_raw_packed_ctx<false>(c, p, kLockedBit)) break;
    } else {
      bo.spin();
    }
  }
  FLOCK_DBG_API(dbg_blocking_acquired(c, &st));
  bool result = f();
  FLOCK_DBG_API(dbg_blocking_release_bracket(c, &st));
  st.store_raw(0);
  return result;
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
    if (use_ccas())
      return detail::try_lock_helping<true>(c, state_, std::forward<F>(f));
    return detail::try_lock_helping<false>(c, state_, std::forward<F>(f));
  }

  /// Strict lock: loops (helping in lock-free mode) until acquired.
  template <class F>
  bool strict_lock(F&& f) {
    detail::thread_context* c = detail::my_ctx();
    if (is_blocking())
      return detail::strict_lock_blocking(c, state_, std::forward<F>(f));
    if (use_ccas())
      return detail::strict_lock_helping<true>(c, state_, std::forward<F>(f));
    return detail::strict_lock_helping<false>(c, state_, std::forward<F>(f));
  }

  /// Early release (§4): undefined unless the calling thread('s thunk)
  /// holds the lock. Enables hand-over-hand locking.
  void unlock() {
    detail::thread_context* c = detail::my_ctx();
    if (is_blocking()) {
      FLOCK_DBG_API(detail::dbg_check_unlock_blocking(c, &state_));
      state_.store_raw(0);
      return;
    }
    if (use_ccas())
      unlock_helping<true>(c);
    else
      unlock_helping<false>(c);
  }

  bool is_locked() const {
    return detail::lv_locked(val_of(state_.read_raw_packed()));
  }

 private:
  template <bool Ccas>
  void unlock_helping(detail::thread_context* c) {
    uint64_t cur = state_.load_packed_ctx<Ccas>(c);  // logged
    FLOCK_DBG_API(detail::dbg_check_unlock_helping(c, val_of(cur)));
    if (detail::lv_locked(val_of(cur)))
      state_.cas_raw_packed_ctx<Ccas>(c, cur,
                                      val_of(cur) & ~detail::kLockedBit);
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

}  // namespace flock
