// move.hpp — atomic movement of an element between two structures, the
// paper's introductory motivation: "If one needs to atomically move data
// among structures, lock-free algorithms become particularly tricky."
// With lock-free locks it is three nested try_locks.
//
// Lock order (Theorem 4.2's acyclic partial order): the two lists are
// ordered by object address; within a list, list-position order
// (predecessor before node). Every thunk captures by value.
//
// Reads during a move: every try_move (lazylist below, hashtable in
// hashtable.hpp) publishes the key in the destination before it hides it
// in the source, so a lock-free reader may see the key in both containers
// mid-move but never in neither, if it probes the source first and the
// destination only on a miss (checked by ScheduleTest.MoveSourceFirstRead*).
#pragma once

#include <type_traits>

#include "flock/flock.hpp"
#include "hashtable.hpp"  // hashtable try_move overload (defined there)
#include "lazylist.hpp"

namespace flock_ds {

/// Atomically move key `k` (and its value) from `from` to `to`. Atomic
/// with respect to all other *updaters*: both splices happen inside one
/// validated critical-section nest, so no insert/remove/move can
/// interleave between them — the key is never lost or duplicated.
/// Returns false — changing nothing — if k is absent in `from`, already
/// present in `to`, or any lock/validation fails transiently (callers
/// retry like any try-lock operation; `move_retry` below loops until a
/// definite answer).
template <class K, class V, bool Strict>
bool try_move(lazylist<K, V, Strict>& from, lazylist<K, V, Strict>& to,
              std::type_identity_t<K> k) {
  using list = lazylist<K, V, Strict>;
  using node = typename list::node_t;
  if (&from == &to) return false;
  return flock::with_epoch([&] {
    auto [fprev, fcur] = from.search_for(k);
    if (fcur == nullptr || fcur->k != k) return false;  // not in source
    auto [tprev, tcur] = to.search_for(k);
    // Mid-remove keys (flag set, unlink pending) count as absent, like
    // find(); the validation in the critical section forces a retry.
    if (tcur != nullptr && tcur->k == k && !tcur->removed.load())
      return false;  // already in dest
    // Innermost critical section: validates both neighborhoods and does
    // both splices. Runs under fprev -> fcur -> tprev (or tprev first if
    // `to` orders before `from`).
    auto splice = [=, &to]() {
      node* fp = fprev;
      node* fc = fcur;
      node* tp = tprev;
      node* tc = tcur;
      if (fp->removed.load() || fc->removed.load()) return false;
      if (fp->next.load() != fc) return false;
      if (tp->removed.load()) return false;
      if (tp->next.load() != tc) return false;
      (void)to;
      // Insert a fresh node in `to` carrying the value...
      node* moved = flock::allocate<node>(fc->k, fc->v, tc);
      tp->next = moved;
      // ...and splice the original out of `from`.
      fc->removed = true;
      fp->next = fc->next.load();
      flock::retire<node>(fc);
      return true;
    };
    auto lock_source_then = [=](auto inner) {
      return flock::acquire<Strict>(fprev->lck, [=] {
        return flock::acquire<Strict>(fcur->lck, [=] { return inner(); });
      });
    };
    if (reinterpret_cast<uintptr_t>(&from) <
        reinterpret_cast<uintptr_t>(&to)) {
      return lock_source_then([=] {
        return flock::acquire<Strict>(tprev->lck, [=] { return splice(); });
      });
    }
    return flock::acquire<Strict>(tprev->lck,
                                  [=] { return lock_source_then(splice); });
  });
}

/// Loop try_move until the key moves (true), or a validated find shows it
/// gone from the source or already in the destination, or `max_attempts`
/// run out (false). Works for any pair of same-type containers with a
/// try_move overload (lazylist above, hashtable in ds/hashtable.hpp,
/// sharded_map in store/) via ADL.
template <class C, class Key>
bool move_retry(C& from, C& to, Key k, int max_attempts = 1 << 20) {
  for (int i = 0; i < max_attempts; i++) {
    if (try_move(from, to, k)) return true;
    if (!from.find(k).has_value() || to.find(k).has_value()) return false;
  }
  return false;
}

}  // namespace flock_ds
