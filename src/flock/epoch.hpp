// epoch.hpp — epoch-based memory reclamation (paper §6 "Epoch-based
// collection") with helper epoch adoption and DEBRA-style amortization.
//
// Scheme: a global epoch counter plus one announcement slot per thread
// (in its thread context). An operation announces the current global
// epoch for its whole duration (`with_epoch`). Retired objects are pushed
// onto a fixed-capacity per-thread batch — an O(1) pointer bump. When a
// batch fills it is *sealed*: stamped with the current global epoch
// (an upper bound on every member's retire-time epoch) and queued FIFO.
// A sealed batch is freeable once every announced epoch is strictly
// greater than its stamp. Because an object is only retired after it was
// unlinked, any reader that can still hold a reference announced an epoch
// no larger than the stamp, so the gate is sound.
//
// Amortization (cf. DEBRA): reclamation keeps a *cached* lower bound on
// the minimum announced epoch (`min_bound_`). Sealing first tries to free
// old batches against the cached bound — no scanning at all. Only when
// the backlog persists does it pay for one announcement scan (bounded by
// thread_id_bound()) plus an epoch-advance attempt, and the scan result
// refreshes the cache for everyone. The cache is sound because the bound
// is monotone: a scan that observed minimum m with global counter g
// guarantees no thread can later announce below min(m, g) — fresh
// announcements take the (validated, see announce()) current global
// >= g, and helper adoption only adopts the epoch of an installed
// descriptor whose creator is still announcing it, which any scan already
// counted.
//
// Helper adoption (paper §6): when a thread helps a descriptor it lowers
// its announcement to min(own, descriptor epoch) and restores it after.
// This is safe because (a) lowering an announcement only widens
// protection, and (b) while a descriptor is installed on a lock and not
// yet unlocked, its creator is still inside `with_epoch` announcing the
// descriptor's epoch, so nothing from that epoch onwards has been freed
// (see lock.hpp for the ordering that makes the hand-off airtight).
#pragma once

#include <atomic>
#include <cstdint>

#include "allocator.hpp"
#include "chaos/faultpoint.hpp"
#include "config.hpp"
#include "thread_context.hpp"
#include "threading.hpp"

namespace flock {

class epoch_manager {
 public:
  /// The manager is constant-initialized static state; instance() is a
  /// plain reference with no initialization guard.
  static epoch_manager& instance() noexcept;

  /// Run `f` inside an epoch-protected region. Nesting is allowed; only the
  /// outermost level announces, and it quiesces (-1) on exit. Every
  /// operation, lock or lookup, pays one validated announce (announce())
  /// and one release store per outermost entry.
  template <class F>
  auto with_epoch(F&& f) -> decltype(f()) {
    detail::thread_context* c = detail::my_ctx();
    if (c->epoch_depth++ == 0) announce(c);
    struct guard {
      detail::thread_context* c;
      ~guard() {
        if (--c->epoch_depth == 0) {
          // mo: release — quiescing: every access this thread made to
          // epoch-protected objects happens-before a collector's acquire
          // read of -1 (min_announced), so nothing can be freed under us.
          c->announced.store(-1, std::memory_order_release);
        }
      }
    } g{c};
    return f();
  }

  /// Defer destruction of `p` until no announced epoch can still reference
  /// it. `del` must be a plain function (e.g. pool_delete_erased<T>).
  /// O(1) amortized: a push, plus batch-granular reclamation on seal.
  void retire(void* p, void (*del)(void*)) {
    retire_ctx(detail::my_ctx(), p, del);
  }

  void retire_ctx(detail::thread_context* c, void* p, void (*del)(void*)) {
    FLOCK_FAULTPOINT("epoch.retire");
    detail::retire_batch* b = c->open;
    if (b == nullptr) [[unlikely]]
      b = c->open = alloc_batch(c);
    b->items[b->n++] = {p, del};
    ++c->retired_pending;
    if (b->n == detail::retire_batch::kCapacity) [[unlikely]]
      seal_and_reclaim(c);
  }

  /// Current announcement of a thread (-1 when quiescent).
  int64_t announced(int tid) const {
    // mo: acquire — pairs with the seq_cst announce / release quiesce
    // stores; an observer acting on the value (lock.hpp adoption checks)
    // must also see the state published before it.
    return detail::g_ctx[tid].announced.load(std::memory_order_acquire);
  }

  /// Helper adoption: lower the calling thread's announcement to
  /// min(current, e). Returns the previous announcement for restore().
  int64_t adopt(int64_t e) { return adopt_ctx(detail::my_ctx(), e); }

  int64_t adopt_ctx(detail::thread_context* c, int64_t e) {
    // mo: relaxed — our OWN announcement slot (this thread is the only
    // writer); only the value is needed, ordering comes from the seq_cst
    // store below when we actually lower it.
    int64_t prev = c->announced.load(std::memory_order_relaxed);
    if (prev < 0 || e < prev)
      c->announced.store(e, std::memory_order_seq_cst);
    return prev;
  }

  void restore(int64_t prev) { restore_ctx(detail::my_ctx(), prev); }

  void restore_ctx(detail::thread_context* c, int64_t prev) {
    c->announced.store(prev, std::memory_order_seq_cst);
  }

  int64_t current_epoch() const {
    // mo: acquire — callers stamp descriptors with the result; acquire
    // keeps the stamp no older than state already observed via the
    // counter's advance (acq_rel CAS in try_advance).
    return global_.load(std::memory_order_acquire);
  }

  /// Objects retired by any thread but not yet freed (approximate).
  long long pending() const {
    long long n = 0;
    const int bound = thread_id_bound();
    for (int i = 0; i < bound; i++)
      n += detail::g_ctx[i].retired_pending;
    return n;
  }

  /// Test/shutdown hook: advance epochs and drain every thread's retire
  /// batches, including batches stranded by exited threads. Requires
  /// quiescence (no concurrent operations in flight) to fully drain; safe
  /// to call concurrently only with other flush() calls being absent.
  /// An idle thread pins nothing here: every epoch region retracts its
  /// announcement on exit.
  void flush() {
    const int bound = thread_id_bound();
    for (int i = 0; i < 3; i++) try_advance();
    for (int i = 0; i < bound; i++) {
      detail::thread_context* c = &detail::g_ctx[i];
      if (c->open != nullptr && c->open->n > 0) seal(c);
    }
    const int64_t b = refresh_bound();
    for (int i = 0; i < bound; i++) drain_sealed(&detail::g_ctx[i], b);
  }

 private:
  /// Outermost announcement, with validation: re-announce until the
  /// global counter stops moving under us, so a collector that advanced
  /// the epoch concurrently cannot have missed this announcement while we
  /// go on to read shared state (this validation is what lets reclamation
  /// trust a cached minimum, see header comment).
  void announce(detail::thread_context* c) {
    // mo: relaxed — just a first guess for the validation loop; the
    // seq_cst re-read below is what the protocol trusts.
    int64_t e = global_.load(std::memory_order_relaxed);
    c->announced.store(e, std::memory_order_seq_cst);
    int64_t g;
    while ((g = global_.load(std::memory_order_seq_cst)) != e) {
      e = g;
      c->announced.store(e, std::memory_order_seq_cst);
    }
  }

  detail::retire_batch* alloc_batch(detail::thread_context* c) {
    detail::retire_batch* b = c->batch_free;
    if (b != nullptr) {
      c->batch_free = b->next;
      --c->batch_free_n;
      b->epoch = -1;
      b->n = 0;
      b->next = nullptr;
      return b;
    }
    return new detail::retire_batch{};
  }

  void recycle_batch(detail::thread_context* c, detail::retire_batch* b) {
    if (c->batch_free_n < 2) {
      b->next = c->batch_free;
      c->batch_free = b;
      ++c->batch_free_n;
    } else {
      delete b;
    }
  }

  /// Stamp the open batch and queue it FIFO (oldest at head).
  void seal(detail::thread_context* c) {
    detail::retire_batch* b = c->open;
    c->open = nullptr;
    // mo: acquire — the stamp must upper-bound every member's retire
    // epoch; acquire keeps it no older than advances already observed.
    b->epoch = global_.load(std::memory_order_acquire);
    b->next = nullptr;
    if (c->sealed_tail == nullptr)
      c->sealed_head = b;
    else
      c->sealed_tail->next = b;
    c->sealed_tail = b;
  }

  void seal_and_reclaim(detail::thread_context* c) {
    FLOCK_FAULTPOINT("epoch.seal");
    seal(c);
    // Cheap pass: the cached bound, no scanning.
    // mo: acquire — pairs with the acq_rel raise in refresh_bound(); a
    // bound published by another thread's scan implies its announcement
    // reads, which this drain's frees rely on.
    drain_sealed(c, min_bound_.load(std::memory_order_acquire));
    if (c->sealed_head != nullptr) {
      // Backlog persists: pay for one scan + advance and refresh the cache.
      try_advance();
      drain_sealed(c, refresh_bound());
    }
  }

  /// Free sealed batches whose stamp precedes `bound` (strictly).
  void drain_sealed(detail::thread_context* c, int64_t bound) {
    detail::retire_batch* b = c->sealed_head;
    while (b != nullptr && b->epoch < bound) {
      detail::retire_batch* nxt = b->next;
      for (int i = 0; i < b->n; i++) b->items[i].del(b->items[i].p);
      c->retired_pending -= b->n;
      recycle_batch(c, b);
      b = nxt;
    }
    c->sealed_head = b;
    if (b == nullptr) c->sealed_tail = nullptr;
  }

  int64_t min_announced() const {
    int64_t mn = INT64_MAX;
    const int bound = thread_id_bound();
    for (int i = 0; i < bound; i++) {
      // mo: acquire — pairs with the release quiesce store (with_epoch
      // guard): reading -1 means that thread's accesses to protected
      // objects happen-before any free this scan justifies.
      int64_t e = detail::g_ctx[i].announced.load(std::memory_order_acquire);
      if (e >= 0 && e < mn) mn = e;
    }
    return mn;
  }

  /// One announcement scan; returns a freeing bound for the caller's
  /// *immediate* drain and raises the monotone cache. The immediate bound
  /// matches the classic scheme: with nobody announced, everything
  /// currently retired is free. The *cached* value is clamped to the
  /// global counter read before the scan — the value future decisions can
  /// trust, because validated future announcements can never land below
  /// it.
  int64_t refresh_bound() {
    const int64_t g = global_.load(std::memory_order_seq_cst);
    int64_t mn = min_announced();
    int64_t cacheable = mn == INT64_MAX ? g : (mn < g ? mn : g);
    // mo: relaxed — seeds the CAS expected value only; the CAS re-reads
    // with its own ordering on failure.
    int64_t cur = min_bound_.load(std::memory_order_relaxed);
    // mo: acq_rel — monotone-max raise: release publishes the scan this
    // bound summarizes to seal_and_reclaim's acquire read; acquire so a
    // loser sees the winner's larger bound and exits the loop.
    while (cacheable > cur && !min_bound_.compare_exchange_weak(
                                  cur, cacheable, std::memory_order_acq_rel)) {
    }
    return mn == INT64_MAX ? INT64_MAX : cacheable;
  }

  void try_advance() {
    // mo: acquire — the scan below must run against announcements no
    // older than the counter value we will advance from.
    int64_t g = global_.load(std::memory_order_acquire);
    int64_t mn = min_announced();
    // Advance only when every announced thread has caught up with the
    // current epoch; this bounds the distance between announcements and
    // the global counter to one advance per full quiescence cycle.
    // mo: acq_rel — release publishes the advance so stamps taken from
    // the new value imply this scan; acquire mirrors the load above when
    // the CAS fails and refreshes g.
    if (mn == INT64_MAX || mn >= g)
      global_.compare_exchange_strong(g, g + 1, std::memory_order_acq_rel);
  }

  std::atomic<int64_t> global_{0};
  // Monotone lower bound on the minimum announced epoch (cached scan).
  std::atomic<int64_t> min_bound_{0};
};

namespace detail {
inline constinit epoch_manager g_epoch{};
}  // namespace detail

inline epoch_manager& epoch_manager::instance() noexcept {
  return detail::g_epoch;
}

/// Convenience wrappers used throughout the library. ------------------------

template <class F>
inline auto with_epoch(F&& f) -> decltype(f()) {
  return epoch_manager::instance().with_epoch(std::forward<F>(f));
}

/// Epoch-deferred pool reclamation of a pool_new<T>'d object.
template <class T>
inline void epoch_retire(T* p) {
  epoch_manager::instance().retire(p, &pool_delete_erased<T>);
}

/// Epoch-deferred reclamation of an array_new<T>'d array (the length
/// travels in the array header, so the plain function-pointer deleter the
/// retire queue stores is enough).
template <class T>
inline void epoch_retire_array(T* p) {
  epoch_manager::instance().retire(p, &array_delete_erased<T>);
}

namespace detail {
/// Context-threaded spelling for hot paths that already hold a context.
template <class T>
inline void epoch_retire_ctx(thread_context* c, T* p) {
  g_epoch.retire_ctx(c, p, &pool_delete_erased<T>);
}
}  // namespace detail

}  // namespace flock
