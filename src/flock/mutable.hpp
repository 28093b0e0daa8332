// mutable.hpp — idempotent shared mutable locations (paper §3.2, Alg. 2,
// and the §6 ABA optimizations).
//
// Three flavors:
//  * mutable_<T>    — "compact": one 64-bit word = 48-bit value + 16-bit
//                     tag. This is what the paper's experiments use ("All
//                     the experiments in Section 8 use this version since
//                     the mutables are no larger than a pointer").
//  * mutable_dw<T>  — fully general: (64-bit counter, 64-bit value) pair
//                     updated with a 16-byte CAS; loads touch only the two
//                     64-bit halves (§6 first optimization: "a load only
//                     needs to log the value... a store does not need to
//                     read the counter and value atomically"). A logged
//                     load commits the pair into two adjacent log slots
//                     with one 16-byte CAS (log.hpp), so this is the only
//                     flavor that needs -mcx16 and libatomic.
//  * write_once<T>  — see write_once.hpp.
//
// Semantics (Alg. 2): load commits the observed value to the enclosing
// thunk's log so every run of the thunk sees the same value; store = load
// + CAS whose expected value is the logged one (tag/counter makes the
// location ABA-free, so all but the first CAS of a given thunk-store
// fail); cam is a CAS that externalizes no result. Outside of any thunk,
// commits pass through and these degrade to ordinary atomics.
//
// Hot-path structure: every public operation fetches the thread context
// once and resolves the ccas flag once, then runs a fully specialized
// core (_ctx<Ccas> members). The lock machinery calls the cores directly
// with its own dispatch (lock.hpp), so its loops contain no TLS lookups
// or shared-flag loads at all.
//
// Usage rule inherited from the paper: stores and CAMs must not race on
// the same location (enforce with your locking discipline).
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "chaos/faultpoint.hpp"
#include "config.hpp"
#include "log.hpp"
#include "tagged.hpp"

namespace flock {

// ---------------------------------------------------------------------------
// Compact mutable: 48-bit value + 16-bit tag in one word.
// ---------------------------------------------------------------------------
template <class T>
class mutable_ {
 public:
  mutable_() : word_(pack_tagged(1, 0)) {}
  explicit mutable_(T v) : word_(pack_tagged(1, to_bits48(v))) {}

  mutable_(const mutable_&) = delete;
  mutable_& operator=(const mutable_&) = delete;

  /// Non-atomic initialization (object not yet shared).
  void init(T v) {
    // mo: relaxed — pre-publication by contract; the edge that shares
    // the object (e.g. a committed pointer, a lock-word CAS) releases.
    word_.store(pack_tagged(1, to_bits48(v)), std::memory_order_relaxed);
  }

  /// Idempotent load: logged inside a thunk (Alg. 2 line 40).
  T load() const {
    detail::thread_context* c = detail::my_ctx();
    // mo: acquire — a loaded pointer must carry the referent's
    // initialization (published by the seq_cst installing CAS).
    uint64_t p = word_.load(std::memory_order_acquire);
    if (c->log.block != nullptr) {
      p = use_ccas() ? detail::commit64_ctx<true>(c, p)
                     : detail::commit64_ctx<false>(c, p);
    }
    return from_bits48<T>(val_of(p));
  }

  /// Idempotent store (Alg. 2 line 43): logged load then tag-bumping CAS.
  void store(T v) {
    detail::thread_context* c = detail::my_ctx();
    if (use_ccas())
      store_ctx<true>(c, v);
    else
      store_ctx<false>(c, v);
  }

  /// Idempotent CAM (Alg. 2 line 46): CAS that returns nothing.
  void cam(T expected, T desired) {
    detail::thread_context* c = detail::my_ctx();
    if (use_ccas())
      cam_ctx<true>(c, expected, desired);
    else
      cam_ctx<false>(c, expected, desired);
  }

  /// Sugar matching the paper's examples: assignment stores.
  mutable_& operator=(T v) {
    store(v);
    return *this;
  }

  // --- Specialized cores: context supplied, ccas resolved at compile
  // time. Used by the public wrappers above and by lock.hpp. ---------------
  template <bool Ccas>
  void store_ctx(detail::thread_context* c, T v) {
    uint64_t oldp = load_packed_ctx<Ccas>(c);
    cas_packed_ctx<Ccas>(
        c, oldp, pack_tagged(detail::next_tag(this, oldp), to_bits48(v)));
  }

  template <bool Ccas>
  void cam_ctx(detail::thread_context* c, T expected, T desired) {
    uint64_t oldp = load_packed_ctx<Ccas>(c);
    if (val_of(oldp) != to_bits48(expected)) return;
    cas_packed_ctx<Ccas>(
        c, oldp,
        pack_tagged(detail::next_tag(this, oldp), to_bits48(desired)));
  }

  /// Logged load returning the full packed word (lock implementation).
  template <bool Ccas>
  uint64_t load_packed_ctx(detail::thread_context* c) const {
    // mo: acquire — same pairing as load(): the packed value may be a
    // pointer whose referent must be visible to the caller.
    uint64_t p = word_.load(std::memory_order_acquire);
    if (c->log.block != nullptr) p = detail::commit64_ctx<Ccas>(c, p);
    return p;
  }

  uint64_t load_packed() const {
    detail::thread_context* c = detail::my_ctx();
    return use_ccas() ? load_packed_ctx<true>(c) : load_packed_ctx<false>(c);
  }

  // --- Raw (unlogged) access: used by the lock implementation for the
  // effects-once steps that must not consume enclosing log slots, by
  // blocking mode, and by read-only code outside of any thunk. -------------
  T read_raw() const {
    // mo: acquire — unlogged read-only path; still carries a loaded
    // pointer's referent (same pairing as load()).
    return from_bits48<T>(val_of(word_.load(std::memory_order_acquire)));
  }
  uint64_t read_raw_packed() const {
    // mo: acquire — see read_raw.
    return word_.load(std::memory_order_acquire);
  }
  /// Relaxed read of the packed word, for local spin-waiting (the backoff
  /// re-checks in lock.hpp): a stale value only costs an extra round, and
  /// any decision taken after the spin revalidates with an ordered read.
  uint64_t read_raw_packed_relaxed() const {
    // mo: relaxed — spin-wait probe only; see the doc comment above.
    return word_.load(std::memory_order_relaxed);
  }
  /// seq_cst read of the packed word: participates in the helped/unlock
  /// hand-off protocol (lock.hpp), whose correctness argument runs through
  /// the seq_cst total order instead of fences. Same code as an acquire
  /// load on x86.
  uint64_t read_raw_packed_sc() const {
    return word_.load(std::memory_order_seq_cst);
  }

  /// Tag-bumping raw CAS; announced so tag-wrap scans can see the expected
  /// word. Returns true if this call installed the new value.
  template <bool Ccas>
  bool cas_raw_packed_ctx(detail::thread_context* c, uint64_t expected_packed,
                          T desired) {
    return cas_packed_ctx<Ccas>(
        c, expected_packed,
        pack_tagged(detail::next_tag(this, expected_packed),
                    to_bits48(desired)));
  }

  bool cas_raw_packed(uint64_t expected_packed, T desired) {
    detail::thread_context* c = detail::my_ctx();
    return use_ccas() ? cas_raw_packed_ctx<true>(c, expected_packed, desired)
                      : cas_raw_packed_ctx<false>(c, expected_packed, desired);
  }

  /// Plain release store (blocking mode only: no helpers exist).
  void store_raw(T v) {
    // mo: acquire — reads the current tag; under blocking mode the lock
    // already orders stores, acquire keeps readers-outside-locks safe.
    uint64_t oldp = word_.load(std::memory_order_acquire);
    // mo: release — publishes the stored value's referent to the acquire
    // loads above (the §5 blocking-mode store).
    word_.store(pack_tagged(detail::next_tag(this, oldp), to_bits48(v)),
                std::memory_order_release);
  }

 private:
  template <bool Ccas>
  bool cas_packed_ctx(detail::thread_context* c, uint64_t expected,
                      uint64_t desired) {
    if constexpr (Ccas) {
      // compare-and-compare-and-swap (§6)
      // mo: acquire — the pre-check substitutes for the CAS's failure
      // path, so it needs the CAS failure ordering (acquire) too.
      if (word_.load(std::memory_order_acquire) != expected) return false;
    }
    // The window between (c)cas validation and the committing CAS: the
    // tag in `expected` can go stale right here. Scheduler-only yield
    // point (no fault plans); erased without FLOCK_CHAOS.
    FLOCK_SCHEDPOINT("mut.cas.pre");
    detail::announce_guard g(c, this, expected);
    // seq_cst (not acq_rel) so lock-word CASes participate in the
    // hand-off protocol's total order (lock.hpp); identical code on x86,
    // where a locked RMW is a full barrier either way.
    // mo: acquire (failure) — a failed install still observes the
    // winner's word, e.g. a descriptor the caller may go on to help.
    return word_.compare_exchange_strong(expected, desired,
                                         std::memory_order_seq_cst,
                                         std::memory_order_acquire);
  }

  std::atomic<uint64_t> word_;
};

// ---------------------------------------------------------------------------
// Double-word mutable: 64-bit monotonic counter + full 64-bit value.
// ---------------------------------------------------------------------------
template <class T>
class alignas(16) mutable_dw {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);

  struct rep {
    uint64_t val;
    uint64_t cnt;
  };

 public:
  mutable_dw() : rep_{0, 1} {}
  explicit mutable_dw(T v) : rep_{to_bits(v), 1} {}
  mutable_dw(const mutable_dw&) = delete;
  mutable_dw& operator=(const mutable_dw&) = delete;

  void init(T v) {
    rep_.val = to_bits(v);
    rep_.cnt = 1;
  }

  T load() const {
    detail::thread_context* c = detail::my_ctx();
    uint64_t v = use_ccas() ? load_pair_ctx<true>(c).val
                            : load_pair_ctx<false>(c).val;
    return from_bits(v);
  }

  void store(T v) {
    detail::thread_context* c = detail::my_ctx();
    if (use_ccas())
      store_ctx<true>(c, v);
    else
      store_ctx<false>(c, v);
  }

  void cam(T expected, T desired) {
    detail::thread_context* c = detail::my_ctx();
    if (use_ccas())
      cam_ctx<true>(c, expected, desired);
    else
      cam_ctx<false>(c, expected, desired);
  }

  mutable_dw& operator=(T v) {
    store(v);
    return *this;
  }

  T read_raw() const {
    // mo: acquire — value half only; carries a loaded pointer's referent
    // like the compact flavor's read_raw.
    return from_bits(__atomic_load_n(&rep_.val, __ATOMIC_ACQUIRE));
  }

 private:
  template <bool Ccas>
  void store_ctx(detail::thread_context* c, T v) {
    rep pair = load_pair_ctx<Ccas>(c);
    rep desired{to_bits(v), pair.cnt + 1};
    cas_pair<Ccas>(pair, desired);
  }

  template <bool Ccas>
  void cam_ctx(detail::thread_context* c, T expected, T desired) {
    rep pair = load_pair_ctx<Ccas>(c);
    if (pair.val != to_bits(expected)) return;
    cas_pair<Ccas>(pair, rep{to_bits(desired), pair.cnt + 1});
  }

  static uint64_t to_bits(T v) {
    uint64_t b = 0;
    __builtin_memcpy(&b, &v, sizeof(T));
    return b;
  }
  static T from_bits(uint64_t b) {
    T v{};
    __builtin_memcpy(&v, &b, sizeof(T));
    return v;
  }

  /// §6 first optimization: no 16-byte atomic load. Read the counter, then
  /// the value; the pair is logged so all runs of the thunk agree, and a
  /// torn read simply makes the subsequent CAS fail (which is only
  /// possible when another location's lock raced a pure reader — stores
  /// to this location cannot race by assumption).
  template <bool Ccas>
  rep load_pair_ctx(detail::thread_context* c) const {
    // Counter first, then value: the acquire on cnt keeps the value read
    // no older than the counter it is paired with, and the value's
    // acquire carries its referent (see load()).
    // mo: acquire (both halves of the §6 unpaired read).
    uint64_t cnt = __atomic_load_n(&rep_.cnt, __ATOMIC_ACQUIRE);
    uint64_t v = __atomic_load_n(&rep_.val, __ATOMIC_ACQUIRE);
    if (c->log.block != nullptr) {
      // The counter is >= 1, so the committed pair is never the empty one.
      log_pair committed = detail::commit_pair_ctx<Ccas>(c, log_pair{v, cnt});
      v = committed.lo;
      cnt = committed.hi;
    }
    return rep{v, cnt};
  }

  template <bool Ccas>
  bool cas_pair(rep expected, rep desired) {
    if constexpr (Ccas) {
      // mo: acquire — ccas pre-check stands in for the CAS failure path
      // (same argument as the compact flavor's cas_packed_ctx).
      uint64_t cnt = __atomic_load_n(&rep_.cnt, __ATOMIC_ACQUIRE);
      if (cnt != expected.cnt) return false;
    }
    // mo: acq_rel / acquire-on-failure — release publishes the stored
    // value's referent to load_pair_ctx's acquire reads; mutable_dw words
    // are not lock words, so the seq_cst hand-off argument does not apply.
    return __atomic_compare_exchange(&rep_, &expected, &desired,
                                     /*weak=*/false, __ATOMIC_ACQ_REL,
                                     __ATOMIC_ACQUIRE);
  }

  mutable rep rep_;
};

}  // namespace flock
