// mutable.hpp — idempotent shared mutable locations (paper §3.2, Alg. 2,
// and the §6 ABA optimizations).
//
// Two flavors:
//  * mutable_<T>    — "compact": one 64-bit word = 48-bit value + 16-bit
//                     tag, made ABA-safe by the announced tag wrap
//                     (tagged.hpp). This is what the paper's experiments
//                     use ("All the experiments in Section 8 use this
//                     version since the mutables are no larger than a
//                     pointer"). Wider data is stored behind a pointer.
//  * write_once<T>  — see write_once.hpp.
//
// Semantics (Alg. 2): load commits the observed value to the enclosing
// thunk's log so every run of the thunk sees the same value; store = load
// + CAS whose expected value is the logged one (the tag makes the
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
      p = use_ccas() ? detail::commit_raw_ctx<true>(c, p).first
                     : detail::commit_raw_ctx<false>(c, p).first;
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
    if (c->log.block != nullptr)
      p = detail::commit_raw_ctx<Ccas>(c, p).first;
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

}  // namespace flock
