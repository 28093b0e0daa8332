// log.hpp — the shared idempotence log (paper §3, Algorithm 2).
//
// Every thunk (descriptor) carries a log shared by all processes that run
// it. Each loggable event — a load of a mutable location, an allocation, a
// retirement, a committed boolean — occupies one 64-bit slot. A run
// commits its candidate value with a CAS(empty → value) and then adopts
// whatever the slot holds, so all runs of the thunk observe identical
// values and stay synchronized (same branches, same log positions).
//
// Slot encoding: empty is 0 and a slot holds `payload + 1`, so 0, false
// and a null pointer are committable like any other value (Alg. 2 instead
// assumes `empty` is never stored by users). The one payload that cannot
// be stored is 2^64 - 1. No library payload reaches it: packed tagged
// words top out at tag 0xFFFE (next_tag in tagged.hpp wraps before
// 0xFFFF), pointers and write_once values fit in 48 bits, and booleans
// and retire flags are 0 or 1. The public commit_value asserts it.
//
// Slots are 64 bits so a commit is an inline 8-byte load plus `lock
// cmpxchg`. Every payload fits in one word, so the library needs no
// 16-byte atomic (and links no libatomic).
//
// Commits use compare-and-compare-and-swap (§6 "Avoiding CASes"): read the
// slot first and skip the CAS when it is already full.
//
// Hot-path structure: the commit core is templated on the ccas choice and
// takes the caller's thread context, so the lock machinery (which
// dispatches on the mode once per acquisition, see lock.hpp) performs no
// TLS lookups and no shared-flag loads inside its loops. The public
// commit_raw / commit_value fetch the context and load the flag once per
// call.
//
// Logs grow in blocks of kLogBlockEntries slots plus a next pointer, one
// cache line (§6 "Arbitrary Length Logs"); extending the chain is itself
// idempotent: the first run to overflow CASes a fresh block into the next
// pointer, losers free theirs.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <utility>

#include "allocator.hpp"
#include "config.hpp"
#include "epoch.hpp"
#include "thread_context.hpp"

namespace flock {

inline constexpr uint64_t kLogEmpty = 0;

struct log_entry {
  std::atomic<uint64_t> v{kLogEmpty};
};
static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "log slots must commit with an inline 8-byte CAS");

// Cache-line aligned: the block is one line.
struct alignas(kCacheLine) log_block {
  log_entry entries[kLogBlockEntries];
  std::atomic<log_block*> next{nullptr};
};
static_assert(sizeof(log_block) == kCacheLine,
              "a log block is one cache line: 7 slots and the next pointer");

/// Thread-local cursor into the log of the thunk the thread is currently
/// running; {nullptr, 0} outside of any thunk (then commits pass through).
/// (The cursor itself lives in the thread context; log_cursor is defined
/// in thread_context.hpp.)
inline log_cursor& tls_log() noexcept { return detail::my_ctx()->log; }

/// True when the calling thread is executing inside a thunk, i.e. loggable
/// operations will be committed to a shared log.
inline bool in_thunk() noexcept {
  return detail::my_ctx()->log.block != nullptr;
}

/// Per-thread count of log-slot commits, for instrumentation (e.g. the
/// paper's "a successful insert commits about 5 entries to the log").
inline uint64_t& tls_commit_count() noexcept {
  return detail::my_ctx()->commit_count;
}

namespace detail {

/// Move the cursor to the next slot, growing the chain idempotently.
inline void log_bump(thread_context* c, log_cursor& cur) {
  if (++cur.pos < kLogBlockEntries) return;
  // mo: acquire — pairs with the acq_rel append CAS below: a helper that
  // sees another run's block must also see its zeroed slots.
  log_block* nxt = cur.block->next.load(std::memory_order_acquire);
  if (nxt == nullptr) {
    log_block* mine = pool_new_ctx<log_block>(c);
    log_block* expected = nullptr;
    // mo: acq_rel — release publishes the freshly zeroed block to other
    // runs of this thunk; acquire on failure so `expected` (the winner's
    // block) is safe to walk into.
    if (cur.block->next.compare_exchange_strong(expected, mine,
                                                std::memory_order_acq_rel)) {
      nxt = mine;
    } else {
      pool_delete_ctx(c, mine);  // never published
      nxt = expected;
    }
  }
  cur.block = nxt;
  cur.pos = 0;
}

/// commitValue (Alg. 2 line 31) core: ccas choice is a template constant,
/// the context is supplied by the caller. The payload must not be 2^64 - 1
/// (see the header). Returns the committed payload and whether the calling
/// run was first to commit.
template <bool Ccas>
inline std::pair<uint64_t, bool> commit_raw_ctx(thread_context* c,
                                                uint64_t payload) {
  log_cursor& cur = c->log;
  if (cur.block == nullptr) return {payload, true};  // outside any lock
  log_entry& slot = cur.block->entries[cur.pos];
  log_bump(c, cur);
  ++c->commit_count;

  const uint64_t desired = payload + 1;
  if constexpr (Ccas) {
    // Compare-and-compare-and-swap (§6): skip the CAS when already full.
    // mo: acquire — adopting a value another run committed must also
    // acquire whatever that run published before committing it (e.g. the
    // object a committed pointer refers to).
    uint64_t seen = slot.v.load(std::memory_order_acquire);
    if (seen != kLogEmpty) return {seen - 1, false};
  }
  uint64_t expected = kLogEmpty;
  // mo: acq_rel — release so the committed payload's referent is visible
  // to runs that adopt it; acquire on failure for the same adoption
  // argument as the ccas pre-check above.
  if (slot.v.compare_exchange_strong(expected, desired,
                                     std::memory_order_acq_rel)) {
    return {payload, true};
  }
  return {expected - 1, false};
}

}  // namespace detail

/// commitValue on a raw 64-bit payload other than 2^64 - 1 (public
/// spelling; one context fetch and one ccas-flag load per call).
inline std::pair<uint64_t, bool> commit_raw(uint64_t payload) {
  detail::thread_context* c = detail::my_ctx();
  return use_ccas() ? detail::commit_raw_ctx<true>(c, payload)
                    : detail::commit_raw_ctx<false>(c, payload);
}

/// Users can commit arbitrary nondeterministic results (paper §3.2: "The
/// commitValue can also be used directly by the user"). Any value except
/// 2^64 - 1, which a slot cannot hold (slots store value + 1, 0 = empty).
inline uint64_t commit_value(uint64_t v) {
  assert(v != ~uint64_t{0} && "commit_value cannot log 2^64 - 1");
  return commit_raw(v).first;
}

/// Idempotent allocation (Alg. 2 line 51): every run constructs its own
/// candidate, the first to commit wins, losers destroy theirs.
template <class T, class... Args>
T* idem_new(Args&&... args) {
  detail::thread_context* c = detail::my_ctx();
  T* mine = detail::pool_new_ctx<T>(c, std::forward<Args>(args)...);
  auto r = use_ccas()
               ? detail::commit_raw_ctx<true>(
                     c, reinterpret_cast<uint64_t>(mine))
               : detail::commit_raw_ctx<false>(
                     c, reinterpret_cast<uint64_t>(mine));
  if (r.second) return mine;
  detail::pool_delete_ctx(c, mine);  // never published: immediate free is safe
  return reinterpret_cast<T*>(r.first);
}

/// Idempotent retirement (Alg. 2 line 57): the first run to commit the
/// flag owns the retirement; epoch-based collection frees it later.
template <class T>
void idem_retire(T* obj) {
  detail::thread_context* c = detail::my_ctx();
  bool first = use_ccas() ? detail::commit_raw_ctx<true>(c, 1).second
                          : detail::commit_raw_ctx<false>(c, 1).second;
  if (first) detail::epoch_retire_ctx(c, obj);
}

}  // namespace flock
