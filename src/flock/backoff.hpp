// backoff.hpp — shared randomized bounded exponential backoff for the
// contended lock paths (lock.hpp).
//
// Both lock modes wait the same way when they observe a held lock: spin
// locally on raw reads, pausing a randomized, exponentially growing number
// of iterations per round (randomization desynchronizes waiters that woke
// together, the plock/Reciprocating-Locks discipline), and yield the core
// once the per-round limit tops out (essential under oversubscription —
// the holder may need this core to make progress). The modes differ only
// in what ends the wait:
//
//   blocking   spin until the lock frees (an episode never "ends");
//   lock-free  spin at most kHelpDelay rounds, then fall back to helping
//              the holder. Helping is *delayed, never skipped*, so the
//              lock-freedom argument is untouched: a waiter converts to a
//              helper after a bounded number of its own steps.
//
// The policy is fixed at compile time: kBackoffMinSpins / kBackoffMaxSpins
// pauses per round and kHelpDelay rounds (config.hpp; 16 / 2048 / 8).
// The per-thread xorshift state lives in thread_context,
// so an episode costs no TLS fetches beyond the context pointer the lock
// paths already hold.
#pragma once

#include <cstdint>
#include <thread>

#include "config.hpp"
#include "thread_context.hpp"

namespace flock {
namespace detail {

/// Polite spin-wait hint. Must be cheap: this sits inside the backoff
/// loop, so a full barrier here would serialize the very path that is
/// trying to back off.
inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  // Unknown ISA: a compiler-only barrier keeps the loop from being
  // collapsed without issuing any fence instruction.
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Per-thread xorshift64 step (state in the thread context; lazily seeded
/// from the dense id so every thread draws a distinct sequence).
inline uint64_t backoff_rand(thread_context* c) {
  uint64_t x = c->backoff_rng;
  if (x == 0) [[unlikely]]
    x = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(c->id + 2);
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  c->backoff_rng = x;
  return x;
}

/// One backoff episode: construct when a held lock is first observed,
/// call spin() per re-check. Touches no shared state: the policy is the
/// config.hpp constants.
class backoff {
 public:
  explicit backoff(thread_context* c) noexcept : c_(c) {}

  /// Spin one randomized round and grow the next round's budget; once the
  /// budget is capped, yield instead so a descheduled holder can run.
  void spin() noexcept {
    uint32_t n =
        kBackoffMinSpins + static_cast<uint32_t>(backoff_rand(c_) % limit_);
    for (uint32_t i = 0; i < n; i++) cpu_pause();
    stat_add(c_->stat.backoff_spins, n);
    if (limit_ < kBackoffMaxSpins) {
      limit_ = limit_ << 1 < kBackoffMaxSpins ? limit_ << 1 : kBackoffMaxSpins;
    } else {
      std::this_thread::yield();
    }
    rounds_++;
  }

  /// Lock-free waiters: true once the episode's round budget is spent and
  /// the waiter must convert to a helper.
  bool exhausted() const noexcept { return rounds_ >= kHelpDelay; }

 private:
  thread_context* c_;
  uint32_t limit_ = kBackoffMinSpins;
  uint32_t rounds_ = 0;
};

}  // namespace detail
}  // namespace flock
