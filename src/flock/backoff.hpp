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
//   lock-free  spin at most help_delay rounds, then fall back to helping
//              the holder. Helping is *delayed, never skipped*, so the
//              lock-freedom argument is untouched: a waiter converts to a
//              helper after a bounded number of its own steps.
//
// Tunables (min/max spins per round, help_delay) live in config.hpp:
// 16 / 2048 / 8 by default, replaceable at run time with set_backoff().
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
/// call spin() per re-check. Reads the tunables once at construction so
/// the rounds themselves touch no shared configuration state.
class backoff {
 public:
  explicit backoff(thread_context* c) noexcept
      : c_(c), t_(backoff_cfg()), limit_(t_.min_spins) {}

  /// Spin one randomized round and grow the next round's budget; once the
  /// budget is capped, yield instead so a descheduled holder can run.
  void spin() noexcept {
    uint32_t n =
        t_.min_spins + static_cast<uint32_t>(backoff_rand(c_) % limit_);
    for (uint32_t i = 0; i < n; i++) cpu_pause();
    stat_add(c_->stat_backoff_spins, n);
    if (limit_ < t_.max_spins) {
      limit_ = limit_ << 1 < t_.max_spins ? limit_ << 1 : t_.max_spins;
    } else {
      std::this_thread::yield();
    }
    rounds_++;
  }

  /// Lock-free waiters: true once the episode's round budget is spent and
  /// the waiter must convert to a helper (help_delay = 0 means helping is
  /// never throttled).
  bool exhausted() const noexcept { return rounds_ >= t_.help_delay; }

 private:
  thread_context* c_;
  backoff_tunables t_;
  uint32_t limit_;
  uint32_t rounds_ = 0;
};

}  // namespace detail
}  // namespace flock
