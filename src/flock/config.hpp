// config.hpp — the library's constants and its one run-time switch, the
// lock mode (set_blocking). The contended-path backoff policy is constants
// too (kBackoffMinSpins, kBackoffMaxSpins, kHelpDelay below).
//
// Compare-and-compare-and-swap (§6 "Avoiding CASes") is not among them:
// log commits and logged CASes always pre-check (log.hpp, mutable.hpp).
//
// Part of the Flock reproduction ("Lock-Free Locks Revisited", PPoPP 2022).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace flock {

// Cache line size used for padding shared per-thread slots.
inline constexpr std::size_t kCacheLine = 64;

// Hard cap on concurrently registered threads (ids are recycled on thread
// exit, so the cap applies to *live* threads, not total threads created).
inline constexpr int kMaxThreads = 512;

// Entries per log block (paper §6 "Arbitrary Length Logs": default 7).
inline constexpr int kLogBlockEntries = 7;

// Inline storage for thunks captured by descriptors: with it a descriptor
// is three cache lines (descriptor.hpp). A larger capture is a compile
// error (see thunk.hpp).
inline constexpr std::size_t kThunkInlineBytes = 64;

/// Run-time switch between the two lock modes (paper §7: "this choice can
/// be made by changing a flag at runtime").
///   blocking  — test-and-test-and-set locks, no logging, no helping.
///   lock-free — descriptor-based helping with idempotence logs (Alg. 3).
inline std::atomic<bool>& blocking_flag() noexcept {
  static std::atomic<bool> flag{false};
  return flag;
}

// The mode is a configuration knob flipped only at quiescence (tests/bench
// setup); operations never change it mid-flight, so no ordering with data
// accesses is needed, only eventual visibility.
inline void set_blocking(bool b) noexcept {
  // mo: relaxed — quiescent configuration knob (see above).
  blocking_flag().store(b, std::memory_order_relaxed);
}
inline bool is_blocking() noexcept {
  // mo: relaxed — see set_blocking.
  return blocking_flag().load(std::memory_order_relaxed);
}

/// RAII scope that selects a lock mode and restores the previous one.
class mode_guard {
 public:
  explicit mode_guard(bool blocking) : prev_(is_blocking()) {
    set_blocking(blocking);
  }
  mode_guard(const mode_guard&) = delete;
  mode_guard& operator=(const mode_guard&) = delete;
  ~mode_guard() { set_blocking(prev_); }

 private:
  bool prev_;
};

// --- contended-path backoff (backoff.hpp / lock.hpp) ------------------------
//
// One randomized-exponential-backoff *round* pauses between kBackoffMinSpins
// and kBackoffMinSpins + current limit iterations; the limit doubles each
// round up to kBackoffMaxSpins, after which rounds yield instead of growing.
// A lock-free waiter runs at most kHelpDelay rounds before it falls back to
// helping the lock holder (helping is delayed, never skipped, so
// lock-freedom is preserved).
inline constexpr uint32_t kBackoffMinSpins = 16;
inline constexpr uint32_t kBackoffMaxSpins = 2048;
inline constexpr uint32_t kHelpDelay = 8;
static_assert(kBackoffMinSpins >= 1, "a round must pause");
static_assert(kBackoffMaxSpins >= kBackoffMinSpins,
              "the doubling must terminate");
static_assert(kHelpDelay >= 1 && kHelpDelay <= 256,
              "a waiter's pre-help delay must be bounded and nonzero");

}  // namespace flock
