// config.hpp — build-time and run-time knobs shared by the whole library.
//
// Part of the Flock reproduction ("Lock-Free Locks Revisited", PPoPP 2022).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

namespace flock {

// Cache line size used for padding shared per-thread slots.
inline constexpr std::size_t kCacheLine = 64;

// Hard cap on concurrently registered threads (ids are recycled on thread
// exit, so the cap applies to *live* threads, not total threads created).
inline constexpr int kMaxThreads = 512;

// Entries per log block (paper §6 "Arbitrary Length Logs": default 7).
inline constexpr int kLogBlockEntries = 7;

// Inline storage for thunks captured by descriptors. Larger lambdas fall
// back to the heap (see thunk.hpp).
inline constexpr std::size_t kThunkInlineBytes = 104;

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

// Compare-and-compare-and-swap toggle (paper §6 "Avoiding CASes").
// On by default; the micro bench flips it off to measure the ablation.
inline std::atomic<bool>& ccas_flag() noexcept {
  static std::atomic<bool> flag{true};
  return flag;
}
inline void set_ccas(bool b) noexcept {
  // mo: relaxed — quiescent configuration knob, same contract as
  // set_blocking above.
  ccas_flag().store(b, std::memory_order_relaxed);
}
inline bool use_ccas() noexcept {
  // mo: relaxed — see set_ccas.
  return ccas_flag().load(std::memory_order_relaxed);
}

// --- contended-path backoff tunables (backoff.hpp / lock.hpp) --------------
//
// One randomized-exponential-backoff *round* pauses between min_spins and
// min_spins + current limit iterations; the limit doubles each round up to
// max_spins, after which rounds yield instead of growing. A lock-free
// waiter runs at most help_delay rounds before it falls back to helping
// the lock holder (helping is delayed, never skipped, so lock-freedom is
// preserved; help_delay = 0 disables throttling and helps immediately).
struct backoff_tunables {
  uint32_t min_spins = 16;
  uint32_t max_spins = 2048;
  uint32_t help_delay = 8;
};

/// Clamp to the ranges the spin loops assume (min >= 1 so a round always
/// pauses; max >= min so the doubling terminates; help_delay bounded so a
/// waiter's pre-help delay stays finite even with a hostile environment).
inline backoff_tunables clamp_backoff(backoff_tunables t) noexcept {
  if (t.min_spins < 1) t.min_spins = 1;
  if (t.min_spins > (1u << 16)) t.min_spins = 1u << 16;
  if (t.max_spins < t.min_spins) t.max_spins = t.min_spins;
  if (t.max_spins > (1u << 20)) t.max_spins = 1u << 20;
  if (t.help_delay > 256) t.help_delay = 256;
  return t;
}

/// Parse env-style strings (nullptr = keep default, garbage parses as 0 and
/// clamps). Split from the getenv call so tests can exercise parse+clamp
/// without mutating the process environment.
inline backoff_tunables backoff_tunables_from(const char* min_s,
                                              const char* max_s,
                                              const char* delay_s) noexcept {
  backoff_tunables t;
  if (min_s != nullptr)
    t.min_spins = static_cast<uint32_t>(std::strtoul(min_s, nullptr, 10));
  if (max_s != nullptr)
    t.max_spins = static_cast<uint32_t>(std::strtoul(max_s, nullptr, 10));
  if (delay_s != nullptr)
    t.help_delay = static_cast<uint32_t>(std::strtoul(delay_s, nullptr, 10));
  return clamp_backoff(t);
}

/// The production env wiring, shared with the test that guards it: any
/// typo in these names would silently disable the knob, so the test calls
/// this exact function after setenv'ing the real names.
inline backoff_tunables backoff_tunables_from_env() noexcept {
  return backoff_tunables_from(std::getenv("FLOCK_BACKOFF_MIN"),
                               std::getenv("FLOCK_BACKOFF_MAX"),
                               std::getenv("FLOCK_HELP_DELAY"));
}

namespace detail {
// The live tunables are three relaxed atomics (not a plain struct):
// set_backoff() is advertised for runtime sweeping, so it may race with
// backoff episodes snapshotting the values on the contended paths. Each
// field is individually clamped at write time, so even a sweep landing
// between two reads yields a usable (min >= 1) snapshot — at worst one
// episode mixes old and new fields.
struct backoff_state_t {
  std::atomic<uint32_t> min_spins;
  std::atomic<uint32_t> max_spins;
  std::atomic<uint32_t> help_delay;
};
inline backoff_state_t& backoff_state() noexcept {
  static backoff_tunables init = backoff_tunables_from_env();
  static backoff_state_t s{{init.min_spins}, {init.max_spins},
                           {init.help_delay}};
  return s;
}
}  // namespace detail

/// Snapshot of the process-wide tunables (initialized once from
/// FLOCK_BACKOFF_MIN / FLOCK_BACKOFF_MAX / FLOCK_HELP_DELAY).
inline backoff_tunables backoff_cfg() noexcept {
  auto& s = detail::backoff_state();
  // mo: relaxed (all three) — tunables only shape backoff timing, never
  // correctness; a mixed old/new snapshot is explicitly tolerated (see
  // the racing-sweep note above backoff_state_t).
  return {s.min_spins.load(std::memory_order_relaxed),
          s.max_spins.load(std::memory_order_relaxed),
          s.help_delay.load(std::memory_order_relaxed)};
}

/// Replace the live tunables (clamped). Safe to call while other threads
/// run lock traffic; benchmarks/tests can sweep without re-execing.
inline void set_backoff(backoff_tunables t) noexcept {
  t = clamp_backoff(t);
  auto& s = detail::backoff_state();
  // mo: relaxed (all three) — each field is clamped-valid on its own, so
  // readers need no cross-field ordering; see backoff_cfg.
  s.min_spins.store(t.min_spins, std::memory_order_relaxed);
  s.max_spins.store(t.max_spins, std::memory_order_relaxed);
  s.help_delay.store(t.help_delay, std::memory_order_relaxed);  // mo: ditto
}

}  // namespace flock
