// write_once.hpp — update-once locations (paper §6 "Constants and
// Update-once Locations").
//
// A write_once<T> has an initial value and is updated at most once. Reads
// may happen before or after the update, so loads must still be logged
// (different runs of a thunk must agree on which side of the update they
// saw). But the store can be a plain write: all runs of the storing thunk
// compute the same value (they are synchronized), and repeated writes of
// one value to a location nothing else writes are idempotent. Update-once
// locations are ABA-free by construction, so no tag is needed.
#pragma once

#include <atomic>
#include <cstdint>

#include "chaos/faultpoint.hpp"
#include "log.hpp"
#include "tagged.hpp"

namespace flock {

template <class T>
class write_once {
 public:
  write_once() : word_(0) {}
  explicit write_once(T v) : word_(to_bits48(v)) {}
  write_once(const write_once&) = delete;
  write_once& operator=(const write_once&) = delete;

  // mo: relaxed — pre-publication init; the object becomes shared only
  // through a subsequent release operation (pool allocate / CS publish).
  void init(T v) { word_.store(to_bits48(v), std::memory_order_relaxed); }

  /// Idempotent (logged) load: one context fetch, then the log's commit
  /// core (compare-and-compare-and-swap, log.hpp).
  T load() const {
    detail::thread_context* c = detail::my_ctx();
    // mo: acquire — pairs with store()'s release so a reader that sees
    // the updated value also sees everything published before it (e.g.
    // the bucket copies a forwarded flag covers).
    uint64_t b = word_.load(std::memory_order_acquire);
    if (c->log.block != nullptr) b = detail::commit_raw_ctx(c, b).first;
    return from_bits48<T>(b);
  }

  /// The single allowed update; a plain release write (§6). The moment
  /// before publication is a protocol window (e.g. a forwarded flag not
  /// yet visible while its bucket's copies already are), so the schedule
  /// explorer gets a yield point here; erased without FLOCK_CHAOS.
  void store(T v) {
    FLOCK_SCHEDPOINT(wo_publish);
    // mo: release — the §6 publication write: everything the storing
    // thunk wrote before this flag must be visible to any acquire reader
    // that observes the new value.
    word_.store(to_bits48(v), std::memory_order_release);
  }

  write_once& operator=(T v) {
    store(v);
    return *this;
  }

  T read_raw() const {
    // mo: acquire — same pairing as load(): raw readers (epoch-guarded
    // scans, forwarded-flag chases) must see the writes the flag covers.
    return from_bits48<T>(word_.load(std::memory_order_acquire));
  }

 private:
  std::atomic<uint64_t> word_;
};

}  // namespace flock
