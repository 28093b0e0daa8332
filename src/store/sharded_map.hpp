// sharded_map.hpp — the store tier: a router that partitions the key
// space across N independently-resizing hashtables. This is the
// composition step the lock-free-locks construction makes cheap (paper
// §1's "atomically move data among structures"; the survey direction in
// Cederman et al., "Lock-free Concurrent Data Structures"): each shard is
// a complete flock_ds::hashtable with its own bucket array, occupancy
// counter shards, migration cursor, and grow/shrink lifecycle, so
// counter traffic and resize migrations never cross a shard boundary —
// on a NUMA box, pin one shard per socket and the router is the only
// shared read. (Epoch reclamation stays runtime-global: it is per-thread
// state, not per-container, and already contention-free.)
//
// Routing: shard_of(k) takes the TOP log2(N) bits of splitmix64(k), while
// each shard's hashtable buckets index with the LOW bits of the same
// hash. Disjoint bit ranges keep the two decisions independent — the same
// lesson as the prefill-parity bug (workload/driver.hpp): any selector
// correlated with the bucket index bit-aliases entire bucket classes
// empty. With low-bit shard routing, shard s would only ever populate
// buckets whose index is congruent to s — every shard table 1/N empty.
// find() hashes once and hands the word down, so a read pays one
// splitmix64 for both decisions.
//
// Cross-shard movement: try_move(sharded_map&, sharded_map&, k) routes
// both endpoints to their shard tables and runs the hashtable try_move —
// one nest of bucket critical sections ordered by bucket address, the
// acyclic-lock-order discipline of ds/move.hpp (Theorem 4.2), so it
// composes with in-flight resizes on either side. rebalance_into() loops
// that move to migrate a store onto a different shard layout online (see
// below).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "chaos/faultpoint.hpp"
#include "ds/hashtable.hpp"
#include "ds/move.hpp"
#include "flock/flock.hpp"

namespace flock_store {

template <class K, class V, bool Strict>
class sharded_map;

template <class K, class V, bool Strict>
bool try_move(sharded_map<K, V, Strict>& from, sharded_map<K, V, Strict>& to,
              std::type_identity_t<K> k);

template <class K, class V, bool Strict = false>
class sharded_map {
 public:
  using shard_t = flock_ds::hashtable<K, V, Strict>;

  /// `shards` is rounded up to a power of two; `size_hint` is the
  /// expected TOTAL key count, split evenly across shards (each shard
  /// grows — and now shrinks — on its own, so both are optimizations,
  /// not capacities).
  explicit sharded_map(std::size_t shards = 8, std::size_t size_hint = 0) {
    std::size_t s = 1;
    while (s < shards) s <<= 1;
    shard_bits_ = 0;
    for (std::size_t b = s; b > 1; b >>= 1) shard_bits_++;
    shards_.reserve(s);
    for (std::size_t i = 0; i < s; i++)
      shards_.push_back(std::make_unique<shard_t>(size_hint / s));
  }

  bool insert(K k, V v) { return shard_for(k).insert(k, v); }
  bool remove(K k) { return shard_for(k).remove(k); }

  /// Read path: hash once, route on the top bits, and hand the same word
  /// to the shard table's find, whose bucket index takes the low bits
  /// (its seqlock snapshot walk, falling back to the logged walk).
  std::optional<V> find(K k) {
    const uint64_t h = shard_t::hash_of(k);
    return shards_[shard_index(h)]->find(k, h);
  }

  /// Exact resident-key count: O(total buckets) epoch-guarded scan summed
  /// across shards (exact only at quiescence, like hashtable::size).
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s->size();
    return n;
  }

  /// O(shards * kCountShards) estimate off the per-shard occupancy
  /// counters — the stats-line read; never touches a bucket.
  std::size_t approx_size() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s->approx_size();
    return n;
  }

  /// Total bucket capacity across shards (each shard reports the newest
  /// table of its own resize lifecycle).
  std::size_t bucket_count() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s->bucket_count();
    return n;
  }

  /// Resizes initiated across all shards, by direction.
  std::size_t grow_count() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s->grow_count();
    return n;
  }
  std::size_t shrink_count() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s->shrink_count();
    return n;
  }

  template <class F>
  void for_each(F&& f) const {
    for (const auto& s : shards_) s->for_each(f);
  }

  /// Every shard's own chain/membership invariants, PLUS the router's:
  /// each resident key must live in the shard its hash routes to (a key
  /// in the wrong shard is unreachable through the public API — exactly
  /// the corruption a broken cross-shard move would leave behind).
  bool check_invariants() const {
    bool ok = true;
    for (std::size_t i = 0; i < shards_.size(); i++) {
      if (!shards_[i]->check_invariants()) ok = false;
      shards_[i]->for_each([&](K k, const V&) {
        if (shard_of(k) != i) ok = false;
      });
    }
    return ok;
  }

  std::size_t shard_count() const { return shards_.size(); }
  shard_t& shard(std::size_t i) { return *shards_[i]; }
  const shard_t& shard(std::size_t i) const { return *shards_[i]; }
  std::size_t shard_of(K k) const { return shard_index(shard_t::hash_of(k)); }

  struct rebalance_report {
    std::size_t moved = 0;       // keys that changed stores
    std::size_t settled = 0;     // definitively done (raced away/ahead)
    std::size_t exhausted = 0;   // still pending after the attempt budget
    bool budget_spent = false;   // stopped on `budget`, keys may remain
  };

  /// Online resharding hook: move up to `budget` resident keys into
  /// `dst` (typically the same data on a different shard layout), each
  /// via the validated cross-shard try_move, so no key is ever lost or
  /// duplicated even against concurrent updaters on both stores. Drives
  /// move_retry_ex and keeps its three outcomes separate: a key that
  /// raced away (removed, or already moved by a concurrent rebalancer)
  /// is settled, while an attempt-budget exhaustion is reported as
  /// pending — callers loop until a pass reports nothing moved and
  /// nothing exhausted. During a migration window the stores do not
  /// route reads for each other: a caller that must not miss a resident
  /// key probes `*this` (the SOURCE) first and falls back to `dst` only
  /// on a miss. Source-first is forced by the move's splice order:
  /// try_move publishes the key in the destination before hiding it in
  /// the source, so "absent in source" implies the destination
  /// publication already happened and the fallback probe must find it.
  /// Probing dst first admits a false miss (dst probed before the
  /// publication, source after the removal). The stores themselves stay
  /// individually consistent throughout.
  rebalance_report rebalance_into(sharded_map& dst, std::size_t budget,
                                  int attempts_per_key = 1 << 10) {
    rebalance_report rep;
    std::vector<K> batch;
    batch.reserve(budget);
    for (const auto& s : shards_) {
      if (batch.size() >= budget) break;
      // Early-exit scan: filling the batch costs O(budget), not
      // O(resident keys), so a budget-bounded pass stays bounded even
      // on a huge store.
      s->for_each_until([&](K k, const V&) {
        if (batch.size() >= budget) return false;
        batch.push_back(k);
        return true;
      });
    }
    rep.budget_spent = batch.size() >= budget;
    for (K k : batch) {
      switch (flock_ds::move_retry_ex(*this, dst, k, attempts_per_key)) {
        case flock_ds::move_outcome::moved:
          rep.moved++;
          break;
        case flock_ds::move_outcome::not_movable:
          rep.settled++;
          break;
        case flock_ds::move_outcome::exhausted:
          rep.exhausted++;
          break;
      }
    }
    return rep;
  }

 private:
  template <class K2, class V2, bool S2>
  friend bool try_move(sharded_map<K2, V2, S2>&, sharded_map<K2, V2, S2>&,
                       std::type_identity_t<K2>);

  shard_t& shard_for(K k) { return *shards_[shard_of(k)]; }
  std::size_t shard_index(uint64_t h) const {
    return shard_bits_ == 0 ? 0
                            : static_cast<std::size_t>(h >> (64 - shard_bits_));
  }

  std::vector<std::unique_ptr<shard_t>> shards_;
  std::size_t shard_bits_ = 0;
};

/// Atomically move key `k` between two sharded stores (which may have
/// different shard counts — this is the resharding primitive). Routing on
/// each side picks the shard table; the rest is the hashtable try_move:
/// both splices inside one validated nest of bucket critical sections
/// ordered by bucket address, composing with in-flight grow/shrink on
/// either shard. Returns false — changing nothing — if k is absent in
/// `from`, already present in `to`, or any lock/validation fails
/// transiently (callers retry, e.g. via move_retry_ex in ds/move.hpp).
template <class K, class V, bool Strict>
bool try_move(sharded_map<K, V, Strict>& from, sharded_map<K, V, Strict>& to,
              std::type_identity_t<K> k) {
  if (&from == &to) return false;  // same store: routing is a no-op
  // Window: both endpoints routed, the nested bucket critical sections
  // not yet entered — the store tier's hand-off into the ds-tier nest.
  FLOCK_FAULTPOINT("store.move.pre_nest");
  return flock_ds::try_move(from.shard_for(k), to.shard_for(k), k);
}

}  // namespace flock_store
