// hashtable.hpp — separate-chaining hash table (paper §7 "a separate
// chaining hashtable") with incremental, non-blocking resizing — in BOTH
// directions — built out of the same lock-free locks.
//
// Layout: an epoch-protected `table` (bucket array + mask) hangs behind a
// flock::mutable_ root pointer. Each bucket is a sorted chain of lock-free
// nodes guarded by ONE lock on the bucket head; at load factor ~1 chains
// hold a node or two, so bucket-grained locking costs no more than the
// old per-predecessor scheme and gives migration a single point at which
// a whole bucket can be frozen. Buckets carry only {chain, forwarded
// flag, lock} and nodes only {chain, deleted flag, k, v} — no dead lock
// word on every key.
//
// Migration engine (forwarding marks in the spirit of Harris-style
// migration; one migration *unit* per lock-free-lock critical section).
// Grow and shrink are two policies over one mechanism — they share the
// successor install, the claim cursor, the forwarded-flag protocol, the
// migrated count, completion recovery, and the root swing; they differ
// only in the shape of a unit:
//  * grow  (2x successor):   unit u SPLITS old bucket u into successor
//    buckets u and u+n (one source per destination bucket);
//  * shrink (half successor): unit u MERGES old buckets u and u+n/2 into
//    successor bucket u, under both old-bucket locks nested in address
//    order, building the merged chain privately and publishing it with
//    ONE store before either forwarded flag is set (two sources per
//    destination, so the destination must appear atomically).
//
// Protocol:
//  * Occupancy is tracked in sharded counters bumped by successful
//    updates; every 16th update per shard re-evaluates the resize policy.
//    At load factor >= 1 an updater installs a 2x successor in
//    `root->next`; at load factor < 1/4 (and above the floor) a half-size
//    successor. The 1/4-vs-1 gap is the hysteresis band: right after a
//    grow the count is ~n/2 (needs to fall 2x before shrinking), right
//    after a shrink ~n/2 (needs to double before growing), so a steady
//    workload cannot thrash. Successors are only ever installed on the
//    root table, so at most one resize is in flight and a successor's
//    buckets cannot themselves forward while still receiving chains.
//  * Migration proceeds unit-by-unit. A unit's critical section copies
//    the frozen chain(s) into the successor (chains are sorted; a grow
//    splits on one hash bit and a shrink merges two disjoint sorted
//    chains, so sortedness is preserved), publishes the new chains,
//    marks the old bucket(s) "forwarded" (their write_once flags), and
//    only then retires the originals, which new readers can no longer
//    reach. Every step is idempotent, so helpers can replay the thunk
//    safely. The source chains are frozen while the unit holds their
//    locks and forever after, so the unit logs only its flag checks
//    (paper §6, constants): it walks the chains unlogged, allocates the
//    copies back to front with each `next` set at construction (so the
//    successor bucket heads are its only stores), and retires all its
//    source chains under a single log slot.
//  * Updaters re-validate the forwarded flag inside their own critical
//    section (same lock), so a forwarded bucket is frozen forever; any
//    operation that lands on one chases `table->next`. Updaters that
//    find a resize in progress migrate their own unit first (old
//    tables only ever drain), then claim one contiguous chunk of units
//    from a shared cursor and migrate it — once per table per update,
//    whether their bucket was live or they were merely chasing through a
//    forwarded one, so the straggler tail cannot serialize back-to-back
//    resizes and no single update pays for more than one chunk.
//  * Readers never lock and never help: chains are copied, not spliced,
//    so a scan that raced a migration still sees the frozen pre-forward
//    chain, and the forwarded flag is published only after the successor
//    chains are in place (see find() for the ordering argument).
//  * When the last bucket forwards, the winning migrator swings the root
//    to the successor and retires the drained table through the epoch
//    machinery (array-typed retire for the bucket array). Completion is
//    also re-derivable from the forwarded flags themselves (see
//    help_resize), so no single stalled thread can wedge the resize.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "chaos/faultpoint.hpp"
#include "flock/flock.hpp"
#include "hash.hpp"

namespace flock_ds {

template <class K, class V, bool Strict>
class hashtable;

template <class K, class V, bool Strict>
bool try_move(hashtable<K, V, Strict>& from, hashtable<K, V, Strict>& to,
              std::type_identity_t<K> k);

template <class K, class V, bool Strict = false>
class hashtable {
  struct node;

  /// Fields shared by a bucket head and a chain node: the link that a
  /// predecessor-of-cur may be either, and the freeze flag (a node's
  /// "deleted", a bucket's "forwarded") that validation reads through the
  /// same pointer.
  struct chain_head {
    flock::mutable_<node*> next;
    flock::write_once<bool> removed;
  };

  struct node : chain_head {
    const K k;
    const V v;
    node(K key, V val, node* nxt) : k(key), v(val) {
      this->next.init(nxt);
      this->removed.init(false);
    }
  };

  struct bucket : chain_head {
    flock::lock lck;  // the bucket lock: every update to the chain and
                      // the bucket's one migration run under it
  };
  // One word each for the chain link, the forwarded flag and the lock;
  // K and V live only in nodes.
  static_assert(sizeof(bucket) == 24);

  struct table {
    std::size_t mask = 0;                   // buckets - 1 (power of two)
    bucket* buckets = nullptr;              // array_new<bucket>(mask + 1)
    flock::mutable_<table*> next;           // successor during a resize
    std::atomic<std::size_t> migrated{0};   // forwarded-bucket count
    std::atomic<std::size_t> cursor{0};     // shared migration claim cursor
    std::atomic<bool> resize_hint{false};   // an allocator is building `next`

    std::size_t nbuckets() const { return mask + 1; }
  };

  struct alignas(flock::kCacheLine) counter_shard {
    std::atomic<long long> n{0};    // occupancy delta owned by this shard
    std::atomic<uint64_t> ops{0};   // update tick (drives policy re-checks)
  };

  static constexpr std::size_t kMinBuckets = 64;
  static constexpr int kCountShards = 32;  // power of two
  static constexpr std::size_t kMigrateBatch = 8;  // units per helped chunk
  // A chunk never straddles the cursor wrap: unit counts are powers of
  // two >= kMinBuckets and the cursor moves only in whole chunks.
  static_assert(kMinBuckets % kMigrateBatch == 0);

 public:
  /// `size_hint`: expected number of keys; the initial bucket count is the
  /// next power of two >= size_hint (load factor ~1). The table now grows
  /// on its own, so the hint is an optimization, not a capacity.
  explicit hashtable(std::size_t size_hint = kMinBuckets) {
    std::size_t b = kMinBuckets;
    while (b < size_hint) b <<= 1;
    table* t = make_table(b);
    if (t == nullptr) {
      // The initial table has no degraded mode to fall back to (a resize
      // can be deferred, construction cannot), so this is the one
      // allocation failure the table treats as fatal — loudly, not UB.
      std::fprintf(stderr, "flock_ds::hashtable: initial table allocation failed\n");
      std::abort();
    }
    root_.init(t);
  }

  ~hashtable() {
    // Quiescent teardown. Chains of forwarded buckets were already handed
    // to the epoch machinery by their migration; only live chains and the
    // tables themselves are freed here.
    table* t = root_.read_raw();
    while (t != nullptr) {
      table* nxt = t->next.read_raw();
      for (std::size_t i = 0; i <= t->mask; i++) {
        bucket* s = &t->buckets[i];
        if (s->removed.read_raw()) continue;
        node* c = s->next.read_raw();
        while (c != nullptr) {
          node* cn = c->next.read_raw();
          flock::pool_delete(c);
          c = cn;
        }
      }
      free_table(t);
      t = nxt;
    }
  }

  std::optional<V> find(K k) { return find(k, hash_of(k)); }

  /// find with the key's hash precomputed (the store tier hashes once and
  /// derives shard and bucket index from the same word): one epoch-guarded
  /// lock-free walk that never locks and never helps. The loads are
  /// mutable_/write_once loads, so a find issued inside a thunk is logged
  /// and stays idempotent; outside one they are plain acquire loads.
  std::optional<V> find(K k, uint64_t h) {
    return flock::with_epoch([&]() -> std::optional<V> {
      const table* t = root_.load();
      while (true) {
        const bucket* s = &t->buckets[static_cast<std::size_t>(h) & t->mask];
        if (!s->removed.load()) {
          // Not forwarded when we looked. If a migration completes under
          // the walk the chain is left frozen (migration copies, never
          // splices), so whatever the walk observes is the bucket's
          // authoritative pre-forward state and both hit and miss
          // linearize within this find; no version check is needed. The
          // flag is published only after the successor chains, so a set
          // flag always finds `next` installed.
          FLOCK_SCHEDPOINT(ht_read_post_flag);
          node* cur = s->next.load();
          while (cur != nullptr && cur->k < k) cur = cur->next.load();
          if (cur != nullptr && cur->k == k && !cur->removed.load())
            return cur->v;
          return std::nullopt;
        }
        t = t->next.read_raw();  // forwarded => successor exists
      }
    });
  }

 public:

  bool insert(K k, V v) {
    return flock::with_epoch([&] {
      while (true) {
        bucket* s = locate_update(k);
        auto [prev, cur] = search_from(s, k);
        // "Already present" needs the same removed-flag test find() uses:
        // a key mid-remove (flag set, unlink not yet visible) is absent.
        // Falling through is fine — the critical section's prev->next
        // validation fails against the completed unlink and we retry.
        if (cur != nullptr && cur->k == k && !cur->removed.load())
          return false;
        const bool ok = flock::acquire<Strict>(s->lck, [=] {
          if (s->removed.load()) return false;  // forwarded meanwhile
          if (prev != s && prev->removed.load()) return false;
          if (prev->next.load() != cur) return false;
          node* n = flock::allocate<node>(k, v, cur);
          prev->next = n;
          return true;
        });
        if (ok) {
          note_update(+1);
          return true;
        }
      }
    });
  }

  bool remove(K k) {
    return flock::with_epoch([&] {
      while (true) {
        bucket* s = locate_update(k);
        auto [prev, cur] = search_from(s, k);
        if (cur == nullptr || cur->k != k) return false;
        const bool ok = flock::acquire<Strict>(s->lck, [=] {
          if (s->removed.load()) return false;  // forwarded meanwhile
          if (prev != s && prev->removed.load()) return false;
          if (cur->removed.load()) return false;
          if (prev->next.load() != cur) return false;
          cur->removed = true;
          prev->next = cur->next.load();
          flock::retire<node>(cur);
          return true;
        });
        if (ok) {
          note_update(-1);
          return true;
        }
      }
    });
  }

  /// Quiescent audits (epoch-guarded so concurrent retirement cannot free
  /// a node mid-scan; counts are exact only at quiescence). -----------------

  std::size_t size() const {
    return flock::with_epoch([&] {
      std::size_t n = 0;
      for_each_live_bucket([&](const table*, std::size_t, const bucket* s) {
        for (node* c = s->next.read_raw(); c != nullptr;
             c = c->next.read_raw())
          n++;
      });
      return n;
    });
  }

  /// O(kCountShards) size estimate read off the sharded occupancy
  /// counters — the stats-line companion to the O(n) exact size() scan.
  /// Exact at quiescence (every successful update bumps exactly one
  /// shard); during a run it can lag in-flight updates by a few.
  std::size_t approx_size() const {
    long long c = approx_count();
    return c > 0 ? static_cast<std::size_t>(c) : 0;
  }

  /// Resizes initiated since construction, by direction. Test support for
  /// hysteresis audits (a steady mid-band workload must not thrash).
  std::size_t grow_count() const {
    // mo: relaxed — monotone stat counter; callers only need a value.
    return grows_.load(std::memory_order_relaxed);
  }
  std::size_t shrink_count() const {
    // mo: relaxed — monotone stat counter; callers only need a value.
    return shrinks_.load(std::memory_order_relaxed);
  }

  /// Resizes this table wanted but could not start because the successor
  /// allocation failed (injected or real OOM); each deferral re-armed the
  /// trigger. See maybe_resize.
  std::size_t resize_deferrals() const {
    // mo: relaxed — monotone stat counter; callers only need a value.
    return deferrals_.load(std::memory_order_relaxed);
  }

  /// Sorted chains, no removed node reachable, and every key resident in
  /// the bucket its hash selects in that table (cross-bucket corruption).
  /// With `audit_migration` set, additionally flags a stuck migration
  /// (see migration_stuck) — off by default because the audit observes a
  /// time window and would flake tests that merely pause mid-resize.
  bool check_invariants(bool audit_migration = false) const {
    if (audit_migration && migration_stuck()) return false;
    return flock::with_epoch([&] {
      bool ok = true;
      for_each_live_bucket([&](const table* t, std::size_t i,
                               const bucket* s) {
        const node* prev = nullptr;
        for (node* c = s->next.read_raw(); c != nullptr;
             c = c->next.read_raw()) {
          if (c->removed.read_raw()) ok = false;
          if (prev != nullptr && !(prev->k < c->k)) ok = false;
          if ((static_cast<std::size_t>(hash_of(c->k)) & t->mask) != i)
            ok = false;  // key lives in a bucket its hash does not select
          prev = c;
        }
      });
      return ok;
    });
  }

  /// Stuck-migration audit: true when a resize is in flight and made no
  /// observable progress — forwarded-bucket count, migrated count, and
  /// claim cursor all static — across a bounded observation window. The
  /// audit is read-only (it never helps), so a positive result means no
  /// OTHER thread is currently draining the resize. That is not a
  /// permanent wedge — migration is helper-driven, so any future update
  /// traffic unsticks it — but it is exactly the signature a killed
  /// migrator leaves behind when no helpers are running.
  bool migration_stuck(int window_spins = 1 << 15) const {
    return flock::with_epoch([&] {
      table* t = root_.read_raw();
      table* nt = t->next.read_raw();
      if (nt == nullptr) return false;  // no resize in flight
      // mo: acquire (all four) — the audit compares progress counters
      // across a window; acquire keeps each sample no older than the
      // migration publications it summarizes.
      const std::size_t m0 = t->migrated.load(std::memory_order_acquire);
      const std::size_t c0 = t->cursor.load(std::memory_order_acquire);  // mo: ditto
      const std::size_t f0 = forwarded_count(t);
      for (int i = 0; i < window_spins; i++) flock::detail::cpu_pause();
      if (root_.read_raw() != t || t->next.read_raw() != nt)
        return false;  // resize chain moved: progress
      // mo: acquire — see the first sample above.
      return t->migrated.load(std::memory_order_acquire) == m0 &&
             t->cursor.load(std::memory_order_acquire) == c0 &&
             forwarded_count(t) == f0;
    });
  }

  /// Bucket count of the newest table (the capacity the structure is
  /// growing into during a resize).
  std::size_t bucket_count() const {
    return flock::with_epoch([&] { return newest_table()->nbuckets(); });
  }

  /// Number of keys that map to each bucket of the newest table (keys in
  /// not-yet-migrated buckets are attributed to where they will land).
  /// Test support for hash/occupancy-uniformity audits.
  std::vector<std::size_t> bucket_occupancy() const {
    return flock::with_epoch([&] {
      const table* last = newest_table();
      std::vector<std::size_t> occ(last->nbuckets(), 0);
      for_each_live_bucket([&](const table*, std::size_t, const bucket* s) {
        for (node* c = s->next.read_raw(); c != nullptr;
             c = c->next.read_raw())
          occ[static_cast<std::size_t>(hash_of(c->k)) & last->mask]++;
      });
      return occ;
    });
  }

  template <class F>
  void for_each(F&& f) const {
    flock::with_epoch([&] {
      for_each_live_bucket([&](const table*, std::size_t, const bucket* s) {
        for (node* c = s->next.read_raw(); c != nullptr;
             c = c->next.read_raw())
          f(c->k, c->v);
      });
    });
  }

 public:
  /// The key hash every tier derives from (bucket index = low bits; the
  /// store tier's shard routing = top bits). Public so callers can hash
  /// once per operation.
  static uint64_t hash_of(K k) {
    return splitmix64(static_cast<uint64_t>(k));
  }

 private:
  template <class K2, class V2, bool S2>
  friend bool try_move(hashtable<K2, V2, S2>&, hashtable<K2, V2, S2>&,
                       std::type_identity_t<K2>);
  static std::size_t index_in(const table* t, K k) {
    return static_cast<std::size_t>(hash_of(k)) & t->mask;
  }

  /// First chain position with key >= k and its predecessor (the bucket
  /// head if none). The single point of truth for the walk that insert,
  /// remove, and try_move validate against in their critical sections.
  static std::pair<chain_head*, node*> search_from(bucket* s, K k) {
    chain_head* prev = s;
    node* cur = prev->next.load();
    while (cur != nullptr && cur->k < k) {
      prev = cur;
      cur = cur->next.load();
    }
    return {prev, cur};
  }

  /// Returns nullptr when either allocation fails (allocator failure
  /// contract): nothing half-built leaks and nothing null is dereferenced.
  static table* make_table(std::size_t nbuckets) {
    table* t = flock::pool_new<table>();
    if (t == nullptr) [[unlikely]]
      return nullptr;
    t->mask = nbuckets - 1;
    t->buckets = flock::array_new<bucket>(nbuckets);
    if (t->buckets == nullptr) [[unlikely]] {
      flock::pool_delete(t);
      return nullptr;
    }
    t->next.init(nullptr);
    // mo: relaxed (all three) — pre-publication init; the edge that
    // shares the table (root init or the next-pointer install CAS)
    // releases.
    t->migrated.store(0, std::memory_order_relaxed);
    t->cursor.store(0, std::memory_order_relaxed);        // mo: ditto
    t->resize_hint.store(false, std::memory_order_relaxed);  // mo: ditto
    return t;
  }

  static void free_table(table* t) {
    flock::array_delete(t->buckets);
    flock::pool_delete(t);
  }

  static void retire_table(table* t) {
    flock::epoch_retire_array(t->buckets);
    flock::epoch_retire(t);
  }

  /// The bucket the update for key k must lock: chases forwarded buckets,
  /// draining a resize in progress along the way so the op lands in the
  /// newest table. Caller must be inside with_epoch.
  bucket* locate_update(K k) {
    table* t = root_.load();
    const table* helped = nullptr;  // the table this update helped last
    while (true) {
      std::size_t i = index_in(t, k);
      bucket* s = &t->buckets[i];
      if (s->removed.read_raw()) {  // forwarded => successor exists
        table* nxt = t->next.read_raw();
        // Help even when merely passing through: if only updaters whose
        // own bucket is still live helped, the drain rate would fall to
        // zero exactly when the last stragglers remain (coupon-collector
        // tail) and back-to-back resizes would serialize behind it.
        if (helped != t) help_resize(t, nxt);
        t = nxt;
        continue;
      }
      table* nxt = t->next.read_raw();
      if (nxt == nullptr) return s;
      // Resize in progress: forward our own unit first (so old tables
      // only ever drain), help one chunk the first time round, and
      // re-check — a failed lock attempt means the holder is either the
      // migrator or a completing updater, so just retry the own unit.
      finish_unit(t, migrate_unit(t, nxt, i & unit_mask(t, nxt)));
      if (helped != t) {
        help_resize(t, nxt);
        helped = t;
      }
    }
  }

  // --- shared migration engine ------------------------------------------
  // A resize is a sequence of units claimed off `cursor`. Growing n -> 2n
  // has n units (one old bucket each); shrinking n -> n/2 has n/2 units
  // (one old bucket PAIR each). Both directions complete when all n old
  // buckets are forwarded (`migrated` == n).

  static bool is_grow(const table* t, const table* nt) {
    return nt->mask > t->mask;
  }
  static std::size_t unit_count(const table* t, const table* nt) {
    return is_grow(t, nt) ? t->nbuckets() : nt->nbuckets();
  }
  static std::size_t unit_mask(const table* t, const table* nt) {
    return unit_count(t, nt) - 1;
  }

  /// Copy the frozen chain from `c`, keeping the nodes `keep` selects.
  /// Copies are idempotent allocations made back to front, each
  /// constructed with its successor copy as `next`, so a copied chain
  /// costs one log slot per node and no link stores; the caller publishes
  /// the returned head. The walk reads the frozen chain unlogged (see
  /// migrate_unit_grow); recursion depth is the chain length, about one
  /// node at load factor ~1.
  template <class Keep>
  static node* copy_chain(node* c, Keep keep) {
    if (c == nullptr) return nullptr;
    node* rest = copy_chain(c->next.read_raw(), keep);
    return keep(c) ? flock::allocate<node>(c->k, c->v, rest) : rest;
  }

  /// Copy the merge of two frozen sorted chains with disjoint keys, back
  /// to front like copy_chain.
  static node* merge_copy(node* a, node* b) {
    if (a == nullptr || (b != nullptr && b->k < a->k)) std::swap(a, b);
    if (a == nullptr) return nullptr;  // both chains exhausted
    node* rest = merge_copy(a->next.read_raw(), b);
    return flock::allocate<node>(a->k, a->v, rest);
  }

  /// Retire forwarded buckets' frozen chains, all under one log slot: the
  /// run that commits it retires every node, walking the chains unlogged
  /// (they are frozen, see migrate_unit_grow). Only once the forwarded
  /// flags are set: until then a reader that enters a later epoch can
  /// still walk into a chain, and an earlier retire would let reclamation
  /// free nodes under that walk (the unlink-then-retire order every other
  /// retire in the table follows).
  static void retire_chains(std::initializer_list<node*> heads) {
    flock::idem_retire_lists(heads,
                             [](node* c) { return c->next.read_raw(); });
  }

  /// Migrate unit u of the t -> nt resize. Returns after the unit's old
  /// bucket(s) are forwarded or a lock attempt failed (callers retry via
  /// the wrapping cursor), with the number of buckets THIS call forwarded
  /// (0 if it lost the race or failed) for the caller to count through
  /// finish_unit.
  std::size_t migrate_unit(table* t, table* nt, std::size_t u) {
    return is_grow(t, nt) ? migrate_unit_grow(t, nt, u)
                          : migrate_unit_shrink(t, nt, u);
  }

  /// Grow unit: split old bucket u into successor buckets u and u+n.
  std::size_t migrate_unit_grow(table* t, table* nt, std::size_t i) {
    bucket* s = &t->buckets[i];
    if (s->removed.read_raw()) return 0;  // already forwarded
    bucket* lo = &nt->buckets[i];
    bucket* hi = &nt->buckets[i + t->nbuckets()];
    const uint64_t bit = t->nbuckets();  // hash bit the split keys on
    bool did = flock::acquire<Strict>(s->lck, [=] {
      if (s->removed.load()) return false;  // lost the race
      // The flag load above is the one read whose value runs of this
      // thunk can disagree on, so it is the only read logged here (the
      // head stores still log their expected values). The chain is frozen
      // from the moment this thunk's descriptor is installed on s->lck,
      // and forever after: every update to the bucket takes this same
      // lock and re-checks the flag under it, and the flag is set below,
      // before the unlock. So every run, however late, walks the same
      // nodes and the walk reads them unlogged (paper §6, constants).
      // Allocation and the head stores stay idempotent, so helper replays
      // are safe. Each half of the split is copied in order (sorted) and
      // published with one store to its successor bucket; an empty half
      // needs none, the bucket starts empty. Nothing can observe those
      // chains until the forwarded flag below is set, because each
      // successor bucket has exactly one source bucket and traffic to it
      // only begins at that source's flag.
      node* first = s->next.read_raw();
      node* lo_head = copy_chain(
          first, [bit](node* c) { return (hash_of(c->k) & bit) == 0; });
      node* hi_head = copy_chain(
          first, [bit](node* c) { return (hash_of(c->k) & bit) != 0; });
      if (lo_head != nullptr) lo->next = lo_head;
      if (hi_head != nullptr) hi->next = hi_head;
      // Protocol window: copies live, forwarded flag not yet published. A
      // kill here is the paper's dead-holder scenario mid-migration —
      // helpers must replay this thunk to completion.
      FLOCK_FAULTPOINT(ht_grow_pre_publish);
      s->removed = true;  // forwarded: published after the copies are live
      retire_chains({first});
      return true;
    });
    return did ? 1 : 0;
  }

  /// Shrink unit: merge old buckets u and u+n/2 into successor bucket u,
  /// under both old-bucket locks (nested in address order — lo before hi —
  /// the same acyclic discipline try_move uses). Unlike a grow unit, the
  /// successor bucket has TWO source buckets whose forwarded flags commit
  /// at different log positions, so an updater hashed to the other source
  /// could reach the successor while this critical section is still
  /// running; the merged chain is therefore built privately and published
  /// with ONE store, strictly before either flag, so the successor bucket
  /// is never observable half-merged.
  std::size_t migrate_unit_shrink(table* t, table* nt, std::size_t u) {
    bucket* lo = &t->buckets[u];
    bucket* hi = &t->buckets[u + nt->nbuckets()];
    bucket* dst = &nt->buckets[u];
    // "Already migrated" must be judged by hi's flag — the thunk's LAST
    // store — not lo's. Flag commits are ordered lo-then-hi, so there is
    // a window where lo is flagged while the thunk is still in flight;
    // an early exit keyed on lo would let every latecomer skip the lock
    // attempt that is the only channel for helping the stalled winner
    // finish, leaving hi-keyed updaters spinning in locate_update until
    // the winner reschedules. Keyed on hi, latecomers fall through to
    // acquire(lo->lck), help the in-flight critical section to
    // completion, and then fail its validation harmlessly. (The grow
    // unit has no such window: its single flag is the thunk's last
    // store.)
    if (hi->removed.read_raw()) return 0;  // unit already migrated
    bool did = flock::acquire<Strict>(lo->lck, [=] {
      if (lo->removed.load()) return false;  // lost the race
      return flock::acquire<Strict>(hi->lck, [=] {
        // hi's flag needs no check: only this unit sets it, inside this
        // thunk, and the one descriptor whose logged lo check saw false is
        // the only one that ever gets here (lo's flag is set before lo's
        // unlock). Both chains are frozen, as in a grow unit: constant
        // from the moment each lock holds this unit's descriptor, and
        // forever after (both flags are set below, before either unlock).
        // The inner thunk runs only once hi->lck is installed — a failed
        // inner acquisition never installs and never walks — so every run
        // walks the same nodes and reads them unlogged; lo's flag load is
        // the unit's one logged read. The chains hold disjoint keys
        // (different old-bucket residues of the same hash), all of which
        // land in dst, so a standard sorted merge preserves the chain
        // invariant. The merged copy is built privately (back to front,
        // each copy linked at construction), so the only logged store is
        // its publish.
        node* a = lo->next.read_raw();
        node* b = hi->next.read_raw();
        node* head = merge_copy(a, b);
        // Protocol window: merged chain built privately, single-store
        // publish not yet issued.
        FLOCK_FAULTPOINT(ht_merge_pre_publish);
        dst->next = head;     // single publish of the whole merge
        lo->removed = true;   // flags strictly after the publish: a set
        hi->removed = true;   // flag always finds dst fully merged
        retire_chains({a, b});
        return true;
      });
    });
    return did ? 2 : 0;
  }

  /// Shared unit epilogue: exactly one acquire() returns true per unit
  /// (all later critical sections fail the forwarded check), so counting
  /// the unit's forwarded buckets once keeps `migrated` exact.
  void finish_unit(table* t, std::size_t forwarded) {
    // mo: acq_rel — release chains each unit's migration stores into the
    // counter's release sequence; the completing reader (acquire load in
    // help_resize / advance_root) then sees every unit's writes before
    // swinging the root. Acquire orders this thread's own completion
    // check against earlier contributions.
    if (forwarded != 0 &&
        // mo: acq_rel — the release-sequence chaining just described.
        t->migrated.fetch_add(forwarded, std::memory_order_acq_rel) +
                forwarded ==
            t->nbuckets())
      advance_root();
  }

  /// Claim one contiguous chunk of kMigrateBatch units and migrate it
  /// (the cursor wraps, so stragglers whose first lock attempt failed are
  /// retried by later helpers and a resize finishes under any traffic).
  /// One claim and one count per chunk: the chunk walks a run of adjacent
  /// buckets instead of interleaving single claims with other helpers on
  /// neighbouring cache lines, and its forwarded buckets reach `migrated`
  /// in a single add.
  void help_resize(table* t, table* nt) {
    const std::size_t n = t->nbuckets();
    // mo: acquire — completion read: pairs with finish_unit's acq_rel
    // adds so a full count implies every unit's stores are visible.
    if (t->migrated.load(std::memory_order_acquire) >= n) {
      advance_root();  // idempotent; rescues a swing whose winner stalled
      return;
    }
    const std::size_t units = unit_count(t, nt);
    // mo: relaxed — the cursor only distributes claims; migrate_unit
    // revalidates everything under the bucket lock.
    const std::size_t claimed =
        t->cursor.fetch_add(kMigrateBatch, std::memory_order_relaxed);
    std::size_t forwarded = 0;
    for (std::size_t j = 0; j < kMigrateBatch; j++)
      forwarded += migrate_unit(t, nt, (claimed + j) & (units - 1));
    finish_unit(t, forwarded);
    // Completion recovery: the fast-path `migrated` count is bumped by
    // each chunk's or unit's migrator outside the critical sections, so a
    // migrator stalled (or lost) between forwarding and counting would
    // leave it short. Once per cursor wrap — every unit has been
    // attempted at least once — re-derive completion from the monotone
    // forwarded flags themselves, so ANY thread can finish the resize.
    if (claimed >= units && (claimed & (units - 1)) == 0 &&
        forwarded_count(t) == n) {
      // mo: release — re-derived completion: publishes (via the acquire
      // flag reads in forwarded_count) every unit's stores to the
      // acquire completion reads, like finish_unit's adds would have.
      t->migrated.store(n, std::memory_order_release);
      advance_root();
    }
  }

  /// Swing the root past fully-drained tables; the winning CAS retires
  /// the old table (bucket array and all) through the epoch machinery.
  void advance_root() {
    while (true) {
      uint64_t p = root_.read_raw_packed();
      table* r = flock::from_bits48<table*>(flock::val_of(p));
      // mo: acquire — completion read before the swing; see help_resize.
      if (r->next.read_raw() == nullptr ||
          r->migrated.load(std::memory_order_acquire) < r->nbuckets())
        return;
      // Protocol window: table fully drained, root not yet swung. A kill
      // here must be rescued by any later helper (advance_root is
      // idempotent and called from help_resize on every completion check).
      FLOCK_FAULTPOINT(ht_root_pre_swing);
      if (root_.cas_raw_packed(p, r->next.read_raw())) {
        // Window: swing won, drained table not yet retired. A kill here
        // parks the only thread that can retire `r` — the leak audit in
        // tests must see the retire happen after release.
        FLOCK_FAULTPOINT(ht_root_pre_retire);
        retire_table(r);
      }
    }
  }

  /// Tail of the table chain: the capacity being grown into. Caller must
  /// be inside with_epoch.
  const table* newest_table() const {
    const table* t = root_.read_raw();
    for (const table* nxt = t->next.read_raw(); nxt != nullptr;
         nxt = t->next.read_raw())
      t = nxt;
    return t;
  }

  /// Visit every not-yet-forwarded bucket across the table chain (each
  /// resident key is reachable through exactly one such bucket). Caller
  /// must be inside with_epoch.
  template <class F>
  void for_each_live_bucket(F&& f) const {
    for (const table* t = root_.read_raw(); t != nullptr;
         t = t->next.read_raw()) {
      for (std::size_t i = 0; i <= t->mask; i++) {
        const bucket* s = &t->buckets[i];
        if (!s->removed.read_raw()) f(t, i, s);
      }
    }
  }

  /// Occupancy accounting: sharded counters bumped by successful updates
  /// (outside the critical section — exactly one lock acquisition returns
  /// true per applied update). Every 16th update landing on a shard
  /// re-evaluates the resize policy — on the op TICK, not the counter
  /// value: a steady churn workload holds the counter value constant
  /// (insert/remove alternating), and a value-modulo trigger would never
  /// fire for it, starving the shrink path exactly when it matters. Must
  /// be called inside with_epoch (the trigger reads epoch-protected
  /// tables).
  void note_update(int delta) {
    counter_shard& shard = count_[flock::thread_id() & (kCountShards - 1)];
    // mo: relaxed (both) — sharded statistics: only the summed value
    // matters, and the resize policy tolerates lag by design.
    shard.n.fetch_add(delta, std::memory_order_relaxed);
    if ((shard.ops.fetch_add(1, std::memory_order_relaxed) & 15) == 15)
      maybe_resize();
  }

  long long approx_count() const {
    long long s = 0;
    for (const counter_shard& sh : count_)
      // mo: relaxed — approximate by contract (see approx_size).
      s += sh.n.load(std::memory_order_relaxed);
    return s;
  }

  /// Resize policy, with hysteresis: grow at load factor >= 1, shrink at
  /// load factor < 1/4 (never below the kMinBuckets floor). A freshly
  /// grown table sits at ~1/2 and a freshly shrunk one at ~1/2, so the
  /// occupancy must move 2x before the policy fires again in either
  /// direction — grow/shrink cannot oscillate on a steady workload.
  void maybe_resize() {
    table* t = root_.read_raw();
    if (t->next.read_raw() != nullptr) return;  // resize already in flight
    const long long c = approx_count();
    const long long n = static_cast<long long>(t->nbuckets());
    const bool grow = c >= n;
    const bool shrink =
        !grow && t->nbuckets() > kMinBuckets && c < n / 4;
    if (!grow && !shrink) return;
    // One builder per successor: the first trigger takes the hint and
    // builds; later triggers return at once, because any duplicate they
    // built would be thrown away by the install CAS below. The hint is not
    // a lock, so a builder that stalls or dies holding it must not wedge
    // resizing: once occupancy has run a full factor of 2 past the
    // threshold (grow: c >= 2n; shrink: c < n/8) — which a live builder
    // never lets happen — a trigger builds anyway and the install CAS
    // picks one winner.
    // mo: acq_rel — hint claim: release publishes this trigger's policy
    // reads to the re-armer, acquire sees a previous claimant's re-arm.
    if (t->resize_hint.exchange(true, std::memory_order_acq_rel) &&
        !(grow ? c >= 2 * n : c < n / 8))
      return;
    // The resize trigger is the table's one *survivable* allocation-failure
    // surface: a resize is an optimization, so when the successor cannot be
    // built — an injected "ht.resize.alloc" fault or a real OOM propagated
    // as make_table's null — the resize is DEFERRED, not crashed on. The
    // hint is re-armed so a later trigger retries once memory returns, and
    // the deferral is counted (per-instance and process-wide) so tests and
    // the stats line can assert the degradation actually happened.
    table* nt = nullptr;
    if (!FLOCK_FAULTPOINT_ALLOC_FAIL(ht_resize_alloc)) [[likely]]
      nt = make_table(grow ? t->nbuckets() * 2 : t->nbuckets() / 2);
    if (nt == nullptr) [[unlikely]] {
      // mo: relaxed (both) — monotone stat counters; value-only.
      deferrals_.fetch_add(1, std::memory_order_relaxed);
      flock::detail::g_resize_deferrals.fetch_add(1,
                                                  std::memory_order_relaxed);
      // mo: release — re-arm: a later claimant's acquire exchange must see
      // this deferral's bookkeeping before it retries the allocation.
      t->resize_hint.store(false, std::memory_order_release);  // re-arm
      return;
    }
    uint64_t p = t->next.read_raw_packed();
    if (flock::val_of(p) != 0 || !t->next.cas_raw_packed(p, nt)) {
      free_table(nt);  // lost the install race; never published
    } else {
      // mo: relaxed — monotone stat counter; value-only.
      (grow ? grows_ : shrinks_).fetch_add(1, std::memory_order_relaxed);
    }
  }

  static std::size_t forwarded_count(const table* t) {
    std::size_t fwd = 0;
    for (std::size_t i = 0; i <= t->mask; i++)
      if (t->buckets[i].removed.read_raw()) fwd++;
    return fwd;
  }

  flock::mutable_<table*> root_;
  counter_shard count_[kCountShards];
  std::atomic<std::size_t> grows_{0}, shrinks_{0};
  std::atomic<std::size_t> deferrals_{0};
};

/// Atomically move key `k` (and its value) between two hashtables, the
/// paper's cross-structure motivation applied to the resizable table: both
/// splices happen inside one validated nest of bucket critical sections
/// (ordered by bucket address, an acyclic order), so no other *updater*
/// can interleave between them — and because the critical sections
/// re-validate the forwarded flags, the move composes with an in-flight
/// resize on either side. Returns false — changing nothing — if k is
/// absent in `from`, already present in `to`, or any lock/validation
/// fails transiently (callers retry, e.g. via move_retry in ds/move.hpp).
template <class K, class V, bool Strict>
bool try_move(hashtable<K, V, Strict>& from, hashtable<K, V, Strict>& to,
              std::type_identity_t<K> k) {
  using ht = hashtable<K, V, Strict>;
  using node = typename ht::node;
  if (&from == &to) return false;
  return flock::with_epoch([&] {
    auto* fs = from.locate_update(k);
    auto [fprev, fcur] = ht::search_from(fs, k);
    if (fcur == nullptr || fcur->k != k) return false;  // not in source
    auto* ts = to.locate_update(k);
    auto [tprev, tcur] = ht::search_from(ts, k);
    // Mid-remove keys (flag set, unlink pending) count as absent, like
    // find(); the critical section's validation forces a retry for them.
    if (tcur != nullptr && tcur->k == k && !tcur->removed.load())
      return false;  // already in dest
    auto splice = [=] {
      // Window: both bucket locks held, neither side spliced yet.
      FLOCK_FAULTPOINT(ht_move_pre_splice);
      if (fs->removed.load() || ts->removed.load()) return false;
      if (fprev != fs && fprev->removed.load()) return false;
      if (fcur->removed.load()) return false;
      if (fprev->next.load() != fcur) return false;
      if (tprev != ts && tprev->removed.load()) return false;
      if (tprev->next.load() != tcur) return false;
      node* moved = flock::allocate<node>(fcur->k, fcur->v, tcur);
      tprev->next = moved;
      fcur->removed = true;
      fprev->next = fcur->next.load();
      flock::retire<node>(fcur);
      return true;
    };
    bool ok;
    if (reinterpret_cast<uintptr_t>(fs) < reinterpret_cast<uintptr_t>(ts))
      ok = flock::acquire<Strict>(fs->lck, [=] {
        return flock::acquire<Strict>(ts->lck, splice);
      });
    else
      ok = flock::acquire<Strict>(ts->lck, [=] {
        return flock::acquire<Strict>(fs->lck, splice);
      });
    if (ok) {
      from.note_update(-1);
      to.note_update(+1);
    }
    return ok;
  });
}

}  // namespace flock_ds
