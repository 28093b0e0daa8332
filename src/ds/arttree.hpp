// arttree.hpp — Adaptive Radix Tree (Leis et al. [37,38]) with Flock
// fine-grained optimistic locks; with lock-free locks this reproduces the
// paper's "first lock-free implementation of adaptive radix trees" (§7).
//
// Structure: fixed 8-byte keys, one byte consumed per level (span 8),
// adaptive node types Node4 / Node16 / Node48 / Node256, lazy expansion
// (leaves store the full key and can sit at any depth, so single-key
// subtrees collapse to a leaf). The root is an embedded Node256 that is
// never replaced.
//
// Concurrency:
//  * Searches descend with no locks and no logging.
//  * Child slots are mutables; adding/clearing a child locks one node.
//  * Node4/16/48 append entries in place under the node's lock: the entry
//    bytes and child are published before the count store, and inside a
//    thunk the re-scan result is committed to the log so every helper
//    agrees on the append position (count updates are same-value stores,
//    which are idempotent).
//  * A full node grows into the next type by copy-on-write: lock parent +
//    node, rebuild (skipping entries whose child slot was cleared), swap
//    the parent slot, retire the old node.
//
// Substitutions (DESIGN.md §5): no path compression — lazy expansion
// bounds depth the same way for the benchmark's sparsified (hashed) keys;
// and no node shrinking on removal (cleared slots are tombstones reused
// by reinsertions of the same byte; standard in concurrent ART variants).
#pragma once

#include <cstdint>
#include <optional>

#include "flock/flock.hpp"

namespace flock_ds {

template <class V, bool Strict = false>
class arttree {
  using K = uint64_t;
  static constexpr int kMaxDepth = 8;

  enum ntype : uint8_t { LEAF, N4, N16, N48, N256 };

  struct node {
    const ntype type;
    explicit node(ntype t) : type(t) {}
  };

  struct leafnode : node {
    const K k;
    const V v;
    leafnode(K key, V val) : node(LEAF), k(key), v(val) {}
  };

  struct inner : node {
    flock::write_once<bool> removed;
    flock::lock lck;
    // Used entry slots (incl. tombstones). A mutable_ so in-place appends
    // are logged: a stale helper replay can neither regress nor re-apply
    // the bump (its CAS fails on the tag).
    flock::mutable_<uint64_t> count;
    explicit inner(ntype t) : node(t) {
      removed.init(false);
      count.init(0);
    }
  };

  // NOTE on construction: nodes are built COMPLETELY by their
  // constructors (before the idempotent allocation commits them), because
  // writing into a node after flock::allocate returns would let a stale
  // helper replay clobber state that later operations already changed.
  template <int N>
  struct narrow : inner {  // Node4 / Node16: parallel byte+child arrays
    std::atomic<uint8_t> bytes[N];
    flock::mutable_<node*> children[N];
    explicit narrow(ntype t) : inner(t) {
      for (int i = 0; i < N; i++) {
        // mo: relaxed — constructor store, pre-publication (see NOTE above);
        // the idempotent-allocate commit publishes the whole node.
        bytes[i].store(0, std::memory_order_relaxed);
        children[i].init(nullptr);
      }
    }
    // Single-entry chain node.
    narrow(ntype t, uint8_t b, node* c) : narrow(t) {
      // mo: relaxed — constructor store, pre-publication (ditto).
      bytes[0].store(b, std::memory_order_relaxed);
      children[0].init(c);
      this->count.init(1);
    }
    // Two-entry fork.
    narrow(ntype t, uint8_t b1, node* c1, uint8_t b2, node* c2)
        : narrow(t) {
      // mo: relaxed (both) — constructor stores, pre-publication (ditto).
      bytes[0].store(b1, std::memory_order_relaxed);
      bytes[1].store(b2, std::memory_order_relaxed);
      children[0].init(c1);
      children[1].init(c2);
      this->count.init(2);
    }
    // Harvest copy (grow path).
    narrow(ntype t, const uint8_t* bs, node* const* cs, int n) : narrow(t) {
      for (int i = 0; i < n; i++) {
        // mo: relaxed — constructor store, pre-publication (ditto).
        bytes[i].store(bs[i], std::memory_order_relaxed);
        children[i].init(cs[i]);
      }
      this->count.init(static_cast<uint64_t>(n));
    }
  };
  using node4 = narrow<4>;
  using node16 = narrow<16>;

  struct node48 : inner {
    std::atomic<uint8_t> index[256];  // 0 = empty, else child slot + 1
    flock::mutable_<node*> children[48];
    node48() : inner(N48) {
      // mo: relaxed — constructor store, pre-publication (see NOTE above).
      for (auto& i : index) i.store(0, std::memory_order_relaxed);
      for (auto& c : children) c.init(nullptr);
    }
    node48(const uint8_t* bs, node* const* cs, int n) : node48() {
      for (int i = 0; i < n; i++) {
        children[i].init(cs[i]);
        // mo: relaxed — constructor store, pre-publication (ditto).
        index[bs[i]].store(static_cast<uint8_t>(i + 1),
                           std::memory_order_relaxed);
      }
      this->count.init(static_cast<uint64_t>(n));
    }
  };

  struct node256 : inner {
    flock::mutable_<node*> children[256];
    node256() : inner(N256) {
      for (auto& c : children) c.init(nullptr);
    }
    node256(const uint8_t* bs, node* const* cs, int n) : node256() {
      for (int i = 0; i < n; i++) children[bs[i]].init(cs[i]);
      this->count.init(static_cast<uint64_t>(n));
    }
  };

  static uint8_t key_byte(K k, int d) {
    return static_cast<uint8_t>(k >> (56 - 8 * d));
  }

  static int capacity(ntype t) {
    switch (t) {
      case N4:
        return 4;
      case N16:
        return 16;
      case N48:
        return 48;
      default:
        return 256;
    }
  }

  // Unlogged entry lookup for byte b. Returns the slot (which may hold a
  // tombstone nullptr) or nullptr if no entry exists.
  static flock::mutable_<node*>* find_slot(inner* n, uint8_t b) {
    switch (n->type) {
      case N4:
      case N16: {
        int cap = n->type == N4 ? 4 : 16;
        auto scan = [&](auto* nn) -> flock::mutable_<node*>* {
          int c = static_cast<int>(nn->count.read_raw());
          if (c > cap) c = cap;
          for (int i = 0; i < c; i++)
            // mo: acquire — pairs with the appender's release byte store so
            // a matching byte implies the child slot's store is visible.
            if (nn->bytes[i].load(std::memory_order_acquire) == b)
              return &nn->children[i];
          return nullptr;
        };
        return n->type == N4 ? scan(static_cast<node4*>(n))
                             : scan(static_cast<node16*>(n));
      }
      case N48: {
        auto* nn = static_cast<node48*>(n);
        // mo: acquire — pairs with append_child's release index store; a
        // nonzero slot implies the child pointer's store is visible.
        uint8_t s = nn->index[b].load(std::memory_order_acquire);
        return s == 0 ? nullptr : &nn->children[s - 1];
      }
      default:
        return &static_cast<node256*>(n)->children[b];
    }
  }

 public:
  arttree() = default;

  ~arttree() {
    for (int b = 0; b < 256; b++) destroy(root_.children[b].read_raw());
  }

  std::optional<V> find(K k) {
    return flock::with_epoch([&]() -> std::optional<V> {
      inner* n = &root_;
      for (int d = 0; d < kMaxDepth; d++) {
        flock::mutable_<node*>* slot = find_slot(n, key_byte(k, d));
        if (slot == nullptr) return {};
        node* c = slot->load();
        if (c == nullptr) return {};
        if (c->type == LEAF) {
          auto* l = static_cast<leafnode*>(c);
          if (l->k == k) return l->v;
          return {};
        }
        n = static_cast<inner*>(c);
      }
      return {};  // unreachable for 8-byte keys
    });
  }

  bool insert(K k, V v) {
    return flock::with_epoch([&] {
      while (true) {
        inner* parent = nullptr;
        int parent_depth = 0;
        inner* n = &root_;
        int d = 0;
        bool restart = false;
        while (true) {
          uint8_t b = key_byte(k, d);
          flock::mutable_<node*>* slot = find_slot(n, b);
          if (slot == nullptr) {
            // No entry for this byte: append in place, or grow.
            int used = static_cast<int>(n->count.read_raw());
            if (used >= capacity(n->type)) {
              grow(parent, parent_depth, k, n);
              restart = true;
              break;
            }
            if (append_child(n, b, k, v)) return true;
            restart = true;  // lock failed or raced; re-descend
            break;
          }
          node* c = slot->load();
          if (c == nullptr) {
            // Tombstoned entry: revive it with the new leaf.
            if (set_empty_slot(n, slot, k, v)) return true;
            restart = true;
            break;
          }
          if (c->type == LEAF) {
            auto* l = static_cast<leafnode*>(c);
            if (l->k == k) return false;  // present
            // Split: build a chain for the shared bytes, then a Node4
            // with both leaves; publish with one slot swap.
            if (split_leaf(n, slot, l, k, v, d + 1)) return true;
            restart = true;
            break;
          }
          parent = n;
          parent_depth = d;
          n = static_cast<inner*>(c);
          d++;
        }
        if (restart) continue;
      }
    });
  }

  bool remove(K k) {
    return flock::with_epoch([&] {
      while (true) {
        inner* n = &root_;
        int d = 0;
        leafnode* target = nullptr;
        flock::mutable_<node*>* slot = nullptr;
        while (true) {
          slot = find_slot(n, key_byte(k, d));
          if (slot == nullptr) return false;
          node* c = slot->load();
          if (c == nullptr) return false;
          if (c->type == LEAF) {
            target = static_cast<leafnode*>(c);
            break;
          }
          n = static_cast<inner*>(c);
          d++;
        }
        if (target->k != k) return false;
        inner* nn = n;
        flock::mutable_<node*>* s = slot;
        leafnode* lf = target;
        if (flock::acquire<Strict>(nn->lck, [=] {
              if (nn->removed.load()) return false;
              if (s->load() != static_cast<node*>(lf)) return false;
              s->store(nullptr);  // tombstone
              flock::retire<leafnode>(lf);
              return true;
            }))
          return true;
      }
    });
  }

  /// Quiescent audits. ---------------------------------------------------
  std::size_t size() const {
    std::size_t s = 0;
    for (int b = 0; b < 256; b++) s += count(root_.children[b].read_raw());
    return s;
  }

  bool check_invariants() const {
    bool ok = true;
    for (int b = 0; b < 256; b++) {
      K prefix = static_cast<K>(b) << 56;
      validate(root_.children[b].read_raw(), prefix, 1, ok);
    }
    return ok;
  }

  template <class F>
  void for_each(F&& f) const {
    for (int b = 0; b < 256; b++) walk(root_.children[b].read_raw(), f);
  }

 private:
  // ---- in-place append under the node's lock ---------------------------
  // All decisions inside the thunk rest on values committed to the log,
  // so helper replays agree on the entry index; the count update is a
  // same-value store (idempotent).
  bool append_child(inner* n, uint8_t b, K k, V v) {
    switch (n->type) {
      case N4:
        return append_narrow(static_cast<node4*>(n), 4, b, k, v);
      case N16:
        return append_narrow(static_cast<node16*>(n), 16, b, k, v);
      case N48: {
        auto* nn = static_cast<node48*>(n);
        return flock::acquire<Strict>(nn->lck, [=] {
          if (nn->removed.load()) return false;
          // mo: acquire — matching find_slot's reader side; under the node
          // lock the value is stable, the order just keeps one protocol.
          uint8_t existing = static_cast<uint8_t>(flock::commit_value(
              nn->index[b].load(std::memory_order_acquire)));
          if (existing != 0) return false;  // raced: re-descend
          uint64_t c = nn->count.load();  // logged
          if (c >= 48) return false;
          nn->children[c].store(flock::allocate<leafnode>(k, v));
          // A raw, unlogged store: every run stores the same value to the
          // same slot (`c` is logged, appends serialize under the node
          // lock), so it is idempotent. Every test build's owner replay
          // re-executes it, and the replay oracle checks that the rerun
          // ends like the first run.
          // mo: release — publishes the child-slot store above to
          // find_slot's acquire index load (lock-free readers).
          nn->index[b].store(static_cast<uint8_t>(c + 1),
                             std::memory_order_release);
          nn->count.store(c + 1);  // logged, tag-protected
          return true;
        });
      }
      default: {  // N256 always has a slot; handled by set_empty_slot
        auto* nn = static_cast<node256*>(n);
        return set_empty_slot(nn, &nn->children[b], k, v);
      }
    }
  }

  template <class NN>
  bool append_narrow(NN* nn, int cap, uint8_t b, K k, V v) {
    return flock::acquire<Strict>(nn->lck, [=] {
      if (nn->removed.load()) return false;
      uint64_t c = nn->count.load();  // logged
      if (c >= static_cast<uint64_t>(cap)) return false;  // raced to full
      // Re-scan for b among committed entries (another insert may have
      // appended it between our descent and taking the lock). The reads
      // are raw, but entries below the logged `c` are immutable, so every
      // run of the thunk scans the same values; every test build's owner
      // replay re-executes the scan after the first run's append, and the
      // replay oracle aborts if it decides differently.
      // mo: acquire — matching find_slot's reader side (one protocol).
      for (uint64_t i = 0; i < c; i++)
        if (nn->bytes[i].load(std::memory_order_acquire) == b) return false;
      // Publishes nothing yet (the child store follows); a reader that
      // matches this byte loads the child slot through mutable_'s own
      // synchronization. A raw same-value store: every run writes `b` to
      // slot `c`, and every test build's owner replay re-executes it.
      // mo: release — keeps byte stores ordered for find_slot's scan.
      nn->bytes[c].store(b, std::memory_order_release);
      nn->children[c].store(flock::allocate<leafnode>(k, v));
      nn->count.store(c + 1);  // logged, tag-protected
      return true;
    });
  }

  bool set_empty_slot(inner* n, flock::mutable_<node*>* slot, K k, V v) {
    return flock::acquire<Strict>(n->lck, [=] {
      if (n->removed.load()) return false;
      if (slot->load() != nullptr) return false;
      slot->store(flock::allocate<leafnode>(k, v));
      return true;
    });
  }

  // Replace leaf `l` by a chain of Node4s covering the bytes both keys
  // share below depth d0, ending in a Node4 holding both leaves. The
  // chain is built fully before the single publishing slot swap.
  bool split_leaf(inner* n, flock::mutable_<node*>* slot, leafnode* l, K k,
                  V v, int d0) {
    return flock::acquire<Strict>(n->lck, [=, this] {
      if (n->removed.load()) return false;
      if (slot->load() != static_cast<node*>(l)) return false;
      int dd = d0;
      while (dd < kMaxDepth && key_byte(k, dd) == key_byte(l->k, dd)) dd++;
      // dd < kMaxDepth because the keys differ.
      leafnode* nl = flock::allocate<leafnode>(k, v);
      node* child = build_fork(key_byte(k, dd), nl, key_byte(l->k, dd),
                               static_cast<node*>(l));
      for (int x = dd - 1; x >= d0; x--)
        child = build_single(key_byte(k, x), child);
      slot->store(child);
      return true;
    });
  }

  node* build_fork(uint8_t b1, node* c1, uint8_t b2, node* c2) {
    return flock::allocate<node4>(N4, b1, c1, b2, c2);
  }

  node* build_single(uint8_t b, node* c) {
    return flock::allocate<node4>(N4, b, c);
  }

  // ---- grow: copy-on-write into the next node type ---------------------
  void grow(inner* parent, int parent_depth, K k, inner* n) {
    if (parent == nullptr) return;  // root Node256 never grows
    uint8_t pb = key_byte(k, parent_depth);
    flock::mutable_<node*>* pslot = find_slot(parent, pb);
    if (pslot == nullptr) return;
    flock::acquire<Strict>(parent->lck, [=, this] {
      if (parent->removed.load()) return false;
      if (pslot->load() != static_cast<node*>(n)) return false;
      return flock::acquire<Strict>(n->lck, [=, this] {
        if (n->removed.load()) return false;
        inner* bigger = copy_grown(n);
        pslot->store(bigger);
        n->removed = true;
        retire_inner(n);
        return true;
      });
    });
  }

  // Build the next-size node from n's live entries. Caller holds n's
  // lock, so entries are stable; child loads are logged, the count load
  // is logged, and bytes below the count are immutable — the harvested
  // arrays are therefore identical across helper replays, and the new
  // node is built entirely by its constructor before being committed.
  inner* copy_grown(inner* n) {
    uint8_t bs[48];
    node* cs[48];
    int live = 0;
    auto harvest_narrow = [&](auto* nn, uint64_t cap) {
      uint64_t c = nn->count.load();  // logged
      if (c > cap) c = cap;
      for (uint64_t i = 0; i < c; i++) {
        node* ch = nn->children[i].load();
        if (ch == nullptr) continue;  // tombstone: compact away
        // mo: acquire — reader-side byte load (same protocol as find_slot);
        // entries below the logged count are immutable anyway.
        bs[live] = nn->bytes[i].load(std::memory_order_acquire);
        cs[live] = ch;
        live++;
      }
    };
    switch (n->type) {
      case N4:
        harvest_narrow(static_cast<node4*>(n), 4);
        return flock::allocate<node16>(N16, bs, cs, live);
      case N16:
        harvest_narrow(static_cast<node16*>(n), 16);
        return flock::allocate<node48>(bs, cs, live);
      case N48: {
        auto* src = static_cast<node48*>(n);
        for (int b = 0; b < 256; b++) {
          // mo: acquire — nonzero slot implies the child store is visible
          // (pairs with append_child's release), as in find_slot.
          uint8_t s = src->index[b].load(std::memory_order_acquire);
          if (s == 0) continue;
          node* ch = src->children[s - 1].load();  // logged
          if (ch == nullptr) continue;
          bs[live] = static_cast<uint8_t>(b);
          cs[live] = ch;
          live++;
        }
        return flock::allocate<node256>(bs, cs, live);
      }
      default:
        return n;  // N256 never grows
    }
  }

  void retire_inner(inner* n) {
    switch (n->type) {
      case N4:
        flock::retire<node4>(static_cast<node4*>(n));
        break;
      case N16:
        flock::retire<node16>(static_cast<node16*>(n));
        break;
      case N48:
        flock::retire<node48>(static_cast<node48*>(n));
        break;
      default:
        flock::retire<node256>(static_cast<node256*>(n));
        break;
    }
  }

  // ---- audits -----------------------------------------------------------
  void destroy(node* n) {
    if (n == nullptr) return;
    if (n->type == LEAF) {
      flock::pool_delete(static_cast<leafnode*>(n));
      return;
    }
    auto* in = static_cast<inner*>(n);
    for_each_child(in, [&](uint8_t, node* c) { destroy(c); });
    switch (in->type) {
      case N4:
        flock::pool_delete(static_cast<node4*>(in));
        break;
      case N16:
        flock::pool_delete(static_cast<node16*>(in));
        break;
      case N48:
        flock::pool_delete(static_cast<node48*>(in));
        break;
      default:
        flock::pool_delete(static_cast<node256*>(in));
        break;
    }
  }

  template <class F>
  static void for_each_child(inner* n, F&& f) {
    switch (n->type) {
      case N4:
      case N16: {
        int cap = n->type == N4 ? 4 : 16;
        auto scan = [&](auto* nn) {
          int c = static_cast<int>(nn->count.read_raw());
          if (c > cap) c = cap;
          for (int i = 0; i < c; i++) {
            node* ch = nn->children[i].read_raw();
            // mo: acquire — reader-side byte load, same protocol as
            // find_slot (audit walks run at quiescence anyway).
            if (ch != nullptr)
              f(nn->bytes[i].load(std::memory_order_acquire), ch);
          }
        };
        if (n->type == N4)
          scan(static_cast<node4*>(n));
        else
          scan(static_cast<node16*>(n));
        break;
      }
      case N48: {
        auto* nn = static_cast<node48*>(n);
        for (int b = 0; b < 256; b++) {
          // mo: acquire — reader-side index load, same protocol as
          // find_slot (audit walks run at quiescence anyway).
          uint8_t s = nn->index[b].load(std::memory_order_acquire);
          if (s == 0) continue;
          node* ch = nn->children[s - 1].read_raw();
          if (ch != nullptr) f(static_cast<uint8_t>(b), ch);
        }
        break;
      }
      default: {
        auto* nn = static_cast<node256*>(n);
        for (int b = 0; b < 256; b++) {
          node* ch = nn->children[b].read_raw();
          if (ch != nullptr) f(static_cast<uint8_t>(b), ch);
        }
        break;
      }
    }
  }

  std::size_t count(node* n) const {
    if (n == nullptr) return 0;
    if (n->type == LEAF) return 1;
    std::size_t s = 0;
    for_each_child(static_cast<inner*>(n),
                   [&](uint8_t, node* c) { s += count(c); });
    return s;
  }

  // Every leaf under a node at depth d must share the first d key bytes
  // (the prefix accumulated on the way down).
  void validate(node* n, K prefix, int d, bool& ok) const {
    if (n == nullptr || !ok) return;
    if (n->type == LEAF) {
      auto* l = static_cast<leafnode*>(n);
      int shift = 64 - 8 * d;
      if (shift < 64 && d > 0) {
        K mask = shift == 0 ? ~K{0} : (~K{0}) << shift;
        if ((l->k & mask) != (prefix & mask)) ok = false;
      }
      return;
    }
    auto* in = static_cast<inner*>(n);
    if (in->removed.read_raw()) {
      ok = false;
      return;
    }
    if (d >= kMaxDepth) {
      ok = false;
      return;
    }
    for_each_child(const_cast<inner*>(in), [&](uint8_t b, node* c) {
      K cp = prefix | (static_cast<K>(b) << (56 - 8 * d));
      validate(c, cp, d + 1, ok);
    });
  }

  template <class F>
  void walk(node* n, F&& f) const {
    if (n == nullptr) return;
    if (n->type == LEAF) {
      auto* l = static_cast<leafnode*>(n);
      f(l->k, l->v);
      return;
    }
    for_each_child(static_cast<inner*>(n),
                   [&](uint8_t, node* c) { walk(c, f); });
  }

  node256 root_;
};

}  // namespace flock_ds
