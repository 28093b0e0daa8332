// lazylist.hpp — sorted singly-linked list with lazy deletion (Heller et
// al. [31]) written with Flock fine-grained optimistic try-locks
// (paper §7 "a singly-linked list [31] (lazylist)").
//
// Pattern (§7): traverse with no locks, lock a neighborhood, validate,
// mutate; retry on lock or validation failure. Runs in blocking or
// lock-free mode via the global flag; Strict selects strict locks.
#pragma once

#include <optional>

#include "flock/flock.hpp"

namespace flock_ds {

template <class K, class V, bool Strict = false>
class lazylist {
  struct node {
    flock::mutable_<node*> next;
    flock::write_once<bool> removed;
    flock::lock lck;
    const K k;
    const V v;
    node(K key, V val, node* nxt) : k(key), v(val) {
      next.init(nxt);
      removed.init(false);
    }
  };

 public:
  // Extension hooks for cross-structure operations (see ds/move.hpp):
  // the node type and the neighborhood search.
  using node_t = node;
  std::pair<node*, node*> search_for(K k) { return search(k); }

  lazylist() { head_ = flock::pool_new<node>(K{}, V{}, nullptr); }

  ~lazylist() {
    node* n = head_;
    while (n != nullptr) {
      node* nxt = n->next.read_raw();
      flock::pool_delete(n);
      n = nxt;
    }
  }

  /// Returns the value if present. Lock-free read: no locks, no logging.
  std::optional<V> find(K k) {
    return flock::with_epoch([&]() -> std::optional<V> {
      node* cur = head_->next.load();
      while (cur != nullptr && cur->k < k) cur = cur->next.load();
      if (cur != nullptr && cur->k == k && !cur->removed.load())
        return cur->v;
      return {};
    });
  }

  /// Inserts (k,v); returns false if k is already present.
  bool insert(K k, V v) {
    return flock::with_epoch([&] {
      while (true) {
        auto [prev, cur] = search(k);
        // "Already present" needs the removed-flag test find() uses: a
        // key mid-remove (flag set, unlink not yet visible) is absent.
        // Falling through is fine — the validation below fails against
        // the completed unlink and we retry.
        if (cur != nullptr && cur->k == k && !cur->removed.load())
          return false;
        if (flock::acquire<Strict>(prev->lck, [=] {
              if (prev->removed.load()) return false;      // validate
              if (prev->next.load() != cur) return false;  // validate
              node* n = flock::allocate<node>(k, v, cur);
              prev->next = n;  // splice in
              return true;
            }))
          return true;
      }
    });
  }

  /// Removes k; returns false if absent.
  bool remove(K k) {
    return flock::with_epoch([&] {
      while (true) {
        auto [prev, cur] = search(k);
        if (cur == nullptr || cur->k != k) return false;
        if (flock::acquire<Strict>(prev->lck, [=] {
              return flock::acquire<Strict>(cur->lck, [=] {
                if (prev->removed.load() || cur->removed.load())
                  return false;                              // validate
                if (prev->next.load() != cur) return false;  // validate
                cur->removed = true;  // logical delete (update-once)
                prev->next = cur->next.load();  // physical splice
                flock::retire<node>(cur);
                return true;
              });
            }))
          return true;
      }
    });
  }

  /// Quiescent audit helpers for tests. Epoch-guarded (like find) so a
  /// concurrent remove cannot reclaim a node mid-scan; counts are exact
  /// only at quiescence. --------------------------------------------------
  std::size_t size() const {
    return flock::with_epoch([&] {
      std::size_t n = 0;
      for (node* c = head_->next.read_raw(); c != nullptr;
           c = c->next.read_raw())
        n++;
      return n;
    });
  }

  /// Sorted order, no removed nodes reachable (quiescent only).
  bool check_invariants() const {
    return flock::with_epoch([&] {
      const node* prev = nullptr;
      for (node* c = head_->next.read_raw(); c != nullptr;
           c = c->next.read_raw()) {
        if (c->removed.read_raw()) return false;
        if (prev != nullptr && !(prev->k < c->k)) return false;
        prev = c;
      }
      return true;
    });
  }

  template <class F>
  void for_each(F&& f) const {
    flock::with_epoch([&] {
      for (node* c = head_->next.read_raw(); c != nullptr;
           c = c->next.read_raw())
        f(c->k, c->v);
    });
  }

 private:
  // First node with key >= k, and its predecessor (head sentinel if none).
  std::pair<node*, node*> search(K k) {
    node* prev = head_;
    node* cur = prev->next.load();
    while (cur != nullptr && cur->k < k) {
      prev = cur;
      cur = cur->next.load();
    }
    return {prev, cur};
  }

  node* head_;  // sentinel; key unused
};

}  // namespace flock_ds
