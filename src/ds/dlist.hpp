// dlist.hpp — sorted doubly-linked list, Algorithm 1 of the paper
// rendered with the library: fine-grained optimistic locks, lock-free or
// blocking at runtime. Kept deliberately close to the paper's code: the
// remove takes prev's lock then the link's lock (simply nested), insert
// takes only prev's lock, and back pointers are fixed without locking the
// successor (justified in §1.1).
#pragma once

#include <optional>

#include "flock/flock.hpp"

namespace flock_ds {

template <class K, class V, bool Strict = false>
class dlist {
  struct link {
    flock::mutable_<link*> next;
    flock::mutable_<link*> prev;
    flock::write_once<bool> removed;
    flock::lock lck;
    const K k;
    const V v;
    const int sentinel;  // -1 head (-inf), +1 tail (+inf), 0 ordinary
    link(K key, V val, link* nxt, link* prv, int s = 0)
        : k(key), v(val), sentinel(s) {
      next.init(nxt);
      prev.init(prv);
      removed.init(false);
    }
  };

  // key(l) < k with sentinel semantics.
  static bool key_less(const link* l, K k) {
    if (l->sentinel != 0) return l->sentinel < 0;
    return l->k < k;
  }
  static bool key_is(const link* l, K k) {
    return l->sentinel == 0 && l->k == k;
  }

 public:
  dlist() {
    head_ = flock::pool_new<link>(K{}, V{}, nullptr, nullptr, -1);
    tail_ = flock::pool_new<link>(K{}, V{}, nullptr, nullptr, +1);
    head_->next.init(tail_);
    tail_->prev.init(head_);
  }

  ~dlist() {
    link* n = head_;
    while (n != nullptr) {
      link* nxt = n->next.read_raw();
      flock::pool_delete(n);
      n = nxt;
    }
  }

  std::optional<V> find(K k) {
    return flock::with_epoch([&]() -> std::optional<V> {
      link* lnk = find_link(k);
      if (key_is(lnk, k)) return lnk->v;
      return {};
    });
  }

  bool insert(K k, V v) {
    return flock::with_epoch([&] {
      while (true) {
        link* next = find_link(k);
        // "Already there" needs the removed-flag test find() uses: a key
        // mid-remove (flag set, unlink not yet visible) is absent; fall
        // through and let the validation below force a retry.
        if (key_is(next, k) && !next->removed.load()) return false;
        link* prev = next->prev.load();
        if (key_less(prev, k) &&
            flock::acquire<Strict>(prev->lck, [=] {
              if (prev->removed.load() ||              // validate
                  prev->next.load() != next)
                return false;
              link* newl = flock::allocate<link>(k, v, next, prev);
              prev->next = newl;  // splice in
              next->prev = newl;
              return true;
            }))
          return true;
      }
    });
  }

  bool remove(K k) {
    return flock::with_epoch([&] {
      while (true) {
        link* lnk = find_link(k);
        if (!key_is(lnk, k)) return false;  // not found
        link* prev = lnk->prev.load();
        if (flock::acquire<Strict>(prev->lck, [=] {
              return flock::acquire<Strict>(lnk->lck, [=] {
                if (prev->removed.load() ||              // validate
                    prev->next.load() != lnk)
                  return false;
                link* next = lnk->next.load();
                lnk->removed = true;
                prev->next = next;  // splice out
                next->prev = prev;
                flock::retire<link>(lnk);
                return true;
              });
            }))
          return true;
      }
    });
  }

  /// Quiescent audits. Epoch-guarded (like find) so a concurrent remove
  /// cannot reclaim a link mid-scan; exact only at quiescence. ------------
  std::size_t size() const {
    return flock::with_epoch([&] {
      std::size_t n = 0;
      for (link* c = head_->next.read_raw(); c != tail_;
           c = c->next.read_raw())
        n++;
      return n;
    });
  }

  /// Sorted; back pointers consistent; no removed nodes (quiescent only).
  bool check_invariants() const {
    return flock::with_epoch([&] {
      const link* p = head_;
      for (link* c = head_->next.read_raw(); c != nullptr;
           c = c->next.read_raw()) {
        if (c->prev.read_raw() != p) return false;
        if (c->sentinel == 0 && c->removed.read_raw()) return false;
        if (p->sentinel == 0 && c->sentinel == 0 && !(p->k < c->k))
          return false;
        if (c == tail_) return true;  // reached the end cleanly
        p = c;
      }
      return false;  // fell off without hitting tail
    });
  }

  template <class F>
  void for_each(F&& f) const {
    flock::with_epoch([&] {
      for (link* c = head_->next.read_raw(); c != tail_;
           c = c->next.read_raw())
        f(c->k, c->v);
    });
  }

 private:
  // First link with key >= k (possibly tail).
  link* find_link(K k) {
    link* lnk = head_->next.load();
    while (key_less(lnk, k)) lnk = lnk->next.load();
    return lnk;
  }

  link* head_;
  link* tail_;
};

}  // namespace flock_ds
