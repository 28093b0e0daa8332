// leaftreap.hpp — leaf-oriented tree with fat leaves (paper §7: "a
// leaf-oriented balanced BST (leaftreap) with an optimization that stores
// a batch of key-value pairs (up to 2 cachelines worth) in each leaf to
// minimize height").
//
// The fat-leaf batching is implemented as described: leaves are immutable
// batches of up to B key/value pairs (B = 8 ≈ two cache lines of 8-byte
// pairs); point updates copy-on-write the leaf and swap one parent slot
// under one lock; a full leaf splits into two around a median separator.
//
// Substitution (DESIGN.md §5): separator placement uses median splits —
// balanced in expectation under the benchmarks' random/hashed keys —
// instead of treap priorities with rotations.
#pragma once

#include <algorithm>
#include <optional>

#include "flock/flock.hpp"

namespace flock_ds {

template <class K, class V, bool Strict = false, int B = 8>
class leaftreap {
  static_assert(B >= 2);

  struct node {
    const bool is_leaf;
    explicit node(bool leaf) : is_leaf(leaf) {}
  };

  // Immutable batch: all mutation is copy-on-write. Every constructor
  // fully builds the batch, so idempotent allocation commits only
  // finished objects (losers of the commit are discarded whole; nothing
  // is ever written to a batch after it is published).
  struct batch : node {
    int count;
    K keys[B];
    V vals[B];

    batch(K k, V v) : node(true), count(1) {
      keys[0] = k;
      vals[0] = v;
    }
    // src + (k,v), sorted; caller guarantees space and absence.
    batch(const batch& src, K k, V v) : node(true) {
      int i = 0, j = 0;
      while (i < src.count && src.keys[i] < k) {
        keys[j] = src.keys[i];
        vals[j] = src.vals[i];
        i++;
        j++;
      }
      keys[j] = k;
      vals[j] = v;
      j++;
      while (i < src.count) {
        keys[j] = src.keys[i];
        vals[j] = src.vals[i];
        i++;
        j++;
      }
      count = j;
    }
    // src - k.
    batch(const batch& src, K k) : node(true) {
      int j = 0;
      for (int i = 0; i < src.count; i++) {
        if (src.keys[i] == k) continue;
        keys[j] = src.keys[i];
        vals[j] = src.vals[i];
        j++;
      }
      count = j;
    }
    // Range copy.
    batch(const K* ks, const V* vs, int n) : node(true), count(n) {
      for (int i = 0; i < n; i++) {
        keys[i] = ks[i];
        vals[i] = vs[i];
      }
    }
  };

  struct internal : node {
    const K key;
    flock::mutable_<node*> left;
    flock::mutable_<node*> right;
    flock::write_once<bool> removed;
    flock::lock lck;
    internal(K k, node* l, node* r) : node(false), key(k) {
      left.init(l);
      right.init(r);
      removed.init(false);
    }
  };

  static internal* as_int(node* n) { return static_cast<internal*>(n); }
  static batch* as_leaf(node* n) { return static_cast<batch*>(n); }

  static int find_in(const batch* b, K k) {
    for (int i = 0; i < b->count; i++)
      if (b->keys[i] == k) return i;
    return -1;
  }

 public:
  leaftreap() { root_ = flock::pool_new<internal>(K{}, nullptr, nullptr); }

  ~leaftreap() {
    destroy(root_->left.read_raw());
    flock::pool_delete(root_);
  }

  std::optional<V> find(K k) {
    return flock::with_epoch([&]() -> std::optional<V> {
      node* n = root_->left.load();
      while (n != nullptr && !n->is_leaf)
        n = k < as_int(n)->key ? as_int(n)->left.load()
                               : as_int(n)->right.load();
      if (n == nullptr) return {};
      int i = find_in(as_leaf(n), k);
      if (i < 0) return {};
      return as_leaf(n)->vals[i];
    });
  }

  bool insert(K k, V v) {
    return flock::with_epoch([&] {
      while (true) {
        auto [gp, p, l] = search(k);
        (void)gp;
        if (l == nullptr) {
          internal* rp = root_;
          if (flock::acquire<Strict>(rp->lck, [=] {
                if (rp->left.load() != nullptr) return false;
                rp->left = static_cast<node*>(flock::allocate<batch>(k, v));
                return true;
              }))
            return true;
          continue;
        }
        batch* lf = as_leaf(l);
        if (find_in(lf, k) >= 0) return false;
        internal* par = p;
        bool went_left = child_dir(par, k);
        if (flock::acquire<Strict>(par->lck, [=, this] {
              if (par != root_ && par->removed.load()) return false;
              flock::mutable_<node*>& slot =
                  went_left ? par->left : par->right;
              if (slot.load() != static_cast<node*>(lf)) return false;
              if (lf->count < B) {
                slot.store(copy_insert(lf, k, v));
              } else {
                slot.store(split_insert(lf, k, v));
              }
              flock::retire<batch>(lf);
              return true;
            }))
          return true;
      }
    });
  }

  bool remove(K k) {
    return flock::with_epoch([&] {
      while (true) {
        auto [gp, p, l] = search(k);
        if (l == nullptr) return false;
        batch* lf = as_leaf(l);
        if (find_in(lf, k) < 0) return false;
        internal* par = p;
        if (lf->count > 1) {
          bool went_left = child_dir(par, k);
          if (flock::acquire<Strict>(par->lck, [=, this] {
                if (par != root_ && par->removed.load()) return false;
                flock::mutable_<node*>& slot =
                    went_left ? par->left : par->right;
                if (slot.load() != static_cast<node*>(lf)) return false;
                slot.store(copy_remove(lf, k));
                flock::retire<batch>(lf);
                return true;
              }))
            return true;
          continue;
        }
        // Last pair in the batch: splice like an external BST.
        if (par == root_) {
          internal* rp = root_;
          if (flock::acquire<Strict>(rp->lck, [=] {
                if (rp->left.load() != static_cast<node*>(lf)) return false;
                rp->left = static_cast<node*>(nullptr);
                flock::retire<batch>(lf);
                return true;
              }))
            return true;
          continue;
        }
        internal* g = gp;
        bool g_left = child_dir(g, k);
        bool p_left = child_dir(par, k);
        if (flock::acquire<Strict>(g->lck, [=, this] {
              return flock::acquire<Strict>(par->lck, [=, this] {
                if (g != root_ && g->removed.load()) return false;
                flock::mutable_<node*>& gslot = g_left ? g->left : g->right;
                if (gslot.load() != static_cast<node*>(par)) return false;
                flock::mutable_<node*>& pslot =
                    p_left ? par->left : par->right;
                if (pslot.load() != static_cast<node*>(lf)) return false;
                node* sibling =
                    p_left ? par->right.load() : par->left.load();
                par->removed = true;
                gslot.store(sibling);
                flock::retire<internal>(par);
                flock::retire<batch>(lf);
                return true;
              });
            }))
          return true;
      }
    });
  }

  /// Quiescent audits. ---------------------------------------------------
  std::size_t size() const { return count(root_->left.read_raw()); }

  bool check_invariants() const {
    bool ok = true;
    validate(root_->left.read_raw(), K{}, false, K{}, false, ok);
    return ok;
  }

  template <class F>
  void for_each(F&& f) const {
    walk(root_->left.read_raw(), f);
  }

 private:
  bool child_dir(internal* n, K k) const {
    return n == root_ || k < n->key;
  }

  std::tuple<internal*, internal*, node*> search(K k) {
    internal* gp = nullptr;
    internal* p = root_;
    node* n = root_->left.load();
    while (n != nullptr && !n->is_leaf) {
      gp = p;
      p = as_int(n);
      n = k < as_int(n)->key ? as_int(n)->left.load()
                             : as_int(n)->right.load();
    }
    return {gp, p, n};
  }

  // New batch = lf + (k,v), sorted. Caller guarantees space and absence.
  node* copy_insert(const batch* lf, K k, V v) {
    return flock::allocate<batch>(*lf, k, v);
  }

  node* copy_remove(const batch* lf, K k) {
    return flock::allocate<batch>(*lf, k);
  }

  // Full leaf: split around the median of the B+1 merged pairs.
  node* split_insert(const batch* lf, K k, V v) {
    K ks[B + 1];
    V vs[B + 1];
    int i = 0, j = 0;
    while (i < lf->count && lf->keys[i] < k) {
      ks[j] = lf->keys[i];
      vs[j] = lf->vals[i];
      i++;
      j++;
    }
    ks[j] = k;
    vs[j] = v;
    j++;
    while (i < lf->count) {
      ks[j] = lf->keys[i];
      vs[j] = lf->vals[i];
      i++;
      j++;
    }
    int half = (B + 1) / 2;
    batch* lo = flock::allocate<batch>(ks, vs, half);
    batch* hi = flock::allocate<batch>(ks + half, vs + half, (B + 1) - half);
    return flock::allocate<internal>(hi->keys[0], lo, hi);
  }

  static void destroy(node* n) {
    if (n == nullptr) return;
    if (n->is_leaf) {
      flock::pool_delete(as_leaf(n));
      return;
    }
    destroy(as_int(n)->left.read_raw());
    destroy(as_int(n)->right.read_raw());
    flock::pool_delete(as_int(n));
  }

  static std::size_t count(node* n) {
    if (n == nullptr) return 0;
    if (n->is_leaf) return static_cast<std::size_t>(as_leaf(n)->count);
    return count(as_int(n)->left.read_raw()) +
           count(as_int(n)->right.read_raw());
  }

  static void validate(node* n, K lo, bool has_lo, K hi, bool has_hi,
                       bool& ok) {
    if (n == nullptr || !ok) return;
    if (n->is_leaf) {
      batch* b = as_leaf(n);
      if (b->count < 1 || b->count > B) {
        ok = false;
        return;
      }
      for (int i = 0; i < b->count; i++) {
        if (i > 0 && !(b->keys[i - 1] < b->keys[i])) ok = false;
        if (has_lo && b->keys[i] < lo) ok = false;
        if (has_hi && !(b->keys[i] < hi)) ok = false;
      }
      return;
    }
    internal* in = as_int(n);
    if (in->removed.read_raw()) {
      ok = false;
      return;
    }
    validate(in->left.read_raw(), lo, has_lo, in->key, true, ok);
    validate(in->right.read_raw(), in->key, true, hi, has_hi, ok);
  }

  template <class F>
  static void walk(node* n, F&& f) {
    if (n == nullptr) return;
    if (n->is_leaf) {
      batch* b = as_leaf(n);
      for (int i = 0; i < b->count; i++) f(b->keys[i], b->vals[i]);
      return;
    }
    walk(as_int(n)->left.read_raw(), f);
    walk(as_int(n)->right.read_raw(), f);
  }

  internal* root_;
};

}  // namespace flock_ds
