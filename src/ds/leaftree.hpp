// leaftree.hpp — leaf-oriented (external) unbalanced binary search tree
// with fine-grained optimistic try-locks (paper §7 "a leaf-oriented
// unbalanced BST (leaftree)").
//
// Shape: internal nodes hold routing keys and two mutable child pointers;
// leaves hold the actual key/value and are immutable. Searches descend
// "k < key ? left : right" with no locks. An insert locks the leaf's
// parent and replaces the leaf by a new internal node with two leaves; a
// remove locks grandparent + parent (simply nested, ordered by depth) and
// splices the sibling up. A single sentinel root (whose left child is the
// whole tree) uniformly provides a parent/grandparent.
#pragma once

#include <algorithm>
#include <optional>

#include "flock/flock.hpp"

namespace flock_ds {

template <class K, class V, bool Strict = false>
class leaftree {
  struct node {
    const bool is_leaf;
    explicit node(bool leaf) : is_leaf(leaf) {}
  };

  struct internal : node {
    const K key;  // routing: keys < key go left, >= key go right
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

  struct leaf : node {
    const K k;
    const V v;
    leaf(K key, V val) : node(true), k(key), v(val) {}
  };

  static internal* as_int(node* n) { return static_cast<internal*>(n); }
  static leaf* as_leaf(node* n) { return static_cast<leaf*>(n); }

 public:
  leaftree() { root_ = flock::pool_new<internal>(K{}, nullptr, nullptr); }

  ~leaftree() {
    destroy(root_->left.read_raw());
    flock::pool_delete(root_);
  }

  std::optional<V> find(K k) {
    return flock::with_epoch([&]() -> std::optional<V> {
      node* n = root_->left.load();
      while (n != nullptr && !n->is_leaf)
        n = k < as_int(n)->key ? as_int(n)->left.load()
                               : as_int(n)->right.load();
      if (n != nullptr && as_leaf(n)->k == k) return as_leaf(n)->v;
      return {};
    });
  }

  bool insert(K k, V v) {
    return flock::with_epoch([&] {
      while (true) {
        auto [gp, p, l] = search(k);
        (void)gp;
        if (l == nullptr) {
          // Empty tree: install the first leaf under the sentinel root.
          internal* rp = root_;
          if (flock::acquire<Strict>(rp->lck, [=] {
                if (rp->left.load() != nullptr) return false;
                rp->left = flock::allocate<leaf>(k, v);
                return true;
              }))
            return true;
          continue;
        }
        if (as_leaf(l)->k == k) return false;  // already present
        internal* par = p;
        node* lf = l;
        bool went_left = child_dir(par, k);
        if (flock::acquire<Strict>(par->lck, [=, this] {
              if (par != root_ && par->removed.load()) return false;
              flock::mutable_<node*>& slot =
                  went_left ? par->left : par->right;
              if (slot.load() != lf) return false;  // validate
              leaf* nl = flock::allocate<leaf>(k, v);
              K lk = as_leaf(lf)->k;
              internal* ni =
                  k < lk ? flock::allocate<internal>(lk, nl, lf)
                         : flock::allocate<internal>(k, lf, nl);
              slot.store(ni);
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
        if (l == nullptr || as_leaf(l)->k != k) return false;
        if (p == root_) {
          // l is the only leaf: clear the sentinel's child.
          internal* rp = root_;
          node* lf = l;
          if (flock::acquire<Strict>(rp->lck, [=] {
                if (rp->left.load() != lf) return false;
                rp->left = static_cast<node*>(nullptr);
                flock::retire<leaf>(as_leaf(lf));
                return true;
              }))
            return true;
          continue;
        }
        internal* g = gp;
        internal* par = p;
        node* lf = l;
        bool g_left = child_dir(g, k);
        bool p_left = child_dir(par, k);
        if (flock::acquire<Strict>(g->lck, [=, this] {
              return flock::acquire<Strict>(par->lck, [=, this] {
                if (g != root_ && g->removed.load()) return false;
                flock::mutable_<node*>& gslot = g_left ? g->left : g->right;
                if (gslot.load() != static_cast<node*>(par)) return false;
                flock::mutable_<node*>& pslot =
                    p_left ? par->left : par->right;
                if (pslot.load() != lf) return false;
                node* sibling =
                    p_left ? par->right.load() : par->left.load();
                par->removed = true;
                gslot.store(sibling);  // splice parent out
                flock::retire<internal>(par);
                flock::retire<leaf>(as_leaf(lf));
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
    K lo{};
    K hi{};
    validate(root_->left.read_raw(), lo, false, hi, false, ok);
    return ok;
  }

  /// Leaves on the longest root-to-leaf path (0 when empty).
  std::size_t max_depth() const { return depth(root_->left.read_raw()); }

  template <class F>
  void for_each(F&& f) const {
    walk(root_->left.read_raw(), f);
  }

 private:
  // true = descend left. For the sentinel root, always left.
  bool child_dir(internal* n, K k) const {
    return n == root_ || k < n->key;
  }

  // (grandparent, parent, leaf-or-null). parent == root_ when the leaf
  // hangs directly off the sentinel.
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

  static std::size_t depth(node* n) {
    if (n == nullptr) return 0;
    if (n->is_leaf) return 1;
    return 1 + std::max(depth(as_int(n)->left.read_raw()),
                        depth(as_int(n)->right.read_raw()));
  }

  static std::size_t count(node* n) {
    if (n == nullptr) return 0;
    if (n->is_leaf) return 1;
    return count(as_int(n)->left.read_raw()) +
           count(as_int(n)->right.read_raw());
  }

  // BST routing invariant: every leaf key within (lo, hi]; internal nodes
  // route left strictly below their key.
  static void validate(node* n, K lo, bool has_lo, K hi, bool has_hi,
                       bool& ok) {
    if (n == nullptr || !ok) return;
    if (n->is_leaf) {
      K k = as_leaf(n)->k;
      if (has_lo && k < lo) ok = false;
      if (has_hi && !(k < hi)) ok = false;
      return;
    }
    internal* i = as_int(n);
    if (i->removed.read_raw()) {
      ok = false;
      return;
    }
    if (has_lo && i->key < lo) ok = false;
    if (has_hi && hi < i->key) ok = false;
    validate(i->left.read_raw(), lo, has_lo, i->key, true, ok);
    validate(i->right.read_raw(), i->key, true, hi, has_hi, ok);
  }

  template <class F>
  static void walk(node* n, F&& f) {
    if (n == nullptr) return;
    if (n->is_leaf) {
      f(as_leaf(n)->k, as_leaf(n)->v);
      return;
    }
    walk(as_int(n)->left.read_raw(), f);
    walk(as_int(n)->right.read_raw(), f);
  }

  internal* root_;  // sentinel: tree hangs off root_->left
};

}  // namespace flock_ds
