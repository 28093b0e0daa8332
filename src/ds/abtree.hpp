// abtree.hpp — leaf-oriented (a,b)-tree with fine-grained optimistic
// locking (paper §7 "an (a,b)-tree (abtree)").
//
// Design:
//  * Leaves are immutable batches (copy-on-write): a point update locks
//    only the leaf's parent and swaps one child slot.
//  * Internal nodes have an immutable key array and mutable child slots;
//    slot updates require the node's lock. Structural changes that alter
//    a node's key set build a new node and swap it in the parent (so they
//    lock parent -> node -> affected children, a simply nested chain in
//    descent order; siblings are locked left-before-right).
//  * Splits and merges are PREEMPTIVE (top-down): while descending, a
//    full child (count == B) is split and a minimal child (count <= A) is
//    fixed by borrow/merge, then the operation restarts from the root.
//    Hence a leaf update never propagates upward: lock scope is bounded.
//  * An `anchor` with a single child slot plays root-parent, so the root
//    needs no special-casing for slot swaps.
//
// Parameters: A = 3, B = 12 (b >= 2a+1 so preemptive splits/merges keep
// every non-root node within [A, B] keys).
#pragma once

#include <optional>

#include "flock/flock.hpp"

namespace flock_ds {

template <class K, class V, bool Strict = false, int A = 3, int B = 12>
class abtree {
  static_assert(B >= 2 * A + 1, "preemptive (a,b) maintenance needs b >= 2a+1");

  struct node {
    const bool is_leaf;
    const int count;  // number of keys; internals have count+1 children
    K keys[B];
    node(bool leaf, int n) : is_leaf(leaf), count(n) {}
  };

  struct leafnode : node {
    V vals[B];
    leafnode(const K* ks, const V* vs, int n) : node(true, n) {
      for (int i = 0; i < n; i++) {
        this->keys[i] = ks[i];
        vals[i] = vs[i];
      }
    }
  };

  struct inode : node {
    flock::mutable_<node*> children[B + 1];
    flock::write_once<bool> removed;
    flock::lock lck;
    inode(const K* ks, int n, node* const* cs) : node(false, n) {
      for (int i = 0; i < n; i++) this->keys[i] = ks[i];
      for (int i = 0; i <= n; i++) children[i].init(cs[i]);
      removed.init(false);
    }
  };

  // The anchor holds the root pointer; it is never removed or replaced.
  struct anchor_t {
    flock::mutable_<node*> child;
    flock::lock lck;
  };

  static inode* as_int(node* n) { return static_cast<inode*>(n); }
  static leafnode* as_leaf(node* n) { return static_cast<leafnode*>(n); }

  // Child index for k: first i with k < keys[i], else count.
  static int route(const node* n, K k) {
    int i = 0;
    while (i < n->count && !(k < n->keys[i])) i++;
    return i;
  }

  static int find_in_leaf(const leafnode* l, K k) {
    for (int i = 0; i < l->count; i++)
      if (l->keys[i] == k) return i;
    return -1;
  }

 public:
  abtree() { anchor_.child.init(nullptr); }

  ~abtree() { destroy(anchor_.child.read_raw()); }

  std::optional<V> find(K k) {
    return flock::with_epoch([&]() -> std::optional<V> {
      node* n = anchor_.child.load();
      while (n != nullptr && !n->is_leaf)
        n = as_int(n)->children[route(n, k)].load();
      if (n == nullptr) return {};
      int i = find_in_leaf(as_leaf(n), k);
      if (i < 0) return {};
      return as_leaf(n)->vals[i];
    });
  }

  bool insert(K k, V v) {
    return flock::with_epoch([&] {
      while (true) {
        node* n = anchor_.child.load();
        if (n == nullptr) {
          if (flock::acquire<Strict>(anchor_.lck, [=, this] {
                if (anchor_.child.load() != nullptr) return false;
                anchor_.child =
                    static_cast<node*>(flock::allocate<leafnode>(&k, &v, 1));
                return true;
              }))
            return true;
          continue;
        }
        if (n->count == B) {  // preemptive root split
          split_root(n);
          continue;
        }
        // Descend; split any full child before entering it.
        inode* parent = nullptr;  // nullptr => anchor
        bool restart = false;
        while (!n->is_leaf) {
          int idx = route(n, k);
          node* c = as_int(n)->children[idx].load();
          if (c->count == B) {
            split_child(parent, as_int(n), idx, c);
            restart = true;
            break;
          }
          parent = as_int(n);
          n = c;
        }
        if (restart) continue;
        leafnode* lf = as_leaf(n);
        if (find_in_leaf(lf, k) >= 0) return false;
        if (replace_leaf(parent, lf, [=](const leafnode* src) {
              K ks[B + 1];
              V vs[B + 1];
              int cnt = merge_into(src, k, v, ks, vs);
              return flock::allocate<leafnode>(ks, vs, cnt);
            }))
          return true;
      }
    });
  }

  bool remove(K k) {
    return flock::with_epoch([&] {
      while (true) {
        node* n = anchor_.child.load();
        if (n == nullptr) return false;
        if (!n->is_leaf && n->count == 0) {  // collapse trivial root
          collapse_root(as_int(n));
          continue;
        }
        inode* parent = nullptr;
        bool restart = false;
        while (!n->is_leaf) {
          int idx = route(n, k);
          node* c = as_int(n)->children[idx].load();
          if (c->count <= A) {  // preemptive borrow/merge
            fix_child(parent, as_int(n), idx, c);
            restart = true;
            break;
          }
          parent = as_int(n);
          n = c;
        }
        if (restart) continue;
        leafnode* lf = as_leaf(n);
        if (find_in_leaf(lf, k) < 0) return false;
        if (parent == nullptr && lf->count == 1) {
          // Removing the only key in the tree.
          if (flock::acquire<Strict>(anchor_.lck, [=, this] {
                if (anchor_.child.load() != static_cast<node*>(lf))
                  return false;
                anchor_.child = static_cast<node*>(nullptr);
                flock::retire<leafnode>(lf);
                return true;
              }))
            return true;
          continue;
        }
        if (replace_leaf(parent, lf, [=](const leafnode* src) {
              K ks[B];
              V vs[B];
              int cnt = remove_from(src, k, ks, vs);
              return flock::allocate<leafnode>(ks, vs, cnt);
            }))
          return true;
      }
    });
  }

  /// Quiescent audits. ---------------------------------------------------
  std::size_t size() const { return count_keys(anchor_.child.read_raw()); }

  bool check_invariants() const {
    bool ok = true;
    node* r = anchor_.child.read_raw();
    if (r != nullptr) {
      int depth = -1;
      validate(r, true, K{}, false, K{}, false, 0, depth, ok);
    }
    return ok;
  }

  template <class F>
  void for_each(F&& f) const {
    walk(anchor_.child.read_raw(), f);
  }

 private:
  // ---- point update at a leaf: lock the parent, swap the slot ----------
  template <class Make>
  bool replace_leaf(inode* parent, leafnode* lf, Make make) {
    if (parent == nullptr) {
      return flock::acquire<Strict>(anchor_.lck, [=, this] {
        if (anchor_.child.load() != static_cast<node*>(lf)) return false;
        anchor_.child = static_cast<node*>(make(lf));
        flock::retire<leafnode>(lf);
        return true;
      });
    }
    // The slot index must be revalidated by value: parent's key array is
    // immutable, so the index for lf's key range is stable.
    int idx = route(parent, lf->keys[0]);
    return flock::acquire<Strict>(parent->lck, [=] {
      if (parent->removed.load()) return false;
      if (parent->children[idx].load() != static_cast<node*>(lf))
        return false;
      parent->children[idx].store(make(lf));
      flock::retire<leafnode>(lf);
      return true;
    });
  }

  // ---- structural operations (all restart the caller) ------------------

  // Split the full root n into two nodes under a fresh root.
  void split_root(node* n) {
    flock::acquire<Strict>(anchor_.lck, [=, this] {
      if (anchor_.child.load() != n) return false;
      if (n->is_leaf) {
        node* parts[2];
        K sep = split_leaf(as_leaf(n), parts);
        node* nr[1] = {nullptr};
        (void)nr;
        node* cs[2] = {parts[0], parts[1]};
        anchor_.child =
            static_cast<node*>(flock::allocate<inode>(&sep, 1, cs));
        flock::retire<leafnode>(as_leaf(n));
        return true;
      }
      inode* in = as_int(n);
      return flock::acquire<Strict>(in->lck, [=, this] {
        if (in->removed.load()) return false;
        node* parts[2];
        K sep = split_internal(in, parts);
        node* cs[2] = {parts[0], parts[1]};
        anchor_.child =
            static_cast<node*>(flock::allocate<inode>(&sep, 1, cs));
        in->removed = true;
        flock::retire<inode>(in);
        return true;
      });
    });
  }

  // Replace a 0-key internal root by its only child.
  void collapse_root(inode* r) {
    flock::acquire<Strict>(anchor_.lck, [=, this] {
      if (anchor_.child.load() != static_cast<node*>(r)) return false;
      return flock::acquire<Strict>(r->lck, [=, this] {
        if (r->removed.load()) return false;
        node* only = r->children[0].load();
        anchor_.child = only;
        r->removed = true;
        flock::retire<inode>(r);
        return true;
      });
    });
  }

  // Split child c (full) of n at slot idx; n is replaced by n' in parent
  // (or anchor). Locks: parent -> n -> c (c only if internal).
  void split_child(inode* parent, inode* n, int idx, node* c) {
    auto body = [=, this] {
      return flock::acquire<Strict>(n->lck, [=, this] {
        if (n->removed.load()) return false;
        if (n->children[idx].load() != c) return false;
        auto finish = [=, this](node* const parts[2], K sep) {
          K ks[B + 1];
          node* cs[B + 2];
          for (int i = 0; i < idx; i++) ks[i] = n->keys[i];
          ks[idx] = sep;
          for (int i = idx; i < n->count; i++) ks[i + 1] = n->keys[i];
          for (int i = 0; i < idx; i++) cs[i] = n->children[i].load();
          cs[idx] = parts[0];
          cs[idx + 1] = parts[1];
          for (int i = idx + 1; i <= n->count; i++)
            cs[i + 1] = n->children[i].load();
          inode* nn = flock::allocate<inode>(ks, n->count + 1, cs);
          swap_in(parent, n, nn);
          n->removed = true;
          flock::retire<inode>(n);
        };
        if (c->is_leaf) {
          node* parts[2];
          K sep = split_leaf(as_leaf(c), parts);
          finish(parts, sep);
          flock::retire<leafnode>(as_leaf(c));
          return true;
        }
        return flock::acquire<Strict>(as_int(c)->lck, [=, this] {
          if (as_int(c)->removed.load()) return false;
          node* parts[2];
          K sep = split_internal(as_int(c), parts);
          finish(parts, sep);
          as_int(c)->removed = true;
          flock::retire<inode>(as_int(c));
          return true;
        });
      });
    };
    lock_parent_then(parent, n, body);
  }

  // Fix child c (count <= A) of n at slot idx by borrowing from or
  // merging with an adjacent sibling. Locks: parent -> n -> left sibling
  // -> right sibling (internal children only).
  void fix_child(inode* parent, inode* n, int idx, node* c) {
    auto body = [=, this] {
      return flock::acquire<Strict>(n->lck, [=, this] {
        if (n->removed.load()) return false;
        if (n->children[idx].load() != c) return false;
        // Choose sibling: right if one exists, else left.
        bool use_right = idx < n->count;
        int sidx = use_right ? idx + 1 : idx - 1;
        node* s = n->children[sidx].load();
        int li = use_right ? idx : sidx;   // left child slot
        node* lc = use_right ? c : s;
        node* rc = use_right ? s : c;
        K sep = n->keys[li];
        auto finish = [=, this](node* const* repl, const K* rkeys,
                                int nrepl) {
          // Replace children [li, li+1] by repl[0..nrepl) and separator
          // keys accordingly (nrepl==2: borrow, new separator rkeys[0];
          // nrepl==1: merge, separator removed).
          K ks[B + 1];
          node* cs[B + 2];
          int kn = 0, cn = 0;
          for (int i = 0; i < li; i++) ks[kn++] = n->keys[i];
          if (nrepl == 2) ks[kn++] = rkeys[0];
          for (int i = li + 1; i < n->count; i++) ks[kn++] = n->keys[i];
          for (int i = 0; i < li; i++) cs[cn++] = n->children[i].load();
          for (int i = 0; i < nrepl; i++) cs[cn++] = repl[i];
          for (int i = li + 2; i <= n->count; i++)
            cs[cn++] = n->children[i].load();
          inode* nn = flock::allocate<inode>(ks, kn, cs);
          swap_in(parent, n, nn);
          n->removed = true;
          flock::retire<inode>(n);
        };
        if (c->is_leaf) {
          leafnode* L = as_leaf(lc);
          leafnode* R = as_leaf(rc);
          if (L->count + R->count <= B) {  // merge
            K ks[B];
            V vs[B];
            int cnt = 0;
            for (int i = 0; i < L->count; i++) {
              ks[cnt] = L->keys[i];
              vs[cnt++] = L->vals[i];
            }
            for (int i = 0; i < R->count; i++) {
              ks[cnt] = R->keys[i];
              vs[cnt++] = R->vals[i];
            }
            node* repl[1] = {flock::allocate<leafnode>(ks, vs, cnt)};
            finish(repl, nullptr, 1);
          } else {  // borrow: rebalance evenly
            K ks[2 * B];
            V vs[2 * B];
            int cnt = 0;
            for (int i = 0; i < L->count; i++) {
              ks[cnt] = L->keys[i];
              vs[cnt++] = L->vals[i];
            }
            for (int i = 0; i < R->count; i++) {
              ks[cnt] = R->keys[i];
              vs[cnt++] = R->vals[i];
            }
            int half = cnt / 2;
            node* repl[2] = {
                flock::allocate<leafnode>(ks, vs, half),
                flock::allocate<leafnode>(ks + half, vs + half, cnt - half)};
            K nsep[1] = {ks[half]};
            finish(repl, nsep, 2);
          }
          flock::retire<leafnode>(L);
          flock::retire<leafnode>(R);
          return true;
        }
        // Internal children: lock left then right for a stable snapshot.
        inode* L = as_int(lc);
        inode* R = as_int(rc);
        return flock::acquire<Strict>(L->lck, [=, this] {
          if (L->removed.load()) return false;
          return flock::acquire<Strict>(R->lck, [=, this] {
            if (R->removed.load()) return false;
            // Merge keys: L.keys + sep + R.keys; children concatenated.
            K ks[2 * B + 1];
            node* cs[2 * B + 2];
            int kn = 0, cn = 0;
            for (int i = 0; i < L->count; i++) ks[kn++] = L->keys[i];
            ks[kn++] = sep;
            for (int i = 0; i < R->count; i++) ks[kn++] = R->keys[i];
            for (int i = 0; i <= L->count; i++)
              cs[cn++] = L->children[i].load();
            for (int i = 0; i <= R->count; i++)
              cs[cn++] = R->children[i].load();
            if (kn <= B) {  // merge
              node* repl[1] = {flock::allocate<inode>(ks, kn, cs)};
              finish(repl, nullptr, 1);
            } else {  // borrow: split the concatenation evenly
              int half = kn / 2;
              node* repl[2] = {
                  flock::allocate<inode>(ks, half, cs),
                  flock::allocate<inode>(ks + half + 1, kn - half - 1,
                                         cs + half + 1)};
              K nsep[1] = {ks[half]};
              finish(repl, nsep, 2);
            }
            L->removed = true;
            R->removed = true;
            flock::retire<inode>(L);
            flock::retire<inode>(R);
            return true;
          });
        });
      });
    };
    lock_parent_then(parent, n, body);
  }

  // Run `body` under the lock that owns n's slot (anchor or parent).
  template <class Body>
  void lock_parent_then(inode* parent, inode* n, Body body) {
    if (parent == nullptr) {
      flock::acquire<Strict>(anchor_.lck, [=, this] {
        if (anchor_.child.load() != static_cast<node*>(n)) return false;
        return body();
      });
    } else {
      int idx = route(parent, n->keys[0]);
      flock::acquire<Strict>(parent->lck, [=] {
        if (parent->removed.load()) return false;
        if (parent->children[idx].load() != static_cast<node*>(n))
          return false;
        return body();
      });
    }
  }

  // Swap n -> nn in whoever owns n's slot. Caller holds that lock and has
  // validated the slot, so a plain store is safe.
  void swap_in(inode* parent, inode* n, inode* nn) {
    if (parent == nullptr) {
      anchor_.child.store(nn);
    } else {
      int idx = route(parent, n->keys[0]);
      parent->children[idx].store(nn);
    }
  }

  // ---- pure array helpers ----------------------------------------------

  static int merge_into(const leafnode* src, K k, V v, K* ks, V* vs) {
    int i = 0, j = 0;
    while (i < src->count && src->keys[i] < k) {
      ks[j] = src->keys[i];
      vs[j] = src->vals[i];
      i++;
      j++;
    }
    ks[j] = k;
    vs[j] = v;
    j++;
    while (i < src->count) {
      ks[j] = src->keys[i];
      vs[j] = src->vals[i];
      i++;
      j++;
    }
    return j;
  }

  static int remove_from(const leafnode* src, K k, K* ks, V* vs) {
    int j = 0;
    for (int i = 0; i < src->count; i++) {
      if (src->keys[i] == k) continue;
      ks[j] = src->keys[i];
      vs[j] = src->vals[i];
      j++;
    }
    return j;
  }

  // Split a full leaf into halves; returns the separator.
  K split_leaf(const leafnode* l, node* parts[2]) {
    int half = l->count / 2;
    parts[0] = flock::allocate<leafnode>(l->keys, l->vals, half);
    parts[1] = flock::allocate<leafnode>(l->keys + half, l->vals + half,
                                         l->count - half);
    return l->keys[half];
  }

  // Split a full internal node (caller holds its lock).
  K split_internal(inode* n, node* parts[2]) {
    int half = n->count / 2;
    node* cs[B + 1];
    for (int i = 0; i <= n->count; i++) cs[i] = n->children[i].load();
    parts[0] = flock::allocate<inode>(n->keys, half, cs);
    parts[1] = flock::allocate<inode>(n->keys + half + 1,
                                      n->count - half - 1, cs + half + 1);
    return n->keys[half];
  }

  // ---- audits ------------------------------------------------------------

  static void destroy(node* n) {
    if (n == nullptr) return;
    if (n->is_leaf) {
      flock::pool_delete(as_leaf(n));
      return;
    }
    for (int i = 0; i <= n->count; i++)
      destroy(as_int(n)->children[i].read_raw());
    flock::pool_delete(as_int(n));
  }

  static std::size_t count_keys(node* n) {
    if (n == nullptr) return 0;
    if (n->is_leaf) return static_cast<std::size_t>(n->count);
    std::size_t s = 0;
    for (int i = 0; i <= n->count; i++)
      s += count_keys(as_int(n)->children[i].read_raw());
    return s;
  }

  static void validate(node* n, bool is_root, K lo, bool has_lo, K hi,
                       bool has_hi, int depth, int& leaf_depth, bool& ok) {
    if (!ok || n == nullptr) {
      ok = false;
      return;
    }
    if (!is_root && n->count < A) ok = false;  // occupancy
    if (n->count > B) ok = false;
    for (int i = 1; i < n->count; i++)
      if (!(n->keys[i - 1] < n->keys[i])) ok = false;
    for (int i = 0; i < n->count; i++) {
      if (has_lo && n->keys[i] < lo) ok = false;
      if (has_hi && !(n->keys[i] < hi)) ok = false;
    }
    if (n->is_leaf) {
      if (is_root && n->count < 1) ok = false;
      if (leaf_depth < 0)
        leaf_depth = depth;
      else if (leaf_depth != depth)
        ok = false;  // perfect leaf depth (B+tree property)
      return;
    }
    if (is_root && n->count < 1) ok = false;
    if (as_int(n)->removed.read_raw()) ok = false;
    for (int i = 0; i <= n->count; i++) {
      K clo = i == 0 ? lo : n->keys[i - 1];
      bool chas_lo = i == 0 ? has_lo : true;
      K chi = i == n->count ? hi : n->keys[i];
      bool chas_hi = i == n->count ? has_hi : true;
      validate(as_int(n)->children[i].read_raw(), false, clo, chas_lo, chi,
               chas_hi, depth + 1, leaf_depth, ok);
    }
  }

  template <class F>
  static void walk(node* n, F&& f) {
    if (n == nullptr) return;
    if (n->is_leaf) {
      for (int i = 0; i < n->count; i++)
        f(n->keys[i], as_leaf(n)->vals[i]);
      return;
    }
    for (int i = 0; i <= n->count; i++)
      walk(as_int(n)->children[i].read_raw(), std::forward<F>(f));
  }

  anchor_t anchor_;
};

}  // namespace flock_ds
