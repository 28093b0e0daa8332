// set_adapter.hpp — a uniform Set facade over every data structure in the
// repo so tests and benchmarks are written once. Adapters expose
//   bool insert(uint64_t k, uint64_t v); bool remove(uint64_t k);
//   std::optional<uint64_t> find(uint64_t k);
//   size_t size(); bool check_invariants();
//
// The arttree adapter maps keys through splitmix64 (paper §8: "we sparsify
// the key range by hashing each key... This does not affect the other
// data structures since they either are purely comparison based or hash
// the keys themselves").
#pragma once

#include <cstdint>
#include <optional>

#include "baselines/ellen_bst.hpp"
#include "baselines/harris_list.hpp"
#include "baselines/natarajan_bst.hpp"
#include "ds/abtree.hpp"
#include "ds/arttree.hpp"
#include "ds/dlist.hpp"
#include "ds/hashtable.hpp"
#include "ds/lazylist.hpp"
#include "ds/leaftree.hpp"
#include "ds/leaftreap.hpp"
#include "store/sharded_map.hpp"
#include "zipf.hpp"

namespace flock_workload {

/// Key maps: what the adapter hands the structure for a caller's key.
struct same_keys {
  static uint64_t map(uint64_t k) { return k; }
};
/// ART's sparsification. splitmix64 is a bijection on 64-bit values, so
/// distinct keys stay distinct.
struct hashed_keys {
  static uint64_t map(uint64_t k) { return splitmix64(k); }
};

/// The one adapter: forwards every operation with its key mapped by `Key`.
template <class DS, class Key = same_keys>
class set_adapter {
 public:
  template <class... Args>
  explicit set_adapter(Args&&... args) : ds_(std::forward<Args>(args)...) {}

  bool insert(uint64_t k, uint64_t v) { return ds_.insert(Key::map(k), v); }
  bool remove(uint64_t k) { return ds_.remove(Key::map(k)); }
  std::optional<uint64_t> find(uint64_t k) { return ds_.find(Key::map(k)); }
  std::size_t size() const { return ds_.size(); }
  /// Stats-line population read: the structure's O(#counter-shards)
  /// estimate where one exists (hashtable, sharded_map), else the exact
  /// scan — so demo stats lines can print population without paying an
  /// O(n) walk on structures that track occupancy.
  std::size_t approx_size() const {
    if constexpr (requires(const DS& d) { d.approx_size(); })
      return ds_.approx_size();
    else
      return ds_.size();
  }
  bool check_invariants() const { return ds_.check_invariants(); }
  DS& underlying() { return ds_; }
  const DS& underlying() const { return ds_; }

 private:
  DS ds_;
};

/// The sparsified adapter under its own name, so its instantiations read
/// as such in type-parameterized test names.
template <class DS>
struct hashed_adapter : set_adapter<DS, hashed_keys> {
  using set_adapter<DS, hashed_keys>::set_adapter;
};

// Canonical instantiations used by tests and benchmarks. ---------------
using lazylist_try = set_adapter<flock_ds::lazylist<uint64_t, uint64_t, false>>;
using lazylist_strict = set_adapter<flock_ds::lazylist<uint64_t, uint64_t, true>>;
using dlist_try = set_adapter<flock_ds::dlist<uint64_t, uint64_t, false>>;
using dlist_strict = set_adapter<flock_ds::dlist<uint64_t, uint64_t, true>>;
using hashtable_try = set_adapter<flock_ds::hashtable<uint64_t, uint64_t, false>>;
using sharded_try = set_adapter<flock_store::sharded_map<uint64_t, uint64_t, false>>;
using sharded_strict = set_adapter<flock_store::sharded_map<uint64_t, uint64_t, true>>;
using leaftree_try = set_adapter<flock_ds::leaftree<uint64_t, uint64_t, false>>;
using leaftree_strict = set_adapter<flock_ds::leaftree<uint64_t, uint64_t, true>>;
using leaftreap_try = set_adapter<flock_ds::leaftreap<uint64_t, uint64_t, false>>;
using abtree_try = set_adapter<flock_ds::abtree<uint64_t, uint64_t, false>>;
using abtree_strict = set_adapter<flock_ds::abtree<uint64_t, uint64_t, true>>;
using arttree_try = hashed_adapter<flock_ds::arttree<uint64_t, false>>;
using harris = set_adapter<flock_baselines::harris_list<uint64_t, uint64_t>>;
using harris_opt =
    set_adapter<flock_baselines::harris_list_opt<uint64_t, uint64_t>>;
using natarajan = set_adapter<flock_baselines::natarajan_bst<uint64_t, uint64_t>>;
using ellen = set_adapter<flock_baselines::ellen_bst<uint64_t, uint64_t>>;

}  // namespace flock_workload
