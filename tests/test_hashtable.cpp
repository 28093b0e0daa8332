// hashtable: oracle, stress, and chaining-specific tests.
#include "set_test_util.hpp"
#include "workload/set_adapter.hpp"

namespace {

class HashtableTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { flock::set_blocking(GetParam()); }
  void TearDown() override {
    flock::set_blocking(false);
    flock::epoch_manager::instance().flush();
  }
};

TEST_P(HashtableTest, Battery) {
  set_test::battery<flock_workload::hashtable_try>();
}

TEST_P(HashtableTest, Oversubscribed) {
  set_test::oversubscribed<flock_workload::hashtable_try>();
}

TEST_P(HashtableTest, TinyTableGrowsUnderOracle) {
  // 64 buckets (the minimum) with 4k keys: the oracle's inserts push the
  // occupancy past the load-factor-1 threshold repeatedly, so this runs
  // the whole incremental-resize machinery under an exactness oracle.
  using ht = flock_ds::hashtable<uint64_t, uint64_t, false>;
  flock_workload::set_adapter<ht> s(std::size_t{1});
  EXPECT_EQ(s.underlying().bucket_count(), 64u);
  set_test::sequential_oracle(s, 4096, 20000, 3);
  EXPECT_GT(s.underlying().bucket_count(), 64u) << "table never grew";
}

TEST_P(HashtableTest, ChainsStaySorted) {
  flock_workload::hashtable_try s;
  for (uint64_t k = 1; k <= 5000; k++) s.insert(k, k);
  EXPECT_TRUE(s.check_invariants());
  EXPECT_EQ(s.size(), 5000u);
  // Default-constructed tables start at the 64-bucket floor and must have
  // resized several times to hold 5000 keys at load factor ~1.
  EXPECT_GE(s.underlying().bucket_count(), 4096u);
}

// A payload with no default constructor: the one read walk returns the
// node's value by copy and never default-constructs a V.
struct no_default_v {
  uint64_t a;
  explicit no_default_v(uint64_t x) : a(x) {}
  bool operator==(const no_default_v& o) const { return a == o.a; }
};
static_assert(!std::is_default_constructible_v<no_default_v>);

TEST_P(HashtableTest, NonDefaultConstructiblePayloadRoundTrips) {
  flock_ds::hashtable<uint64_t, no_default_v> ht(64);
  for (uint64_t k = 1; k <= 200; k++)
    EXPECT_TRUE(ht.insert(k, no_default_v{k * 10}));
  for (uint64_t k = 1; k <= 200; k++) {
    auto r = ht.find(k);
    ASSERT_TRUE(r.has_value()) << k;
    EXPECT_EQ(r->a, k * 10) << k;
  }
  EXPECT_FALSE(ht.find(500).has_value());
  EXPECT_TRUE(ht.remove(7));
  EXPECT_FALSE(ht.find(7).has_value());
  EXPECT_TRUE(ht.check_invariants());
}

TEST_P(HashtableTest, StrictLockVariant) {
  using ht = flock_ds::hashtable<uint64_t, uint64_t, true>;
  flock_workload::set_adapter<ht> s(std::size_t{256});
  set_test::concurrent_stress(s, 8, 300, 5000, 70);
}

// --- Log footprint of the migration units --------------------------------
// Deterministic single-threaded runs counted with flock::tls_commit_count()
// (slots committed inside thunks). A migration unit logs only the read its
// runs can disagree on — the forwarded-flag check — plus one allocation per
// copied node, one store per published successor chain and ONE retire slot
// for all its frozen chains; the frozen source chains are walked unlogged
// and each copy is linked at construction. A nested acquisition costs two
// slots of the enclosing log. Blocking mode runs the same thunks with no
// log, so every count there is 0.

using log_ht = flock_ds::hashtable<uint64_t, uint64_t>;

// Removing an absent key runs no thunk of its own: locate_update migrates
// the key's unit and one claimed chunk, then the search misses. Enough such
// calls drain a resize, so the commits they make are migration-only.
uint64_t drain_commits(log_ht& ht) {
  const uint64_t c0 = flock::tls_commit_count();
  for (uint64_t i = 0; i < 16; i++) EXPECT_FALSE(ht.remove(1'000'000 + i));
  return flock::tls_commit_count() - c0;
}

TEST_P(HashtableTest, GrowUnitLogsTwoSlotsPlusOnePerNodeAndPerHead) {
  log_ht ht(64);
  // The 64th insert reaches load factor 1 on a policy tick: a 128-bucket
  // successor is installed, nothing migrated yet.
  for (uint64_t k = 1; k <= 64; k++) ASSERT_TRUE(ht.insert(k, k));
  ASSERT_EQ(ht.grow_count(), 1u);
  ASSERT_EQ(ht.bucket_count(), 128u);
  // Per unit over an n-node chain: the flag load, one allocation per node,
  // one head store per non-empty half of the split, one retire slot for
  // the chain. Summed over 64 units holding 64 nodes: 2*64 + 64 plus the
  // number of non-empty successor buckets.
  bool filled[128] = {};
  for (uint64_t k = 1; k <= 64; k++) filled[log_ht::hash_of(k) & 127] = true;
  uint64_t heads = 0;
  for (bool f : filled) heads += f ? 1 : 0;
  EXPECT_EQ(drain_commits(ht), GetParam() ? 0u : 2u * 64 + 64 + heads);
  EXPECT_EQ(ht.size(), 64u);
  EXPECT_TRUE(ht.check_invariants());
}

TEST_P(HashtableTest, ShrinkUnitLogFootprint) {
  log_ht ht(64);
  for (uint64_t k = 1; k <= 64; k++) ASSERT_TRUE(ht.insert(k, k));
  drain_commits(ht);  // finish the grow to 128 buckets
  ASSERT_EQ(ht.bucket_count(), 128u);
  uint64_t k = 1;
  while (ht.shrink_count() == 0) ASSERT_TRUE(ht.remove(k++));
  ASSERT_EQ(ht.bucket_count(), 64u);  // half-size successor installed
  // Unit u merges the two old buckets whose keys land in successor bucket
  // u; n_u is the number of keys that land there. Per unit: lo's flag
  // load, the nested acquisition of hi's lock (2 slots of lo's log), the
  // publish store's load, one retire slot for both source chains = 5;
  // plus one allocation per node.
  std::size_t n[64] = {};
  for (uint64_t j = k; j <= 64; j++) n[log_ht::hash_of(j) & 63]++;
  uint64_t want = 0;
  for (std::size_t nu : n) want += 5 + nu;
  EXPECT_EQ(drain_commits(ht), GetParam() ? 0u : want);
  EXPECT_EQ(ht.size(), 64 - (k - 1));
  EXPECT_TRUE(ht.check_invariants());
}

TEST_P(HashtableTest, GrowThenDrainCommitsPerOp) {
  // 4096 keys into a 64-bucket table (7 grows), then all removed (7
  // shrinks). Exact totals: 8.25 commits per insert, 20.68 per remove (the
  // last grow's units drain during the removes).
  log_ht ht(64);
  const uint64_t c0 = flock::tls_commit_count();
  for (uint64_t k = 1; k <= 4096; k++) ASSERT_TRUE(ht.insert(k, k));
  const uint64_t c1 = flock::tls_commit_count();
  for (uint64_t k = 1; k <= 4096; k++) ASSERT_TRUE(ht.remove(k));
  const uint64_t c2 = flock::tls_commit_count();
  EXPECT_EQ(ht.grow_count(), 7u);
  EXPECT_EQ(ht.shrink_count(), 7u);
  EXPECT_EQ(c1 - c0, GetParam() ? 0u : 33791u);
  EXPECT_EQ(c2 - c1, GetParam() ? 0u : 84711u);
  EXPECT_EQ(ht.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, HashtableTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& i) {
                           return i.param ? "blocking" : "lockfree";
                         });

}  // namespace
