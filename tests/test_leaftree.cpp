// leaftree (external BST): oracle, stress, and shape-specific tests.
#include "set_test_util.hpp"
#include "workload/set_adapter.hpp"

namespace {

class LeaftreeTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { flock::set_blocking(GetParam()); }
  void TearDown() override {
    flock::set_blocking(false);
    flock::epoch_manager::instance().flush();
  }
};

TEST_P(LeaftreeTest, BatteryTryLock) {
  set_test::battery<flock_workload::leaftree_try>();
}

TEST_P(LeaftreeTest, BatteryStrictLock) {
  set_test::battery<flock_workload::leaftree_strict>();
}

TEST_P(LeaftreeTest, Oversubscribed) {
  set_test::oversubscribed<flock_workload::leaftree_try>();
}

TEST_P(LeaftreeTest, SkewedInsertOrderStillCorrect) {
  flock_workload::leaftree_try s;
  for (uint64_t k = 1; k <= 2000; k++) EXPECT_TRUE(s.insert(k, k));
  EXPECT_TRUE(s.check_invariants());
  for (uint64_t k = 2000; k >= 1; k--) EXPECT_TRUE(s.remove(k));
  EXPECT_EQ(s.size(), 0u);
}

TEST_P(LeaftreeTest, EmptySingletonTransitions) {
  flock_workload::leaftree_try s;
  EXPECT_FALSE(s.find(1).has_value());
  EXPECT_FALSE(s.remove(1));
  EXPECT_TRUE(s.insert(1, 10));   // empty -> singleton
  EXPECT_TRUE(s.remove(1));       // singleton -> empty
  EXPECT_TRUE(s.insert(2, 20));   // empty -> singleton again
  EXPECT_TRUE(s.insert(3, 30));   // singleton -> internal
  EXPECT_TRUE(s.remove(2));       // collapse back
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.check_invariants());
}

TEST_P(LeaftreeTest, GrandparentSpliceRace) {
  // Deleting near-adjacent leaves stresses gp+parent nested locking.
  flock_workload::leaftree_try s;
  set_test::concurrent_stress(s, 8, 32, 8000, 95);
}

// Log footprint of a remove whose grandparent is an internal node: the
// nested acquisition of the parent's lock costs the grandparent's thunk 2
// slots; the parent's thunk logs the grandparent's removed flag, the two
// child links it validates, the sibling, the splice store's load and the
// two retires = 7, which fits the descriptor's inline log block. Keys
// inserted in increasing order build a right spine, so removing them from
// the top down until two are left always splices below the tree's root.
TEST_P(LeaftreeTest, NestedRemoveLogsNineSlots) {
  flock_workload::leaftree_try s;
  for (uint64_t k = 1; k <= 64; k++) ASSERT_TRUE(s.insert(k, k));
  for (uint64_t k = 64; k >= 3; k--) {
    const uint64_t c0 = flock::tls_commit_count();
    ASSERT_TRUE(s.remove(k));
    EXPECT_EQ(flock::tls_commit_count() - c0, GetParam() ? 0u : 9u) << k;
  }
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(Modes, LeaftreeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& i) {
                           return i.param ? "blocking" : "lockfree";
                         });

}  // namespace
