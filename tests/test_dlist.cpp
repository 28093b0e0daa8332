// dlist (Algorithm 1): oracle, stress, and doubly-linked specifics
// (back-pointer integrity is part of check_invariants).
#include "set_test_util.hpp"
#include "workload/set_adapter.hpp"

namespace {

class DlistTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { flock::set_blocking(GetParam()); }
  void TearDown() override {
    flock::set_blocking(false);
    flock::epoch_manager::instance().flush();
  }
};

TEST_P(DlistTest, BatteryTryLock) {
  set_test::battery<flock_workload::dlist_try>();
}

TEST_P(DlistTest, BatteryStrictLock) {
  set_test::battery<flock_workload::dlist_strict>();
}

TEST_P(DlistTest, Oversubscribed) {
  set_test::oversubscribed<flock_workload::dlist_try>();
}

TEST_P(DlistTest, BackPointersAfterChurn) {
  flock_workload::dlist_try s;
  // Interleave inserts and removes to exercise prev-pointer fixups.
  for (uint64_t k = 1; k <= 200; k++) s.insert(k, k);
  for (uint64_t k = 1; k <= 200; k += 2) s.remove(k);
  for (uint64_t k = 1; k <= 200; k += 4) s.insert(k, k);
  EXPECT_TRUE(s.check_invariants());  // includes prev == predecessor
}

TEST_P(DlistTest, SingleElementEdgeCases) {
  flock_workload::dlist_try s;
  EXPECT_FALSE(s.remove(7));
  EXPECT_TRUE(s.insert(7, 70));
  EXPECT_EQ(*s.find(7), 70u);
  EXPECT_TRUE(s.remove(7));
  EXPECT_FALSE(s.find(7).has_value());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.check_invariants());
}

TEST_P(DlistTest, ConcurrentNeighborsContention) {
  // Adjacent keys force contention on the same prev locks.
  flock_workload::dlist_try s;
  set_test::concurrent_stress(s, 8, 16, 5000, 90);
}

// Exact log-slot commits per successful operation in lock-free mode (the
// paper's "a successful insert commits about 5 entries to the log"). A
// change to what a dlist thunk logs must update these on purpose.
TEST(DlistLogSlots, FiveCommitsPerInsertEightPerRemove) {
  flock::set_blocking(false);
  flock_ds::dlist<uint64_t, uint64_t> d;
  // One resident element so inserts splice between sentinels and nodes.
  d.insert(500, 500);
  const uint64_t n = 1000;
  const uint64_t c0 = flock::tls_commit_count();
  for (uint64_t i = 0; i < n; i++) d.insert(1000 + i, i);
  const uint64_t c1 = flock::tls_commit_count();
  for (uint64_t i = 0; i < n; i++) d.remove(1000 + i);
  const uint64_t c2 = flock::tls_commit_count();
  EXPECT_EQ(c1 - c0, 5 * n);
  EXPECT_EQ(c2 - c1, 8 * n);
  flock::epoch_manager::instance().flush();
}

INSTANTIATE_TEST_SUITE_P(Modes, DlistTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& i) {
                           return i.param ? "blocking" : "lockfree";
                         });

}  // namespace
