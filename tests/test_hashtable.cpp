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

INSTANTIATE_TEST_SUITE_P(Modes, HashtableTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& i) {
                           return i.param ? "blocking" : "lockfree";
                         });

}  // namespace
