// Edge cases of the faultpoint plan layer (chaos/faultpoint.hpp): what
// can name a point at compile time, re-arming while a plan is active,
// nested victim_scope, counters across arms, the alloc-site-only contract
// of alloc_fail entries, and the pinned seeded plans.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "chaos/faultpoint.hpp"

namespace {

namespace chaos = flock_chaos;
using chaos::point;

// Only a fault-point id arms a point or reads its hits: a string (whose
// typo would arm a plan that never fires) and a sched-only id do not
// compile, and a misspelled id names nothing.
template <class Id>
constexpr bool armable =
    requires(Id id) { chaos::arm(id, chaos::fault::stall); };
template <class Id>
constexpr bool has_hits = requires(Id id) { chaos::hits(id); };
template <class Ids>
constexpr bool names_install_post = requires { Ids::lock_install_post; };
template <class Ids>
constexpr bool names_typo = requires { Ids::lock_instal_post; };
static_assert(armable<point> && has_hits<point>);
static_assert(!armable<const char*> && !has_hits<const char*>);
static_assert(!armable<chaos::sched_point> && !has_hits<chaos::sched_point>);
static_assert(names_install_post<point> && !names_typo<point>);
static_assert(!names_install_post<chaos::sched_point>);

// Test-owned points (FLOCK_CHAOS_TEST_POINTS). Each call is one arrival.
void cross_p1() { FLOCK_FAULTPOINT(test_edge_p1); }
void cross_victim_pt() { FLOCK_FAULTPOINT(test_edge_victim); }
bool cross_alloc() { return FLOCK_FAULTPOINT_ALLOC_FAIL(test_edge_alloc); }

class FaultpointEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override { chaos::reset(); }
  void TearDown() override { chaos::reset(); }
};

TEST_F(FaultpointEdgeTest, ReArmWhileActiveAppendsAnIndependentEntry) {
  uint64_t stalls_before = chaos::stalls_injected();
  chaos::arm_options a;
  a.nth = 1;
  a.stall_spins = 1;
  ASSERT_TRUE(chaos::arm(point::test_edge_p1, chaos::fault::stall, a));
  cross_p1();  // entry A fires on its 1st arrival
  EXPECT_EQ(chaos::stalls_injected(), stalls_before + 1);

  // Re-arm while the first plan is still active: the new entry appends
  // and counts arrivals from ITS arm time, independent of entry A.
  chaos::arm_options b;
  b.nth = 2;
  b.stall_spins = 1;
  ASSERT_TRUE(chaos::arm(point::test_edge_p1, chaos::fault::stall, b));
  cross_p1();  // A:2nd (past), B:1st (not yet)
  EXPECT_EQ(chaos::stalls_injected(), stalls_before + 1);
  cross_p1();  // A:3rd (past), B:2nd -> fires
  EXPECT_EQ(chaos::stalls_injected(), stalls_before + 2);
  EXPECT_EQ(chaos::hits(point::test_edge_p1), 3u);
}

TEST_F(FaultpointEdgeTest, EntryTableFullIsReportedNotSilentlyDropped) {
  for (int i = 0; i < 6; i++)
    ASSERT_TRUE(chaos::arm(point::test_edge_p1, chaos::fault::stall,
                           {.nth = 1000, .stall_spins = 1}));
  EXPECT_FALSE(chaos::arm(point::test_edge_p1, chaos::fault::stall));
  chaos::reset();
  EXPECT_TRUE(chaos::arm(point::test_edge_p1, chaos::fault::stall,
                         {.nth = 1000, .stall_spins = 1}));
}

TEST_F(FaultpointEdgeTest, ZeroNthAndCountNormalizeToOne) {
  uint64_t stalls_before = chaos::stalls_injected();
  chaos::arm_options o;
  o.nth = 0;    // normalized to 1
  o.count = 0;  // normalized to 1
  o.stall_spins = 1;
  ASSERT_TRUE(chaos::arm(point::test_edge_p1, chaos::fault::stall, o));
  cross_p1();
  cross_p1();
  EXPECT_EQ(chaos::stalls_injected(), stalls_before + 1);  // fired once, 1st
}

TEST_F(FaultpointEdgeTest, NestedVictimScopeRestoresOuterMarking) {
  uint64_t stalls_before = chaos::stalls_injected();
  chaos::arm_options o;
  o.victim_only = true;
  o.nth = 1;
  o.count = 100;
  o.stall_spins = 1;
  ASSERT_TRUE(chaos::arm(point::test_edge_victim, chaos::fault::stall, o));

  cross_victim_pt();  // not a victim: filtered, does not even count
  EXPECT_EQ(chaos::stalls_injected(), stalls_before);

  {
    chaos::victim_scope outer;
    {
      chaos::victim_scope inner;  // nested scope (helper re-entry pattern)
      cross_victim_pt();          // victim: fires
    }
    // The inner scope's exit must RESTORE the outer marking, not clear
    // it: still a victim here.
    cross_victim_pt();  // fires
  }
  cross_victim_pt();  // scope closed: filtered again
  EXPECT_EQ(chaos::stalls_injected(), stalls_before + 2);
}

TEST_F(FaultpointEdgeTest, CountersAccumulateAcrossArmsUntilReset) {
  // A second arm() at the same point appends an entry to the same table
  // slot, so its arrival counter keeps counting; only reset() zeroes it.
  ASSERT_TRUE(chaos::arm(point::test_edge_p1, chaos::fault::stall,
                         {.nth = 1000, .stall_spins = 1}));
  cross_p1();
  cross_p1();
  ASSERT_TRUE(chaos::arm(point::test_edge_p1, chaos::fault::stall,
                         {.nth = 1000, .stall_spins = 1}));
  cross_p1();
  EXPECT_EQ(chaos::hits(point::test_edge_p1), 3u);
  chaos::reset();
  EXPECT_EQ(chaos::hits(point::test_edge_p1), 0u);
  cross_p1();  // disarmed: arrivals are not counted
  EXPECT_EQ(chaos::hits(point::test_edge_p1), 0u);
}

TEST_F(FaultpointEdgeTest, AllocFailOnlyHonoredAtAllocSites) {
  uint64_t fails_before = chaos::alloc_fails_injected();
  // An alloc_fail entry armed at a NON-alloc site is ignored entirely —
  // it neither fires nor consumes its arrival budget there.
  ASSERT_TRUE(chaos::arm(point::test_edge_p1, chaos::fault::alloc_fail));
  cross_p1();
  cross_p1();
  EXPECT_EQ(chaos::alloc_fails_injected(), fails_before);

  // At a real alloc site the same plan shape fires and the site reports
  // failure exactly count times.
  chaos::arm_options o;
  o.nth = 2;
  o.count = 1;
  ASSERT_TRUE(chaos::arm(point::test_edge_alloc, chaos::fault::alloc_fail, o));
  EXPECT_FALSE(cross_alloc());  // 1st arrival: below nth
  EXPECT_TRUE(cross_alloc());   // 2nd: fails
  EXPECT_FALSE(cross_alloc());  // 3rd: budget spent
  EXPECT_EQ(chaos::alloc_fails_injected(), fails_before + 1);
}

// Every armed entry of every runtime point, in kKnownPoints order, one
// line per armed point: "name: kind/nth/count/spins ..." (kind 0 stall,
// 2 alloc_fail).
std::string armed_plan() {
  std::string s;
  for (point id : chaos::kKnownPoints) {
    const chaos::detail::point_state& p = chaos::detail::state(id);
    uint32_t n = p.armed.load();
    if (n == 0) continue;
    s += chaos::name(id);
    s += ':';
    for (uint32_t i = 0; i < n; i++) {
      const chaos::detail::plan_entry& e = p.entries[i];
      s += ' ' + std::to_string(static_cast<int>(e.kind)) + '/' +
           std::to_string(e.nth) + '/' + std::to_string(e.count) + '/' +
           std::to_string(e.stall_spins);
    }
    s += '\n';
  }
  return s;
}

// A fixed FLOCK_CHAOS_SEED draws the same points in the same order: the
// plans of the seeds CI runs (chaos smoke 1-3, walk bases 1, 101, 1001),
// pinned entry by entry.
TEST_F(FaultpointEdgeTest, SeededPlansArePinned) {
  const std::pair<uint64_t, const char*> pinned[] = {
      {1,
       "lock.install.post: 0/36/1/5359\n"
       "ht.resize.alloc: 0/47/1/11453 2/3/5/20000\n"
       "epoch.seal: 0/58/3/14509\n"
       "alloc.refill: 0/2/2/13633\n"
       "store.move.pre_nest: 0/2/2/17945 0/50/4/11920\n"},
      {2,
       "lock.handoff.pre_unlock: 0/54/3/11798\n"
       "lock.help.pre_run: 0/52/1/11440\n"
       "ht.merge.pre_publish: 0/42/1/6193\n"
       "ht.root.pre_retire: 0/4/4/8364 0/6/2/7024\n"
       "alloc.array: 0/4/3/6998\n"},
      {3,
       "lock.handoff.pre_unlock: 0/3/3/6665\n"
       "lock.help.pre_run: 0/5/2/5458\n"
       "ht.grow.pre_publish: 0/44/2/3017\n"
       "ht.root.pre_retire: 0/11/1/3098\n"
       "ht.resize.alloc: 2/3/1/20000\n"
       "epoch.seal: 0/11/3/633\n"
       "alloc.refill: 0/3/4/5659\n"},
      {101,
       "lock.help.pre_run: 0/38/2/9014\n"
       "ht.root.pre_swing: 0/30/4/13312\n"
       "ht.resize.alloc: 2/3/3/20000\n"
       "ht.move.pre_splice: 0/56/1/5232\n"
       "epoch.retire: 0/5/2/679\n"
       "alloc.refill: 0/24/2/15867 0/47/3/5372\n"},
      {1001,
       "lock.handoff.pre_unlock: 0/16/1/7306 0/37/4/14603\n"
       "lock.help.pre_run: 0/30/3/9855\n"
       "ht.grow.pre_publish: 0/26/2/12920\n"
       "ht.root.pre_retire: 0/38/2/3647\n"
       "ht.resize.alloc: 2/1/3/20000\n"
       "alloc.array: 0/64/3/17843\n"},
  };
  for (const auto& [seed, plan] : pinned) {
    chaos::reset();
    chaos::arm_seeded(seed);
    EXPECT_EQ(armed_plan(), plan) << "seed " << seed;
  }
}

}  // namespace
