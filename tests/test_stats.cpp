// Stats counters (flock/stats.hpp): creation/help/reuse accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "flock/flock.hpp"
#include "helping_test_util.hpp"

namespace {

TEST(Stats, UncontendedLocksReuseDescriptors) {
  flock::set_blocking(false);
  flock::lock l;
  auto before = flock::stats();
  for (int i = 0; i < 1000; i++) {
    flock::with_epoch([&] {
      return flock::try_lock(l, [] { return true; });
    });
  }
  auto after = flock::stats();
  // Every acquisition created a descriptor...
  EXPECT_GE(after.descriptors_created - before.descriptors_created, 1000u);
  // ...and with no contention, every one took the fast reuse path.
  EXPECT_GE(after.descriptors_reused - before.descriptors_reused, 1000u);
  EXPECT_EQ(after.helps_run - before.helps_run, 0u);
}

TEST(Stats, ContendedLocksRecordHelping) {
  // Deterministic forced helping (see helping_test_util.hpp; a
  // thread-count hammer never observes a held lock on small machines).
  flock::set_blocking(false);
  auto before = flock::stats();
  uint64_t applied = helping_test::force_one_help();
  auto after = flock::stats();
  EXPECT_EQ(applied, 1u);
  EXPECT_GT(after.helps_attempted - before.helps_attempted, 0u);
  flock::epoch_manager::instance().flush();
}

// §6 reuse at every nesting depth: with nobody helping, each nested
// descriptor joins its top-level acquisition's reuse decision, so the
// whole nest is recycled at once and nothing reaches the epoch.
TEST(Stats, UncontendedNestedLocksReuseEveryDescriptor) {
  flock::set_blocking(false);
  auto& em = flock::epoch_manager::instance();
  em.flush();
  flock::lock locks[3];
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);
  for (int depth : {2, 3}) {
    SCOPED_TRACE(depth);
    const long long live0 = flock::descriptors_live();
    const long long pending0 = em.pending();
    auto before = flock::stats();
    // No stall (stall_at = -1): nothing is ever observably held.
    helping_test::nest_plan p{locks, depth, -1, x, nullptr, nullptr, -1, false};
    for (int i = 0; i < 1000; i++) {
      EXPECT_TRUE(
          flock::with_epoch([&] { return helping_test::run_nest(p, 0); }));
    }
    auto after = flock::stats();
    const uint64_t n = 1000u * static_cast<uint64_t>(depth);
    EXPECT_EQ(after.descriptors_created - before.descriptors_created, n);
    EXPECT_EQ(after.descriptors_reused - before.descriptors_reused, n);
    // Back at baseline without a flush, and nothing queued for the epoch.
    EXPECT_EQ(flock::descriptors_live(), live0);
    EXPECT_EQ(em.pending(), pending0);
  }
  EXPECT_EQ(x->read_raw(), 2000u);  // 1000 nests at each depth
  flock::pool_delete(x);
}

// One helped descriptor anywhere in a nest sends the owner's whole chain
// through the epoch: no descriptor of it is recycled at once — not even one
// that was never helped itself but is reachable from a helped
// ancestor's log — and a flush returns every one of them.
void expect_helped_chain_epoch_retired(int depth, int stall_at, int probe_at,
                                       bool probe_nested = false,
                                       bool stall_before_nest = false) {
  SCOPED_TRACE(::testing::Message()
               << "depth=" << depth << " stall_at=" << stall_at
               << " probe_at=" << probe_at << " probe_nested=" << probe_nested
               << " stall_before_nest=" << stall_before_nest);
  flock::set_blocking(false);
  auto& em = flock::epoch_manager::instance();
  em.flush();
  const long long live0 = flock::descriptors_live();
  const long long pending0 = em.pending();
  auto before = flock::stats();
  uint64_t applied =
      helping_test::force_nested_help(depth, stall_at, probe_at, probe_nested,
                                      stall_before_nest);
  auto after = flock::stats();
  EXPECT_EQ(applied, 1u);  // the critical section ran exactly once
  EXPECT_GT(after.helps_run - before.helps_run, 0u);
  // Only a nested probe's own never-helped top-level descriptor is reused.
  EXPECT_EQ(after.descriptors_reused - before.descriptors_reused,
            probe_nested ? 1u : 0u);
  EXPECT_EQ(em.pending() - pending0, depth);
  em.flush();
  EXPECT_EQ(flock::descriptors_live(), live0);
  EXPECT_EQ(em.pending(), 0);
}

TEST(Stats, HelpedInnerLockEpochRetiresTheNest) {
  // The owner stalls inside the inner section; the probe helps it there.
  expect_helped_chain_epoch_retired(2, 1, 1);
}

TEST(Stats, HelpedOuterLockEpochRetiresTheNest) {
  // The inner acquisition has returned (its descriptor is deferred, never
  // helped); the probe helps the outer descriptor, whose replay reaches
  // the inner one through the outer log.
  expect_helped_chain_epoch_retired(2, 0, 0);
  // The owner stalls inside the inner section; a helper of the outer
  // descriptor runs the inner one from the outer log.
  expect_helped_chain_epoch_retired(2, 1, 0);
}

TEST(Stats, HelpedMiddleLockEpochRetiresTheInnermostToo) {
  // 3-deep nest, only the middle descriptor is helped: the innermost was
  // never helped itself, but the middle one's helper replays it from the
  // middle log, so it must still be epoch-retired.
  expect_helped_chain_epoch_retired(3, 1, 1);
}

TEST(Stats, HelpInsideOwnNestEpochRetiresForeignDescriptors) {
  // The probe helps the owner's outer descriptor from inside its own
  // top-level acquisition, and its replay runs the owner's inner
  // descriptor (the owner is stalled inside it, and owns its retire).
  expect_helped_chain_epoch_retired(2, 1, 0, /*probe_nested=*/true);
  // The owner stalls before its nested acquisition, so the probe's replay
  // makes it: its candidate becomes the inner descriptor, and its commit
  // of the outcome comes first, so the probe's run retires that
  // descriptor. It belongs to the owner's chain, not the probe's: it must
  // be epoch-retired, never parked on the probe's deferred list and
  // reused.
  expect_helped_chain_epoch_retired(2, 0, 0, /*probe_nested=*/true,
                                    /*stall_before_nest=*/true);
}

TEST(Stats, BlockingModeCreatesNoDescriptors) {
  flock::set_blocking(true);
  flock::lock l;
  auto before = flock::stats();
  for (int i = 0; i < 100; i++) {
    flock::with_epoch([&] {
      return flock::try_lock(l, [] { return true; });
    });
  }
  auto after = flock::stats();
  EXPECT_EQ(after.descriptors_created, before.descriptors_created);
  flock::set_blocking(false);
}

}  // namespace
