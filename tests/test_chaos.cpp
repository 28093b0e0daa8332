// Chaos suite: deterministic fault injection at the runtime's named
// protocol windows (chaos/faultpoint.hpp). The paper's robustness claim
// (§1, §3) is that a dead or stalled lock holder cannot block the system
// in lock-free mode — helpers finish its critical section. These tests
// make that claim falsifiable at every instrumented window: a *kill*
// parks the victim mid-protocol (the dead-holder scenario) and the test
// asserts other threads still complete; *alloc-fail* drives the
// allocation-failure contract (allocator.hpp) and the resize-deferral
// degraded mode (hashtable.hpp); seeded stall plans (FLOCK_CHAOS_SEED)
// shake schedules without wall-clock sleeps.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "chaos/faultpoint.hpp"
#include "ds/hashtable.hpp"
#include "flock/flock.hpp"
#include "store/sharded_map.hpp"

namespace {

namespace chaos = flock_chaos;
using chaos::point;

template <class F>
void spin_until(F&& pred) {
  while (!pred()) std::this_thread::yield();
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    chaos::reset();
    flock::set_blocking(false);
  }
  void TearDown() override {
    // A test that failed mid-plan must not leave parked threads or armed
    // faults behind for the next test.
    chaos::release_killed();
    spin_until([] { return chaos::parked() == 0; });
    chaos::reset();
    flock::set_blocking(false);
    flock::epoch_manager::instance().flush();
  }
};

// --- plan mechanics --------------------------------------------------------

TEST_F(ChaosTest, ArmCountsOnlyMatchingArrivalsAndFiresOnNth) {
  auto probe = [] { FLOCK_FAULTPOINT(test_probe); };
  probe();  // unarmed: fast path, no arrival counted
  EXPECT_EQ(chaos::hits(point::test_probe), 0u);

  chaos::arm_options o;
  o.nth = 2;
  o.stall_spins = 64;
  ASSERT_TRUE(chaos::arm(point::test_probe, chaos::fault::stall, o));
  const uint64_t s0 = chaos::stalls_injected();
  probe();  // arrival 1: below nth
  EXPECT_EQ(chaos::stalls_injected(), s0);
  probe();  // arrival 2: fires
  EXPECT_EQ(chaos::stalls_injected(), s0 + 1);
  probe();  // arrival 3: past the window
  EXPECT_EQ(chaos::stalls_injected(), s0 + 1);
  EXPECT_EQ(chaos::hits(point::test_probe), 3u);

  chaos::reset();
  probe();
  EXPECT_EQ(chaos::hits(point::test_probe), 0u);  // disarmed again
}

TEST_F(ChaosTest, VictimOnlyEntriesIgnoreOtherThreads) {
  chaos::arm_options o;
  o.victim_only = true;
  o.stall_spins = 32;
  ASSERT_TRUE(chaos::arm(point::test_victim, chaos::fault::stall, o));
  const uint64_t s0 = chaos::stalls_injected();
  FLOCK_FAULTPOINT(test_victim);  // this thread is not a victim
  EXPECT_EQ(chaos::stalls_injected(), s0);
  {
    chaos::victim_scope vs;
    FLOCK_FAULTPOINT(test_victim);
    EXPECT_EQ(chaos::stalls_injected(), s0 + 1);
  }
  FLOCK_FAULTPOINT(test_victim);  // scope ended
  EXPECT_EQ(chaos::stalls_injected(), s0 + 1);
}

// --- allocation-failure contract (allocator.hpp) ---------------------------

TEST_F(ChaosTest, PoolAllocFailurePropagatesNullWithoutSideEffects) {
  struct fresh_t {  // unique local type => fresh pool, first use refills
    uint64_t payload[4];
  };
  const uint64_t f0 = flock::alloc_failures();
  ASSERT_TRUE(chaos::arm(point::alloc_refill, chaos::fault::alloc_fail));

  fresh_t* p = flock::pool_new<fresh_t>();
  EXPECT_EQ(p, nullptr);
  EXPECT_EQ(flock::alloc_failures(), f0 + 1);
  EXPECT_EQ(flock::pool_outstanding<fresh_t>(), 0);

  chaos::reset();  // disarm: the pool must be fully usable afterwards
  p = flock::pool_new<fresh_t>();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(flock::pool_outstanding<fresh_t>(), 1);
  flock::pool_delete(p);
  EXPECT_EQ(flock::pool_outstanding<fresh_t>(), 0);
  EXPECT_EQ(flock::alloc_failures(), f0 + 1);
}

// The lock path cannot continue without its descriptor or the log block
// its next commit needs, so a null from either pool aborts with a message
// instead of being dereferenced. Each death statement runs in a fresh
// process (threadsafe style), where the pool in question has an empty
// free list, so the armed fault meets that pool's refill.
TEST_F(ChaosTest, DescriptorAllocFailureAbortsWithMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(([] {
                 chaos::arm(point::alloc_refill, chaos::fault::alloc_fail);
                 flock::lock l;
                 flock::with_epoch([&] {
                   return flock::try_lock(l, [] { return true; });
                 });
               }()),
               "out of memory allocating a descriptor");
}

TEST_F(ChaosTest, LogBlockAllocFailureAbortsWithMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(([] {
                 flock::lock l;
                 // A first acquisition leaves the descriptor pool a free
                 // list, so the armed fault meets the log block's refill.
                 flock::with_epoch([&] {
                   return flock::try_lock(l, [] { return true; });
                 });
                 chaos::arm(point::alloc_refill, chaos::fault::alloc_fail);
                 flock::with_epoch([&] {
                   return flock::try_lock(l, [] {
                     for (int i = 0; i <= flock::kLogBlockEntries; i++)
                       flock::commit_value(static_cast<uint64_t>(i));
                     return true;
                   });
                 });
               }()),
               "out of memory allocating a log block");
}

TEST_F(ChaosTest, ArrayAllocFailurePropagatesNullWithoutSideEffects) {
  const long long a0 = flock::arrays_outstanding();
  const uint64_t f0 = flock::alloc_failures();
  ASSERT_TRUE(chaos::arm(point::alloc_array, chaos::fault::alloc_fail));

  int* arr = flock::array_new<int>(128);
  EXPECT_EQ(arr, nullptr);
  EXPECT_EQ(flock::alloc_failures(), f0 + 1);
  EXPECT_EQ(flock::arrays_outstanding(), a0);

  chaos::reset();
  arr = flock::array_new<int>(128);
  ASSERT_NE(arr, nullptr);
  EXPECT_EQ(flock::array_length(arr), 128u);
  flock::array_delete(arr);
  EXPECT_EQ(flock::arrays_outstanding(), a0);
}

// --- the dead-holder scenario (paper §1, §3) -------------------------------
//
// A victim thread is killed immediately after installing its descriptor
// ("lock.install.post"): it holds the lock and will never run its own
// critical section again. In lock-free mode helpers must (a) finish the
// victim's section and (b) keep completing their own operations.

void killed_holder_scenario(bool nested) {
  SCOPED_TRACE(::testing::Message() << "nested=" << nested);
  flock::lock outer, inner;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);
  auto& em = flock::epoch_manager::instance();
  em.flush();
  const long long live0 = flock::descriptors_live();

  // Kill the victim at its (nested ? second : first) descriptor install:
  // nested => the victim dies holding BOTH locks mid-nest.
  chaos::arm_options o;
  o.victim_only = true;
  o.nth = nested ? 2 : 1;
  ASSERT_TRUE(chaos::arm(point::lock_install_post, chaos::fault::kill, o));

  std::thread victim([&] {
    chaos::victim_scope vs;
    flock::with_epoch([&] {
      auto body = [x] {
        x->store(x->load() + 1);
        return true;
      };
      if (nested)
        return flock::try_lock(outer,
                               [&] { return flock::try_lock(inner, body); });
      return flock::try_lock(inner, body);
    });
  });
  spin_until([] { return chaos::parked() == 1; });

  const uint64_t helps0 = flock::stats().helps_run;
  std::atomic<long long> completed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; t++)
    workers.emplace_back([&] {
      for (int i = 0; i < 2000; i++)
        if (flock::with_epoch([&] {
              return flock::try_lock(inner, [x] {
                x->store(x->load() + 1);
                return true;
              });
            }))
          completed.fetch_add(1);
    });
  for (auto& w : workers) w.join();

  // System-wide progress past the dead holder, achieved by helping: the
  // victim's section completed exactly once (the +1) even though the
  // victim itself never moved again.
  EXPECT_GT(completed.load(), 0);
  EXPECT_GT(flock::stats().helps_run, helps0);
  EXPECT_EQ(x->read_raw(), static_cast<uint64_t>(completed.load()) + 1);

  // The parked owner's leak bound (lock.hpp): beyond the descriptors its
  // announcement pins in the epoch, it strands its top-level descriptor,
  // its deferred list (empty: it died before any nested retire) and, mid
  // nest, the descriptor of its in-progress nested acquisition.
  em.flush();
  EXPECT_LE(flock::descriptors_live() - live0 -
                em.pending(),
            nested ? 2 : 1);

  chaos::release_killed();
  victim.join();
  EXPECT_EQ(chaos::parked(), 0u);
  // The victim's resumed replay must be a harmless no-op (idempotence).
  EXPECT_EQ(x->read_raw(), static_cast<uint64_t>(completed.load()) + 1);
  flock::pool_delete(x);
  chaos::reset();
  em.flush();
  EXPECT_EQ(flock::descriptors_live(), live0);
  EXPECT_EQ(em.pending(), 0);
}

TEST_F(ChaosTest, KilledHolderIsHelpedToCompletion) {
  killed_holder_scenario(/*nested=*/false);
}
TEST_F(ChaosTest, KilledHolderMidNestIsHelpedToCompletion) {
  killed_holder_scenario(/*nested=*/true);
}

// Kill the first thread to cross EACH lock-path protocol window and
// assert the other threads run to completion regardless. Covers the three
// distinct death positions: holding the lock with the thunk unrun
// (install.post), thunk run but unlock pending (handoff.pre_unlock), and
// mid-help of someone else's descriptor (help.pre_run). A thunk this short
// rarely leaves its lock held long enough for a waiter to spend its
// kHelpDelay backoff rounds, so for the help window the first owner also
// stalls at install.post for far longer than those rounds take: a waiter
// then must help, and the first helper is the one killed.
TEST_F(ChaosTest, SystemCompletesPastKillAtEveryLockPathWindow) {
  for (point p : {point::lock_install_post, point::lock_handoff_pre_unlock,
                  point::lock_help_pre_run}) {
    SCOPED_TRACE(chaos::name(p));
    chaos::reset();
    ASSERT_TRUE(chaos::arm(p, chaos::fault::kill));  // first crossing
    if (p == point::lock_help_pre_run) {
      chaos::arm_options o;
      o.stall_spins = 1u << 22;  // vs at most ~4.2K pauses of backoff
      ASSERT_TRUE(
          chaos::arm(point::lock_install_post, chaos::fault::stall, o));
    }

    flock::lock l;
    auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
    x->init(0);
    const uint64_t k0 = chaos::kills_injected();
    std::atomic<long long> completed{0};
    std::atomic<int> finished{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; t++)
      workers.emplace_back([&] {
        for (int i = 0; i < 3000; i++)
          if (flock::with_epoch([&] {
                return flock::try_lock(l, [x] {
                  x->store(x->load() + 1);
                  return true;
                });
              }))
            completed.fetch_add(1);
        finished.fetch_add(1);
      });

    spin_until([&] { return chaos::parked() == 1 || finished.load() == 4; });
    EXPECT_EQ(chaos::kills_injected(), k0 + 1);
    if (chaos::parked() == 1) {
      // The claim under test: the three live workers finish their whole
      // fixed-op loops while the victim stays dead. (A wedge here hangs
      // into the ctest timeout — that IS the failure mode.)
      spin_until([&] { return finished.load() == 3; });
      EXPECT_EQ(chaos::parked(), 1u) << "victim still dead, others done";
    }
    chaos::release_killed();
    for (auto& w : workers) w.join();
    EXPECT_EQ(finished.load(), 4);
    // After release everyone ran to completion, so the exactly-once
    // accounting closes exactly: every applied increment was counted.
    EXPECT_EQ(x->read_raw(), static_cast<uint64_t>(completed.load()));
    flock::pool_delete(x);
    flock::epoch_manager::instance().flush();
  }
}

// Blocking-mode contrast: nobody can help, so a killed holder wedges THAT
// lock — try_locks on it fail cleanly and deterministically — while
// unrelated locks keep working. Eventual completion returns at release.
TEST_F(ChaosTest, BlockingModeKilledHolderBlocksOnlyItsOwnLock) {
  flock::set_blocking(true);
  flock::lock held, other;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  auto* y = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);
  y->init(0);

  chaos::arm_options o;
  o.victim_only = true;
  // Lock-path windows never fire in blocking mode (no descriptors), so
  // the kill goes inside the victim's critical section body.
  ASSERT_TRUE(chaos::arm(point::test_blocking_body, chaos::fault::kill, o));

  std::thread victim([&] {
    chaos::victim_scope vs;
    flock::with_epoch([&] {
      return flock::try_lock(held, [x] {
        FLOCK_FAULTPOINT(test_blocking_body);
        x->store(x->load() + 1);
        return true;
      });
    });
  });
  spin_until([] { return chaos::parked() == 1; });

  std::atomic<long long> held_wins{0}, other_wins{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; t++)
    workers.emplace_back([&] {
      for (int i = 0; i < 2000; i++) {
        if (flock::with_epoch(
                [&] { return flock::try_lock(held, [] { return true; }); }))
          held_wins.fetch_add(1);
        if (flock::with_epoch([&] {
              return flock::try_lock(other, [y] {
                y->store(y->load() + 1);
                return true;
              });
            }))
          other_wins.fetch_add(1);
      }
    });
  for (auto& w : workers) w.join();

  EXPECT_EQ(held_wins.load(), 0) << "no helping in blocking mode";
  EXPECT_GT(other_wins.load(), 0) << "unrelated locks unaffected";

  chaos::release_killed();
  victim.join();
  EXPECT_EQ(x->read_raw(), 1u);  // eventual completion after release
  EXPECT_EQ(y->read_raw(), static_cast<uint64_t>(other_wins.load()));
  flock::pool_delete(x);
  flock::pool_delete(y);
}

// --- migration windows (ds/hashtable.hpp) ----------------------------------

// Kill the migrator inside a grow unit's critical section, before the
// forwarded-flag publish. The stuck-migration audit must see the wedge,
// and any later updater must help the dead migrator's unit to completion
// and finish the whole resize.
TEST_F(ChaosTest, KilledGrowMigratorIsAuditedAndRescued) {
  flock_ds::hashtable<long, long> ht(64);
  ASSERT_TRUE(chaos::arm(point::ht_grow_pre_publish, chaos::fault::kill));

  // Single inserter: policy ticks every 16th update on its shard, so the
  // grow installs at the 64th insert and the 65th insert starts migrating
  // — and parks. The loop bound (90) keeps the post-release tail below
  // the next grow threshold (90 < 128), so no second resize is left
  // dangling at the end.
  std::atomic<long long> inserted{0};
  std::thread victim([&] {
    for (long k = 0; k < 90; k++)
      if (ht.insert(k, k)) inserted.fetch_add(1);
  });
  spin_until([] { return chaos::parked() == 1; });

  // With no other traffic the resize cannot move: the audit must flag it,
  // while the structural invariants still hold (the frozen chain and its
  // published copies are both intact).
  EXPECT_TRUE(ht.migration_stuck());
  EXPECT_FALSE(ht.check_invariants(/*audit_migration=*/true));
  EXPECT_TRUE(ht.check_invariants());

  // Rescue traffic: net-zero churn on an unrelated key. Each update helps
  // a batch of units; the dead migrator's unit is completed by helping
  // its bucket-lock descriptor, and the cursor-wrap completion recovery
  // re-derives `migrated` (the victim parks before its own count bump).
  const long scratch = 1 << 20;
  std::thread rescuer([&] {
    for (int i = 0; i < 4000; i++) {
      ht.insert(scratch, i);
      ht.remove(scratch);
      if (ht.bucket_count() == 128 && !ht.migration_stuck(1024)) return;
    }
  });
  rescuer.join();
  EXPECT_EQ(ht.bucket_count(), 128u);
  EXPECT_FALSE(ht.migration_stuck());
  EXPECT_TRUE(ht.check_invariants(/*audit_migration=*/true));

  chaos::release_killed();
  victim.join();
  EXPECT_EQ(ht.size(), static_cast<std::size_t>(inserted.load()));
  EXPECT_EQ(inserted.load(), 90);
  EXPECT_TRUE(ht.check_invariants(/*audit_migration=*/true));
}

// Kill the winner between "resize fully drained" and the root CAS: the
// swing must be rescued by any later helper (advance_root is idempotent).
TEST_F(ChaosTest, KilledRootSwingIsRescuedByHelpers) {
  flock_ds::hashtable<long, long> ht(64);
  ASSERT_TRUE(chaos::arm(point::ht_root_pre_swing, chaos::fault::kill));

  std::atomic<long long> inserted{0};
  std::thread victim([&] {
    for (long k = 0; k < 90; k++)
      if (ht.insert(k, k)) inserted.fetch_add(1);
  });
  spin_until([] { return chaos::parked() == 1; });

  const long scratch = 1 << 20;
  std::thread rescuer([&] {
    for (int i = 0; i < 4000; i++) {
      ht.insert(scratch, i);
      ht.remove(scratch);
      if (ht.bucket_count() == 128 && !ht.migration_stuck(1024)) return;
    }
  });
  rescuer.join();
  EXPECT_EQ(ht.bucket_count(), 128u);

  chaos::release_killed();
  victim.join();
  EXPECT_EQ(ht.size(), static_cast<std::size_t>(inserted.load()));
  EXPECT_TRUE(ht.check_invariants(/*audit_migration=*/true));
}

// Kill the migrator inside a shrink (merge) unit's critical section,
// before the single-store publish of the merged chain — the window the
// two-source protocol exists for. Helpers must complete the nested
// two-lock critical section and the shrink must finish.
TEST_F(ChaosTest, KilledMergeMigratorIsRescued) {
  flock_ds::hashtable<long, long> ht(64);
  ASSERT_TRUE(chaos::arm(point::ht_merge_pre_publish, chaos::fault::kill));

  // Phase 1: grow to 128 and drain it with the inserter's own traffic.
  // Phase 2: removals bring the count under 128/4 = 32, installing the
  // shrink; the next removal starts merging — and parks.
  std::atomic<long long> net{0};
  std::thread victim([&] {
    for (long k = 0; k < 100; k++)
      if (ht.insert(k, k)) net.fetch_add(1);
    for (long k = 0; k < 80; k++)
      if (ht.remove(k)) net.fetch_sub(1);
  });
  spin_until([] { return chaos::parked() == 1; });
  EXPECT_TRUE(ht.migration_stuck());

  const long scratch = 1 << 20;
  std::thread rescuer([&] {
    for (int i = 0; i < 4000; i++) {
      ht.insert(scratch, i);
      ht.remove(scratch);
      if (ht.bucket_count() == 64 && !ht.migration_stuck(1024)) return;
    }
  });
  rescuer.join();
  EXPECT_EQ(ht.bucket_count(), 64u);

  chaos::release_killed();
  victim.join();
  EXPECT_EQ(ht.size(), static_cast<std::size_t>(net.load()));
  EXPECT_EQ(net.load(), 20);
  EXPECT_TRUE(ht.check_invariants(/*audit_migration=*/true));
}

// --- resize-trigger allocation failure (graceful degradation) --------------

TEST_F(ChaosTest, ResizeAllocFailureDefersThenRecovers) {
  // The first 8 successor-table allocation attempts fail; the table must
  // keep absorbing updates at the old capacity (deferral, not crash),
  // then grow normally once the fault burst is exhausted.
  chaos::arm_options o;
  o.nth = 1;
  o.count = 8;
  ASSERT_TRUE(chaos::arm(point::ht_resize_alloc, chaos::fault::alloc_fail, o));

  const uint64_t d0 = flock::stats().resize_deferrals;
  flock_ds::hashtable<long, long> ht(64);
  constexpr int kThreads = 4;
  constexpr long kPerThread = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; t++)
    workers.emplace_back([&, t] {
      const long base = t * kPerThread;
      for (long k = 0; k < kPerThread; k++) ht.insert(base + k, k);
      for (long k = 0; k < kPerThread; k += 2) ht.remove(base + k);
    });
  for (auto& w : workers) w.join();

  EXPECT_EQ(ht.size(), static_cast<std::size_t>(kThreads) * kPerThread / 2);
  EXPECT_GE(ht.resize_deferrals(), 1u);
  EXPECT_GE(flock::stats().resize_deferrals, d0 + ht.resize_deferrals());
  EXPECT_GE(ht.grow_count(), 1u) << "growth must resume after the burst";
  EXPECT_GT(ht.bucket_count(), 64u);
  EXPECT_TRUE(ht.check_invariants());
  EXPECT_GE(flock::stats().chaos_alloc_fails, 8u);
}

// Kill the first successor builder at its allocation, while it holds the
// table's resize hint. Later triggers leave the build to the hint holder
// until occupancy runs a full factor of 2 past the threshold; from there
// any trigger builds, so a dead builder cannot wedge growth. Once
// released, the late builder must lose the install CAS and free its
// table.
TEST_F(ChaosTest, KilledSuccessorBuilderDoesNotWedgeGrowth) {
  for (bool blocking : {false, true}) {
    SCOPED_TRACE(blocking ? "blocking" : "lockfree");
    chaos::reset();
    flock::set_blocking(blocking);
    flock::epoch_manager::instance().flush();
    const long long a0 = flock::arrays_outstanding();
    {
      flock_ds::hashtable<long, long> ht(64);
      chaos::arm_options o;
      o.victim_only = true;
      ASSERT_TRUE(chaos::arm(point::ht_resize_alloc, chaos::fault::kill, o));

      // Single victim inserter: its 64th insert ticks the policy at
      // c = 64 >= n, takes the hint and parks before building.
      std::thread victim([&] {
        chaos::victim_scope vs;
        for (long k = 0; k < 64; k++) ht.insert(k, k);
      });
      spin_until([] { return chaos::parked() == 1; });
      EXPECT_EQ(ht.grow_count(), 0u);

      // A second thread keeps inserting. Its triggers below c = 2n find
      // the hint taken and return; the first one at c >= 2n builds.
      long m = 0;
      for (; m < 4096 && ht.grow_count() == 0; m++)
        EXPECT_TRUE(ht.insert((1L << 20) + m, m));
      EXPECT_EQ(ht.grow_count(), 1u) << "growth wedged behind a dead builder";
      EXPECT_GE(64 + m, 128) << "duplicate successor built below 2n";

      // Net-zero churn drains the migration; removing 32 keys first keeps
      // the grown table (n = 128) below its own grow threshold.
      for (long r = 0; r < 32; r++) EXPECT_TRUE(ht.remove((1L << 20) + r));
      const long scratch = 1L << 30;
      for (int i = 0; i < 4000; i++) {
        ht.insert(scratch, i);
        ht.remove(scratch);
        if (ht.bucket_count() == 128 && !ht.migration_stuck(1024)) break;
      }
      EXPECT_EQ(ht.bucket_count(), 128u);
      EXPECT_TRUE(ht.check_invariants(/*audit_migration=*/true));

      // The late build loses the install CAS: no second grow is counted,
      // and its table is freed, never published.
      chaos::release_killed();
      victim.join();
      EXPECT_EQ(ht.grow_count(), 1u);
      EXPECT_EQ(ht.size(), static_cast<std::size_t>(64 + m - 32));
      EXPECT_TRUE(ht.check_invariants(/*audit_migration=*/true));
      flock::epoch_manager::instance().flush();
      EXPECT_EQ(flock::arrays_outstanding(), a0 + 1) << "one live table";
    }
    flock::epoch_manager::instance().flush();
    EXPECT_EQ(flock::arrays_outstanding(), a0);
  }
}

// --- cross-shard move windows (store/sharded_map.hpp) ----------------------

TEST_F(ChaosTest, MoveWindowsAreCrossedAndSurviveStalls) {
  chaos::arm_options o;
  o.count = 1000;  // stall every crossing
  o.stall_spins = 256;
  ASSERT_TRUE(chaos::arm(point::store_move_pre_nest, chaos::fault::stall, o));
  ASSERT_TRUE(chaos::arm(point::ht_move_pre_splice, chaos::fault::stall, o));

  flock_store::sharded_map<long, long> from(4), to(4);
  for (long k = 0; k < 64; k++) from.insert(k, k);
  std::size_t moved = 0;
  for (long k = 0; k < 64; k++)
    if (flock_store::try_move(from, to, k)) moved++;
  EXPECT_EQ(moved, 64u);
  EXPECT_EQ(from.size(), 0u);
  EXPECT_EQ(to.size(), 64u);
  EXPECT_GT(chaos::hits(point::store_move_pre_nest), 0u);
  EXPECT_GT(chaos::hits(point::ht_move_pre_splice), 0u);
}

// --- seeded plans -----------------------------------------------------------

// A seeded pseudo-random stall plan (plus alloc-fail at the resize
// trigger on odd seeds) must never affect correctness — only timing. CI
// runs this binary under several FLOCK_CHAOS_SEED values.
TEST_F(ChaosTest, SeededPlanPreservesExactSemanticsInBothModes) {
  uint64_t seed = chaos::seed_from_env();
  if (seed == 0) seed = 0x5eedULL;
  for (bool blocking : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed
                                      << " blocking=" << blocking);
    chaos::reset();
    flock::mode_guard mode(blocking);
    chaos::arm_seeded(seed);

    flock_ds::hashtable<long, long> ht(64);
    constexpr int kThreads = 4;
    constexpr long kPerThread = 500;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; t++)
      workers.emplace_back([&, t] {
        const long base = t * kPerThread;
        for (long k = 0; k < kPerThread; k++) ht.insert(base + k, k);
        for (long k = 1; k < kPerThread; k += 2) ht.remove(base + k);
      });
    for (auto& w : workers) w.join();

    const std::size_t expect =
        static_cast<std::size_t>(kThreads) * ((kPerThread + 1) / 2);
    EXPECT_EQ(ht.size(), expect);
    EXPECT_TRUE(ht.check_invariants());
    chaos::reset();
  }
}

}  // namespace
