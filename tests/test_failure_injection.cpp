// Failure injection: the paper's core robustness claim (§1, §3) is that
// in lock-free mode a lock holder that stalls — preempted, page-faulted,
// or crashed — cannot block others: they help its critical section to
// completion and move on.
//
// These tests used to model the stall with wall-clock sleeps and measure
// throughput during the window — flaky on small machines and silent about
// WHERE in the protocol the stall landed. They now drive the stall
// deterministically through chaos/faultpoint.hpp: the holder is *killed*
// (parked) at a named point inside its critical section, workers run
// FIXED operation counts (no timers), and the assertions are exact. One
// timed smoke is kept at the end so a wall-clock stall still gets
// end-to-end coverage.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "chaos/faultpoint.hpp"
#include "flock/flock.hpp"

namespace {

namespace chaos = flock_chaos;
using chaos::point;
using namespace std::chrono_literals;

template <class F>
void spin_until(F&& pred) {
  while (!pred()) std::this_thread::yield();
}

class FailureInjection : public ::testing::Test {
 protected:
  void SetUp() override {
    chaos::reset();
    flock::set_blocking(false);
  }
  void TearDown() override {
    chaos::release_killed();
    spin_until([] { return chaos::parked() == 0; });
    chaos::reset();
    flock::set_blocking(false);
    flock::epoch_manager::instance().flush();
  }
};

// A victim grabs the lock and is killed inside the critical section body;
// workers then run a fixed number of operations on the same lock. In
// lock-free mode helpers finish the dead holder's section (the faultpoint
// is victim-only, so helper replays pass straight through) and keep
// going; in blocking mode nobody can help, so every try_lock fails
// cleanly — zero completions, deterministically.
long long ops_against_killed_holder(bool blocking, int ops_per_worker) {
  flock::set_blocking(blocking);
  flock::lock l;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);

  chaos::arm_options o;
  o.victim_only = true;
  EXPECT_TRUE(chaos::arm(point::test_holder_body, chaos::fault::kill, o));

  std::thread holder([&] {
    chaos::victim_scope vs;
    flock::with_epoch([&] {
      return flock::try_lock(l, [x] {
        uint64_t v = x->load();
        FLOCK_FAULTPOINT(test_holder_body);
        x->store(v + 1);
        return true;
      });
    });
  });
  spin_until([] { return chaos::parked() == 1; });

  std::atomic<long long> completed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; t++) {
    workers.emplace_back([&] {
      for (int i = 0; i < ops_per_worker; i++) {
        bool ok = flock::with_epoch([&] {
          return flock::try_lock(l, [x] {
            x->store(x->load() + 1);
            return true;
          });
        });
        if (ok) completed.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  long long done = completed.load();

  chaos::release_killed();
  holder.join();
  // Exactly-once accounting survives regardless of mode: the holder's
  // section applied once (helped in lock-free mode, resumed at release in
  // blocking mode) and its resumed replay added nothing.
  EXPECT_EQ(x->read_raw(), static_cast<uint64_t>(done) + 1);
  flock::pool_delete(x);
  flock::set_blocking(false);
  chaos::reset();
  flock::epoch_manager::instance().flush();
  return done;
}

TEST_F(FailureInjection, LockFreeHelpersFinishKilledHoldersSection) {
  long long done = ops_against_killed_holder(false, 2000);
  // Helpers complete the dead holder's section, then their own ops.
  EXPECT_GT(done, 0);
}

TEST_F(FailureInjection, BlockingTryLockFailsCleanlyUnderKilledHolder) {
  // In blocking mode nobody can help: while the holder is dead, every
  // try_lock fails — deterministically zero completions (the old timed
  // version could only assert >= 0) — but nothing deadlocks and the
  // count stays exact.
  long long done = ops_against_killed_holder(true, 2000);
  EXPECT_EQ(done, 0);
}

TEST_F(FailureInjection, BlockingModeStarvesWhereLockFreeProgresses) {
  // The sharp mode contrast of the paper's Figure-1 scenario, now exact:
  // identical fixed workloads against a dead holder complete zero
  // operations in blocking mode and a positive number in lock-free mode.
  long long blocked = ops_against_killed_holder(true, 1000);
  long long helped = ops_against_killed_holder(false, 1000);
  EXPECT_EQ(blocked, 0) << "blocking mode: holder stalls all";
  EXPECT_GT(helped, 0) << "lock-free mode: helpers proceed";
}

TEST_F(FailureInjection, KilledHolderInNestedLocksIsHelpedThrough) {
  // A holder killed in the middle of a chain of nested locks: helpers
  // must complete the whole nest (Theorem 4.2 helping chain). The kill
  // lands inside the INNER critical section, so the victim dies holding
  // both locks.
  flock::lock outer, inner;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);
  auto& em = flock::epoch_manager::instance();
  em.flush();
  const long long live0 = flock::descriptors_live();

  chaos::arm_options o;
  o.victim_only = true;
  ASSERT_TRUE(chaos::arm(point::test_nest_body, chaos::fault::kill, o));

  std::thread holder([&] {
    chaos::victim_scope vs;
    flock::with_epoch([&] {
      return flock::try_lock(outer, [&, x] {
        return flock::try_lock(inner, [x] {
          uint64_t v = x->load();
          FLOCK_FAULTPOINT(test_nest_body);
          x->store(v + 1);
          return true;
        });
      });
    });
  });
  spin_until([] { return chaos::parked() == 1; });

  // Contend on BOTH locks; helping must resolve the nest exactly once.
  // All stores to x stay under `inner` (stores must not race, §3); the
  // outer contenders run empty critical sections.
  std::atomic<long long> inner_wins{0};
  std::atomic<long long> outer_wins{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; t++) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 2000; i++) {
        if (t & 1) {
          if (flock::with_epoch([&] {
                return flock::try_lock(outer, [] { return true; });
              }))
            outer_wins.fetch_add(1);
        } else {
          if (flock::with_epoch([&] {
                return flock::try_lock(inner, [x] {
                  x->store(x->load() + 1);
                  return true;
                });
              }))
            inner_wins.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_GT(outer_wins.load(), 0);
  EXPECT_GT(inner_wins.load(), 0);
  // The victim's increment was applied exactly once — by a helper, while
  // the victim was dead.
  EXPECT_EQ(x->read_raw(), static_cast<uint64_t>(inner_wins.load()) + 1);
  // The parked owner's leak bound (lock.hpp): its top-level descriptor,
  // its deferred list (empty: it died inside the inner section) and the
  // in-progress inner descriptor; everything else is in the epoch.
  em.flush();
  EXPECT_LE(flock::descriptors_live() - live0 -
                em.pending(),
            2);

  chaos::release_killed();
  holder.join();
  EXPECT_EQ(x->read_raw(), static_cast<uint64_t>(inner_wins.load()) + 1);
  flock::pool_delete(x);
  em.flush();
  EXPECT_EQ(flock::descriptors_live(), live0);
  EXPECT_EQ(em.pending(), 0);
}

TEST_F(FailureInjection, KilledOwnerAfterNestedReleaseStrandsItsDeferredList) {
  // The victim dies in the outer section after the inner acquisition has
  // returned, so the inner descriptor already waits on its deferred list.
  // Helpers finish the outer section (their replay reaches the inner
  // descriptor through the outer log); the parked owner strands exactly
  // its top-level descriptor and that deferred one until it resumes, and
  // then, the outer descriptor having been helped, epoch-retires both.
  flock::lock outer, inner;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);
  auto& em = flock::epoch_manager::instance();
  em.flush();
  const long long live0 = flock::descriptors_live();

  chaos::arm_options o;
  o.victim_only = true;
  ASSERT_TRUE(chaos::arm(point::test_nest_after, chaos::fault::kill, o));

  std::thread holder([&] {
    chaos::victim_scope vs;
    flock::with_epoch([&] {
      return flock::try_lock(outer, [&, x] {
        bool r = flock::try_lock(inner, [x] {
          x->store(x->load() + 1);
          return true;
        });
        FLOCK_FAULTPOINT(test_nest_after);
        return r;
      });
    });
  });
  spin_until([] { return chaos::parked() == 1; });

  std::vector<std::thread> workers;
  for (int t = 0; t < 2; t++)
    workers.emplace_back([&] {
      for (int i = 0; i < 100; i++)
        flock::with_epoch(
            [&] { return flock::try_lock(outer, [] { return true; }); });
    });
  for (auto& w : workers) w.join();
  EXPECT_FALSE(outer.is_locked());
  EXPECT_EQ(x->read_raw(), 1u);

  em.flush();
  EXPECT_EQ(flock::descriptors_live() - live0 -
                em.pending(),
            2);  // top-level + one deferred

  const uint64_t reused0 = flock::stats().descriptors_reused;
  chaos::release_killed();
  holder.join();
  EXPECT_EQ(x->read_raw(), 1u);
  // The resumed owner reuses neither descriptor of its helped chain.
  EXPECT_EQ(flock::stats().descriptors_reused, reused0);
  flock::pool_delete(x);
  em.flush();
  EXPECT_EQ(flock::descriptors_live(), live0);
  EXPECT_EQ(em.pending(), 0);
}

// Kept as the one wall-clock smoke: a holder that stalls for real time
// (not a parked faultpoint) while the rest of the system churns — the
// original end-to-end scenario, with its original throughput assertion.
TEST_F(FailureInjection, TimedSmokeLockFreeProgressPastStalledHolder) {
  flock::set_blocking(false);
  flock::lock l;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);

  std::atomic<bool> installed{false};
  std::atomic<bool> release{false};
  std::atomic<bool> stop{false};
  std::atomic<long long> completed{0};

  std::thread holder([&] {
    flock::with_epoch([&] {
      return flock::try_lock(l, [&, x] {
        uint64_t v = x->load();
        installed.store(true);
        // Stall: only the FIRST runner of this thunk blocks here; a
        // helper re-running it sees release==true by the time it helps
        // (we flip it below), so helping completes quickly.
        while (!release.load()) std::this_thread::yield();
        x->store(v + 1);
        return true;
      });
    });
  });
  while (!installed.load()) std::this_thread::yield();

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; t++) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        bool ok = flock::with_epoch([&] {
          return flock::try_lock(l, [x] {
            x->store(x->load() + 1);
            return true;
          });
        });
        if (ok) completed.fetch_add(1);
      }
    });
  }

  // The workers may help the holder's thunk; let them finish it.
  release.store(true);
  std::this_thread::sleep_for(200ms);
  stop.store(true);
  for (auto& w : workers) w.join();
  holder.join();

  long long done = completed.load();
  EXPECT_GT(done, 1000);
  EXPECT_EQ(x->read_raw(), static_cast<uint64_t>(done) + 1);
  flock::pool_delete(x);
}

}  // namespace
