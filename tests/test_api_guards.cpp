// Lock-API misuse guards (lock.hpp). Every test binary compiles them in
// (they come with FLOCK_CHAOS, CMakeLists.txt); this one exercises them.
//
// Two halves:
//   * positive: the legitimate patterns the paper blesses — early
//     unlock() inside a critical section, hand-over-hand chains, helper
//     replays — run clean under the guards (no false aborts), and the
//     thread-exit leak check passes after real contended traffic;
//   * death tests: double release and non-holder unlock() abort with a
//     diagnostic, in both lock-free and blocking modes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "flock/flock.hpp"

namespace {

class ApiGuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    flock::set_blocking(false);
  }
  void TearDown() override {
    flock::set_blocking(false);
    flock::epoch_manager::instance().flush();
  }
};

// --- positive: guards stay silent on legitimate use -------------------------

TEST_F(ApiGuardTest, EarlyUnlockInsideThunkLockFree) {
  flock::lock l;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);
  flock::lock* lp = &l;
  bool ok = flock::try_lock(l, [lp, x] {
    x->store(x->load() + 1);
    lp->unlock();  // §4 early release; the trailing auto-release no-ops
    return true;
  });
  EXPECT_TRUE(ok);
  EXPECT_FALSE(l.is_locked());
  EXPECT_EQ(x->read_raw(), 1u);
  // Reacquirable after the early release.
  EXPECT_TRUE(flock::try_lock(l, [] { return true; }));
  flock::pool_delete(x);
}

TEST_F(ApiGuardTest, EarlyUnlockInsideCriticalSectionBlocking) {
  flock::set_blocking(true);
  flock::lock l;
  bool ok = flock::try_lock(l, [&l] {
    l.unlock();  // blocking-mode early release: the section end no-ops
    return true;
  });
  EXPECT_TRUE(ok);
  EXPECT_FALSE(l.is_locked());
  EXPECT_TRUE(flock::try_lock(l, [] { return true; }));
}

TEST_F(ApiGuardTest, HandOverHandChainLockFree) {
  // Lock i+1 is taken inside lock i's thunk and then releases lock i —
  // the unlock legitimacy flows through the dbg_parent creation chain.
  flock::lock a, b, c;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);
  flock::lock *ap = &a, *bp = &b, *cp = &c;
  bool ok = flock::strict_lock(a, [ap, bp, cp, x] {
    return bp->strict_lock([ap, bp, cp, x] {
      ap->unlock();
      return cp->strict_lock([bp, x] {
        bp->unlock();
        x->store(x->load() + 1);
        return true;
      });
    });
  });
  EXPECT_TRUE(ok);
  EXPECT_FALSE(a.is_locked());
  EXPECT_FALSE(b.is_locked());
  EXPECT_FALSE(c.is_locked());
  EXPECT_EQ(x->read_raw(), 1u);
  flock::pool_delete(x);
}

TEST_F(ApiGuardTest, HandOverHandChainBlocking) {
  // Lock b's section releases a, and another thread takes a before a's
  // section ends. That end leaves the new holder's lock alone, the
  // guards stay silent, and both threads' thread-exit checks pass at
  // join.
  flock::set_blocking(true);
  flock::lock a, b;
  std::atomic<bool> released{false}, inside{false}, leave{false};
  std::thread first([&] {
    flock::strict_lock(a, [&] {
      return flock::try_lock(b, [&] {
        a.unlock();
        released.store(true);
        while (!inside.load()) std::this_thread::yield();
        return true;
      });
    });
  });
  std::thread second([&] {
    while (!released.load()) std::this_thread::yield();
    flock::strict_lock(a, [&] {
      inside.store(true);
      while (!leave.load()) std::this_thread::yield();
      return true;
    });
  });
  first.join();
  EXPECT_TRUE(a.is_locked());
  EXPECT_FALSE(b.is_locked());
  leave.store(true);
  second.join();
  EXPECT_FALSE(a.is_locked());
}

// Contended traffic: helpers replay thunks (including the early-unlock
// one) under the guards; every worker's thread-exit leak check runs at
// join and aborts the test on any unbalanced critical section.
TEST_F(ApiGuardTest, ContendedHelpingBalancesUnderGuards) {
  flock::lock l;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);
  constexpr int kThreads = 4, kOps = 1500;
  std::atomic<uint64_t> wins{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&l, x, &wins] {
      flock::lock* lp = &l;
      uint64_t mine = 0;
      for (int i = 0; i < kOps; i++) {
        bool early = (i & 7) == 0;
        bool ok = flock::with_epoch([&] {
          return flock::try_lock(l, [lp, x, early] {
            x->store(x->load() + 1);
            if (early) lp->unlock();
            return true;
          });
        });
        if (ok) mine++;
      }
      wins.fetch_add(mine);
    });
  }
  for (auto& t : ts) t.join();  // leak check fires here if unbalanced
  EXPECT_FALSE(l.is_locked());
  EXPECT_EQ(x->read_raw(), wins.load());
  EXPECT_GE(wins.load(), (uint64_t)kThreads);  // someone always wins
  flock::pool_delete(x);
  flock::epoch_manager::instance().flush();
}

// --- death tests: misuse aborts with a diagnostic ---------------------------

using ApiGuardDeathTest = ApiGuardTest;

TEST_F(ApiGuardDeathTest, DoubleReleaseTopLevelLockFree) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  flock::lock l;
  EXPECT_DEATH(l.unlock(), "double release");
}

TEST_F(ApiGuardDeathTest, DoubleReleaseInsideThunkLockFree) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Parenthesized lambda: braces do not protect commas from the macro.
  EXPECT_DEATH(([] {
                 flock::lock held;
                 flock::lock other;
                 flock::lock* op = &other;
                 flock::try_lock(held, [op] {
                   op->unlock();  // `other` was never acquired
                   return true;
                 });
               }()),
               "double release");
}

TEST_F(ApiGuardDeathTest, DoubleReleaseBlocking) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  flock::set_blocking(true);
  flock::lock l;
  EXPECT_DEATH(l.unlock(), "double release");
}

TEST_F(ApiGuardDeathTest, NonHolderUnlockLockFree) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(([] {
                 flock::lock l;
                 std::atomic<bool> locked{false};
                 std::atomic<bool> release{false};
                 std::thread holder([&] {
                   flock::strict_lock(l, [&locked, &release] {
                     locked.store(true);
                     while (!release.load()) std::this_thread::yield();
                     return true;
                   });
                 });
                 while (!locked.load()) std::this_thread::yield();
                 l.unlock();  // aborts: this thread does not hold l
                 release.store(true);
                 holder.join();
               }()),
               "does not hold the lock");
}

TEST_F(ApiGuardDeathTest, NonHolderUnlockBlocking) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  flock::set_blocking(true);
  EXPECT_DEATH(([] {
                 flock::lock l;
                 std::atomic<bool> locked{false};
                 std::atomic<bool> release{false};
                 std::thread holder([&] {
                   flock::strict_lock(l, [&locked, &release] {
                     locked.store(true);
                     while (!release.load()) std::this_thread::yield();
                     return true;
                   });
                 });
                 while (!locked.load()) std::this_thread::yield();
                 l.unlock();  // locked, and not by this thread's sections
                 release.store(true);
                 holder.join();
               }()),
               "does not hold the lock");
}

}  // namespace
