// Tests for try_lock / strict_lock semantics (Algorithm 3) in both
// blocking and lock-free modes: mutual exclusion, helping, nesting,
// descriptor lifecycle, early unlock.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <type_traits>
#include <vector>

#include "flock/flock.hpp"

namespace {

class LockModes : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { flock::set_blocking(GetParam()); }
  void TearDown() override {
    flock::set_blocking(false);
    flock::epoch_manager::instance().flush();
  }
};

TEST_P(LockModes, TryLockRunsThunkAndReturnsItsValue) {
  flock::lock l;
  int side_effect = 0;
  bool ok = flock::with_epoch([&] {
    return flock::try_lock(l, [&side_effect] {
      side_effect = 1;
      return true;
    });
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(side_effect, 1);
  EXPECT_FALSE(l.is_locked());

  bool ok2 = flock::with_epoch(
      [&] { return flock::try_lock(l, [] { return false; }); });
  EXPECT_FALSE(ok2);  // thunk ran but returned false
  EXPECT_FALSE(l.is_locked());
}

TEST_P(LockModes, MutualExclusionCounter) {
  flock::lock l;
  auto* counter = flock::pool_new<flock::mutable_<uint64_t>>();
  counter->init(0);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> ts;
  std::atomic<long long> successes{0};
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&] {
      long long mine = 0;
      for (int i = 0; i < kPerThread; i++) {
        bool ok = flock::with_epoch([&] {
          return flock::try_lock(l, [counter] {
            counter->store(counter->load() + 1);
            return true;
          });
        });
        if (ok) mine++;
      }
      successes.fetch_add(mine);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter->read_raw(), static_cast<uint64_t>(successes.load()));
  EXPECT_GT(successes.load(), 0);
  flock::pool_delete(counter);
}

TEST_P(LockModes, StrictLockAlwaysSucceeds) {
  flock::lock l;
  auto* counter = flock::pool_new<flock::mutable_<uint64_t>>();
  counter->init(0);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&] {
      for (int i = 0; i < kPerThread; i++) {
        bool ok = flock::with_epoch([&] {
          return flock::strict_lock(l, [counter] {
            counter->store(counter->load() + 1);
            return true;
          });
        });
        ASSERT_TRUE(ok);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter->read_raw(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  flock::pool_delete(counter);
}

TEST_P(LockModes, NestedLocksBothApply) {
  flock::lock outer, inner;
  auto* a = flock::pool_new<flock::mutable_<uint64_t>>();
  auto* b = flock::pool_new<flock::mutable_<uint64_t>>();
  a->init(0);
  b->init(0);
  bool ok = flock::with_epoch([&] {
    return flock::try_lock(outer, [&outer, &inner, a, b] {
      (void)outer;
      a->store(a->load() + 1);
      return flock::try_lock(inner, [a, b] {
        b->store(b->load() + a->load());
        return true;
      });
    });
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(a->read_raw(), 1u);
  EXPECT_EQ(b->read_raw(), 1u);
  flock::pool_delete(a);
  flock::pool_delete(b);
}

TEST_P(LockModes, NestedMutualExclusionTwoAccounts) {
  // Classic transfer test: invariant a+b constant under concurrent
  // transfers with nested locks (lock a then b).
  flock::lock la, lb;
  auto* a = flock::pool_new<flock::mutable_<uint64_t>>();
  auto* b = flock::pool_new<flock::mutable_<uint64_t>>();
  a->init(1000);
  b->init(1000);
  constexpr int kThreads = 6;
  std::atomic<bool> stop{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < 3000 && !stop.load(); i++) {
        uint64_t amt = 1 + (i % 3);
        flock::with_epoch([&] {
          return flock::try_lock(la, [&lb, a, b, amt, t] {
            (void)t;
            return flock::try_lock(lb, [a, b, amt] {
              uint64_t va = a->load(), vb = b->load();
              if (va >= amt) {
                a->store(va - amt);
                b->store(vb + amt);
              } else {
                a->store(va + amt);
                b->store(vb - amt);
              }
              return true;
            });
          });
        });
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(a->read_raw() + b->read_raw(), 2000u);
  flock::pool_delete(a);
  flock::pool_delete(b);
}

TEST_P(LockModes, EarlyUnlockAllowsReacquire) {
  flock::lock l;
  bool inner_ok = false;
  bool ok = flock::with_epoch([&] {
    return flock::try_lock(l, [&l, &inner_ok] {
      flock::unlock(l);  // hand-over-hand style early release
      inner_ok = !l.is_locked();
      return true;
    });
  });
  EXPECT_TRUE(ok);
  EXPECT_TRUE(inner_ok);
  EXPECT_FALSE(l.is_locked());
}

TEST_P(LockModes, ThunkValueCapture) {
  // Paper §6 "Capturing by Value": captured locals must survive helping.
  flock::lock l;
  auto* out = flock::pool_new<flock::mutable_<uint64_t>>();
  out->init(0);
  {
    uint64_t local = 77;
    flock::with_epoch([&] {
      return flock::try_lock(l, [out, local] {
        out->store(local);
        return true;
      });
    });
  }
  EXPECT_EQ(out->read_raw(), 77u);
  flock::pool_delete(out);
}

// Sections on locks[i..n), each nested in the previous one; the innermost
// releases the outermost and its own grandparent early.
bool nest_sections(flock::lock* locks, int i, int n) {
  if (i == n) {
    locks[0].unlock();
    locks[n - 2].unlock();
    return true;
  }
  return flock::try_lock(locks[i], [locks, i, n] {
    return nest_sections(locks, i + 1, n);
  });
}

// Deeper than the misuse guards track (lock.hpp): the guards find the
// outermost lock, stay silent on the untracked grandparent, and no
// early release is counted twice.
TEST_P(LockModes, DeepNestReleasesOutermostEarly) {
  constexpr int kNest = 20;
  static_assert(kNest > flock::detail::thread_context::kDbgRunDepth);
  flock::lock locks[kNest];
  flock::lock* lp = locks;
  EXPECT_TRUE(flock::with_epoch([lp] { return nest_sections(lp, 0, kNest); }));
  for (const flock::lock& l : locks) EXPECT_FALSE(l.is_locked());
}

INSTANTIATE_TEST_SUITE_P(BothModes, LockModes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& i) {
                           return i.param ? "blocking" : "lockfree";
                         });

// Every test binary carries the lock-API misuse guards (lock.hpp), so a
// double release aborts here too, in both modes.
using LockModesDeathTest = LockModes;

TEST_P(LockModesDeathTest, DoubleReleaseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(([] {
                 flock::lock l;
                 flock::lock* lp = &l;
                 flock::try_lock(l, [lp] {
                   lp->unlock();
                   lp->unlock();
                   return true;
                 });
               }()),
               "double release");
}

INSTANTIATE_TEST_SUITE_P(BothModes, LockModesDeathTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& i) {
                           return i.param ? "blocking" : "lockfree";
                         });

// ---------- blocking specific ----------

// A blocking section that released its lock early (hand-over-hand) must
// not release it again when it ends: another thread may hold it by then.
// Blocking mode runs each thunk once, so the atomics handshake is safe.
TEST(LockBlocking, SectionEndLeavesAReacquiredLockHeld) {
  flock::mode_guard mode(/*blocking=*/true);
  flock::lock l0, l1;
  std::atomic<bool> released{false}, inside{false}, leave{false};
  std::thread a([&] {
    flock::strict_lock(l0, [&] {
      return flock::try_lock(l1, [&] {
        flock::unlock(l0);
        released.store(true);
        while (!inside.load()) std::this_thread::yield();
        return true;
      });
    });
  });
  std::thread b([&] {
    while (!released.load()) std::this_thread::yield();
    flock::strict_lock(l0, [&] {
      inside.store(true);
      while (!leave.load()) std::this_thread::yield();
      return true;
    });
  });
  a.join();
  EXPECT_TRUE(l0.is_locked());  // b is still inside its section
  EXPECT_FALSE(l1.is_locked());
  leave.store(true);
  b.join();
  EXPECT_FALSE(l0.is_locked());
}

// A section that released its lock early may take it again in a nested
// section of its own and release it there: the guards track the nested
// holder, and neither section end releases the lock a second time.
TEST(LockBlocking, NestedReacquireAfterEarlyRelease) {
  flock::mode_guard mode(/*blocking=*/true);
  flock::lock l0, l1;
  bool ok = flock::strict_lock(l0, [&] {
    return flock::try_lock(l1, [&] {
      flock::unlock(l0);
      return flock::try_lock(l0, [&] {
        flock::unlock(l0);
        return true;
      });
    });
  });
  EXPECT_TRUE(ok);
  EXPECT_FALSE(l0.is_locked());
  EXPECT_FALSE(l1.is_locked());
}

// ---------- lock-free specific: helping ----------

TEST(LockHelping, HelperCompletesStalledOwner) {
  flock::set_blocking(false);
  flock::lock l;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);

  std::atomic<bool> owner_installed{false};
  std::atomic<bool> owner_may_finish{false};

  // Owner thread: acquires the lock, then stalls *inside* the thunk until
  // released. In lock-free mode another thread must be able to finish the
  // critical section and release the lock.
  std::thread owner([&] {
    flock::with_epoch([&] {
      return flock::try_lock(l, [&, x] {
        uint64_t v = x->load();
        owner_installed.store(true);
        while (!owner_may_finish.load()) {
        }  // simulate a long stall mid-critical-section
        x->store(v + 1);
        return true;
      });
    });
  });

  while (!owner_installed.load()) {
  }

  // Helper: try_lock on the same lock; in lock-free mode this helps the
  // stalled owner's thunk to completion (it re-runs it from the start,
  // and is not blocked by the owner's spin because the helper's run of
  // the thunk reads owner_may_finish only after we set it below).
  owner_may_finish.store(true);
  bool got_in = false;
  for (int i = 0; i < 100000 && !got_in; i++) {
    got_in = flock::with_epoch(
        [&] { return flock::try_lock(l, [] { return true; }); });
  }
  EXPECT_TRUE(got_in);
  owner.join();
  EXPECT_EQ(x->read_raw(), 1u);  // critical section applied exactly once
  flock::pool_delete(x);
  flock::epoch_manager::instance().flush();
}

TEST(LockHelping, HelpedCriticalSectionAppliesOnce) {
  // Many threads hammer one lock; every successful try_lock increments.
  // Helping must never double-apply a thunk. High contention: small loop
  // with no backoff maximizes helper overlap.
  flock::set_blocking(false);
  for (int round = 0; round < 20; round++) {
    flock::lock l;
    auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
    x->init(0);
    std::atomic<long long> wins{0};
    constexpr int kThreads = 8;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; t++) {
      ts.emplace_back([&] {
        long long mine = 0;
        for (int i = 0; i < 500; i++) {
          if (flock::with_epoch([&] {
                return flock::try_lock(l, [x] {
                  x->store(x->load() + 1);
                  return true;
                });
              }))
            mine++;
        }
        wins.fetch_add(mine);
      });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(x->read_raw(), static_cast<uint64_t>(wins.load()))
        << "round " << round;
    flock::pool_delete(x);
  }
  flock::epoch_manager::instance().flush();
}

// A helper's late replay of an enclosing thunk reaches its nested
// acquisition after the inner lock was released and taken again by
// another thread. The replay must not install the released inner
// descriptor again: its install CAS expects the word committed with the
// descriptor, which the lock has moved past. If it installed, it would
// release the new holder's lock from under it and let a third section
// overlap that holder, losing an increment. Spins gated on thread ids
// stage the interleaving: the helper's replay stalls before the nest, the
// new holder between its load and its store.
TEST(LockHelping, NestedLateReplayAfterReacquireAppliesOnce) {
  flock::set_blocking(false);
  flock::lock a, b;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);
  std::atomic<int> helper_tid{-1}, holder_tid{-1};
  std::atomic<bool> owner_in{false}, owner_go{false};
  std::atomic<bool> replay_in{false}, replay_go{false};
  std::atomic<bool> holder_in{false}, holder_go{false};
  auto inc = [x] {
    x->store(x->load() + 1);
    return true;
  };

  bool owner_ok = false;
  std::thread owner([&] {
    const int me = flock::thread_id();
    owner_ok = flock::with_epoch([&] {
      return flock::try_lock(a, [&, me, inc] {
        if (flock::thread_id() == me) {
          owner_in.store(true);
          while (!owner_go.load()) {
          }
        } else if (flock::thread_id() == helper_tid.load()) {
          replay_in.store(true);
          while (!replay_go.load()) {
          }
        }
        return flock::try_lock(b, inc);
      });
    });
  });
  while (!owner_in.load()) {
  }
  bool helper_b_ok = true;
  std::thread helper([&] {
    helper_tid.store(flock::thread_id());
    // a is held: this helps the owner's descriptor, and the replay stalls.
    EXPECT_FALSE(flock::with_epoch(
        [&] { return flock::try_lock(a, [] { return true; }); }));
    // b is held by the new holder: this must help it, not acquire.
    helper_b_ok = flock::with_epoch([&] { return flock::try_lock(b, inc); });
  });
  while (!replay_in.load()) {
  }
  owner_go.store(true);  // the owner finishes a{b{x++}}: b released
  owner.join();
  ASSERT_TRUE(owner_ok);
  ASSERT_EQ(x->read_raw(), 1u);

  bool holder_ok = false;
  std::thread holder([&] {
    holder_tid.store(flock::thread_id());
    holder_ok = flock::with_epoch([&] {
      return flock::try_lock(b, [&, x] {
        uint64_t v = x->load();
        if (flock::thread_id() == holder_tid.load()) {
          holder_in.store(true);
          while (!holder_go.load()) {
          }
        }
        x->store(v + 1);
        return true;
      });
    });
  });
  while (!holder_in.load()) {
  }
  replay_go.store(true);  // the late replay reaches try_lock(b)
  helper.join();
  holder_go.store(true);
  holder.join();

  EXPECT_TRUE(holder_ok);
  EXPECT_FALSE(helper_b_ok);
  const uint64_t sections = (owner_ok ? 1u : 0u) + (holder_ok ? 1u : 0u) +
                            (helper_b_ok ? 1u : 0u);
  EXPECT_EQ(x->read_raw(), sections);  // every section took effect once
  EXPECT_FALSE(a.is_locked());
  EXPECT_FALSE(b.is_locked());
  flock::pool_delete(x);
  flock::epoch_manager::instance().flush();
}

TEST(LockHelping, TryLockFailsFastWhenHeld) {
  flock::set_blocking(false);
  flock::lock l;
  std::atomic<bool> in{false}, out{false};
  std::thread holder([&] {
    flock::with_epoch([&] {
      return flock::try_lock(l, [&] {
        in.store(true);
        while (!out.load()) {
        }
        return true;
      });
    });
  });
  while (!in.load()) {
  }
  // The holder's thunk spins on `out`, so a helper would spin too —
  // but try_lock on a held lock first helps *then* returns false. To keep
  // the test deterministic, release before probing.
  out.store(true);
  holder.join();
  bool ok = flock::with_epoch(
      [&] { return flock::try_lock(l, [] { return true; }); });
  EXPECT_TRUE(ok);
}

TEST(LockFree, DescriptorPoolBalanced) {
  flock::set_blocking(false);
  flock::epoch_manager::instance().flush();
  long long before = flock::descriptors_live();
  flock::lock l;
  for (int i = 0; i < 10000; i++) {
    flock::with_epoch([&] {
      return flock::try_lock(l, [] { return true; });
    });
  }
  flock::epoch_manager::instance().flush();
  EXPECT_EQ(flock::descriptors_live(), before);
}

// Descriptor memory is type-stable: a descriptor is only ever recycled.
static_assert(!std::is_destructible_v<flock::descriptor>);

// A recycled descriptor starts clean: the overflow log block it grew is
// freed, and the thread's next acquisition takes the same descriptor with
// an empty log, so its first commit wins.
TEST(LockFree, RecycledDescriptorStartsClean) {
  flock::set_blocking(false);
  flock::lock l;
  const long long blocks0 = flock::pool_outstanding<flock::log_block>();
  const flock::log_block* first = nullptr;
  bool spilled = false;
  flock::with_epoch([&] {
    return flock::try_lock(l, [&first, &spilled] {
      first = flock::tls_log().block;  // the descriptor's embedded block
      for (int i = 0; i <= flock::kLogBlockEntries; i++)
        flock::commit_value(100 + i);
      spilled = flock::tls_log().block != first;
      return true;
    });
  });
  EXPECT_TRUE(spilled);
  EXPECT_EQ(flock::pool_outstanding<flock::log_block>(), blocks0);

  const flock::log_block* second = nullptr;
  uint64_t committed = 0;
  flock::with_epoch([&] {
    return flock::try_lock(l, [&second, &committed] {
      second = flock::tls_log().block;
      committed = flock::commit_value(7);
      return true;
    });
  });
  EXPECT_EQ(second, first);
  EXPECT_EQ(committed, 7u);
}

// Uncontended acquisitions recycle one descriptor: the pool carves at
// most one, and the live count returns to where it was.
TEST(LockFree, UncontendedAcquisitionsCarveAtMostOneDescriptor) {
  flock::set_blocking(false);
  const long long carved0 = flock::pool_outstanding<flock::descriptor>();
  const long long live0 = flock::descriptors_live();
  flock::lock l;
  for (int i = 0; i < 10000; i++) {
    flock::with_epoch([&] {
      return flock::try_lock(l, [] { return true; });
    });
  }
  EXPECT_LE(flock::pool_outstanding<flock::descriptor>() - carved0, 1);
  EXPECT_EQ(flock::descriptors_live(), live0);
}

// The log slots a nested acquisition costs its enclosing thunk: a
// try_lock two (the candidate descriptor, the outcome) when it acquires
// and one (a null candidate) when it finds the lock held; a strict_lock
// three (the descriptor, the lock word, the outcome). The inner thunks
// commit nothing, so the outer thunk's count is the acquisition's.
TEST(LockFree, NestedAcquisitionLogSlots) {
  flock::set_blocking(false);
  flock::lock a, b;
  auto outer_commits = [&](auto nested) {
    uint64_t n = 0;
    uint64_t* np = &n;
    flock::with_epoch([&] {
      return flock::try_lock(a, [np, nested] {
        const uint64_t c0 = flock::tls_commit_count();
        bool r = nested();
        // Every run counts the same slots; the owner's run is the only one.
        *np = flock::tls_commit_count() - c0;
        return r;
      });
    });
    return n;
  };
  flock::lock* bp = &b;
  EXPECT_EQ(outer_commits([bp] {
              return flock::try_lock(*bp, [] { return true; });
            }),
            2u);
  EXPECT_EQ(outer_commits([bp] {
              return flock::strict_lock(*bp, [] { return true; });
            }),
            3u);

  // b held by a stalled thread: the nested try_lock logs a null candidate
  // and helps the holder (whose thunk commits nothing).
  std::atomic<bool> in{false}, out{false};
  std::thread holder([&] {
    const int me = flock::thread_id();
    flock::with_epoch([&] {
      return flock::try_lock(b, [&, me] {
        in.store(true);
        while (flock::thread_id() == me && !out.load()) {
        }
        return true;
      });
    });
  });
  while (!in.load()) {
  }
  EXPECT_EQ(outer_commits([bp] {
              return flock::try_lock(*bp, [] { return true; });
            }),
            1u);
  out.store(true);
  holder.join();
  EXPECT_FALSE(b.is_locked());
  flock::epoch_manager::instance().flush();
}

TEST(LockFree, OversubscribedProgress) {
  // 4x hardware threads hammering one lock in lock-free mode: total work
  // must complete (lock-freedom means no thread parks holding the lock).
  flock::set_blocking(false);
  flock::lock l;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);
  const int kThreads =
      4 * static_cast<int>(std::thread::hardware_concurrency());
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&] {
      for (int i = 0; i < 200; i++) {
        flock::with_epoch([&] {
          return flock::strict_lock(l, [x] {
            x->store(x->load() + 1);
            return true;
          });
        });
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(x->read_raw(), static_cast<uint64_t>(kThreads) * 200);
  flock::pool_delete(x);
  flock::epoch_manager::instance().flush();
}

}  // namespace
