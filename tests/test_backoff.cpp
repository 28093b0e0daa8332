// Contended-path backoff and help throttling (flock/backoff.hpp,
// lock.hpp help_throttled, the config.hpp backoff constants): progress is
// never forfeited — a throttled waiter still helps a stalled owner after a
// bounded delay — and a release during backoff avoids the help.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "chaos/faultpoint.hpp"
#include "flock/flock.hpp"
#include "helping_test_util.hpp"

namespace {

// --- progress under throttling ---------------------------------------------

// A stalled owner (stuck mid-thunk until released) must still be helped
// by a throttled waiter: the backoff budget is bounded, so the waiter
// converts to a helper and completes the critical section. Covers both
// probe shapes (try_lock and strict_lock).
TEST(Backoff, ThrottledWaiterStillHelpsStalledOwner) {
  flock::set_blocking(false);
  for (auto kind : {helping_test::probe_kind::try_probe,
                    helping_test::probe_kind::strict_probe}) {
    auto before = flock::stats();
    uint64_t applied = helping_test::force_one_help(kind);
    auto after = flock::stats();
    EXPECT_EQ(applied, 1u);
    EXPECT_GT(after.helps_run - before.helps_run, 0u);
    EXPECT_GT(after.backoff_spins - before.backoff_spins, 0u);
  }
  flock::epoch_manager::instance().flush();
}

// At the calling thread's first backoff round (the backoff.round yield
// point, which calls the schedule-explorer hook of faultpoint.hpp), lets
// the lock's owner finish and waits until it has released the lock.
struct release_owner_at_first_round {
  flock_chaos::detail::sched_hook base{&fn};
  std::atomic<bool>* owner_may_finish = nullptr;
  std::atomic<bool>* owner_released = nullptr;
  bool fired = false;

  static void fn(flock_chaos::detail::sched_hook* self, const char* point) {
    auto* h = reinterpret_cast<release_owner_at_first_round*>(self);
    if (h->fired || std::strcmp(point, "backoff.round") != 0) return;
    h->fired = true;
    h->owner_may_finish->store(true);
    while (!h->owner_released->load()) {
    }
  }
};

// If the owner releases while the waiter is still backing off, the help
// is avoided altogether (stat_helps_avoided) — the throttle's purpose.
// The waiter's first backoff round releases the owner and waits for its
// unlock, so the release lands inside the kHelpDelay budget on every run,
// however the threads are scheduled.
TEST(Backoff, ReleaseDuringBackoffAvoidsTheHelp) {
  flock::set_blocking(false);
  flock::lock l;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);

  std::atomic<bool> owner_installed{false};
  std::atomic<bool> owner_may_finish{false};
  std::atomic<bool> owner_released{false};
  std::thread owner([&] {
    int tid = flock::thread_id();
    flock::with_epoch([&] {
      return flock::try_lock(l, [&, x, tid] {
        uint64_t v = x->load();
        owner_installed.store(true);
        while (!owner_may_finish.load() && flock::thread_id() == tid) {
        }
        x->store(v + 1);
        return true;
      });
    });
    owner_released.store(true);
  });
  while (!owner_installed.load()) {
  }

  auto before = flock::stats();
  std::thread waiter([&] {
    release_owner_at_first_round h;
    h.owner_may_finish = &owner_may_finish;
    h.owner_released = &owner_released;
    flock_chaos::detail::tl_sched_hook = &h.base;
    flock::with_epoch([&] { return flock::try_lock(l, [] { return true; }); });
    flock_chaos::detail::tl_sched_hook = nullptr;
    EXPECT_TRUE(h.fired);
  });
  owner.join();
  waiter.join();
  auto after = flock::stats();

  EXPECT_EQ(x->read_raw(), 1u);
  EXPECT_EQ(after.helps_avoided - before.helps_avoided, 1u);
  EXPECT_EQ(after.helps_attempted - before.helps_attempted, 0u);
  EXPECT_GT(after.backoff_spins - before.backoff_spins, 0u);
  flock::pool_delete(x);
  flock::epoch_manager::instance().flush();
}

}  // namespace
