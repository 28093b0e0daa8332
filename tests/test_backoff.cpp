// Contended-path backoff and help throttling (flock/backoff.hpp,
// lock.hpp help_throttled, config.hpp tunables): progress is never
// forfeited — a throttled waiter still helps a stalled owner after a
// bounded delay — and set_backoff clamps the tunables sanely.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "flock/flock.hpp"
#include "helping_test_util.hpp"

namespace {

// RAII restore of the process-wide tunables a test mutates.
struct tunables_guard {
  flock::backoff_tunables saved = flock::backoff_cfg();
  ~tunables_guard() { flock::set_backoff(saved); }
};

// --- clamping -----------------------------------------------------------

TEST(Backoff, SetBackoffClamps) {
  tunables_guard g;
  // A zero round length would never pause.
  flock::set_backoff({0, 0, 99999});
  EXPECT_EQ(flock::backoff_cfg().min_spins, 1u);
  EXPECT_GE(flock::backoff_cfg().max_spins, 1u);
  EXPECT_EQ(flock::backoff_cfg().help_delay, 256u);
}

TEST(Backoff, TunablesClampHostileValues) {
  tunables_guard g;
  auto set = [](flock::backoff_tunables t) {
    flock::set_backoff(t);
    return flock::backoff_cfg();
  };
  // Oversized values are capped so a single round stays bounded.
  auto t = set({999999999, 999999999, 999999999});
  EXPECT_EQ(t.min_spins, 1u << 16);
  EXPECT_EQ(t.max_spins, 1u << 20);
  EXPECT_EQ(t.help_delay, 256u);

  // max below min is raised to min, not left inverted.
  t = set({128, 2, 3});
  EXPECT_EQ(t.min_spins, 128u);
  EXPECT_EQ(t.max_spins, 128u);
  EXPECT_EQ(t.help_delay, 3u);
}

// --- progress under throttling ---------------------------------------------

// A stalled owner (stuck mid-thunk until released) must still be helped
// by a throttled waiter: the backoff budget is bounded, so the waiter
// converts to a helper and completes the critical section. Covers both
// probe shapes (try_lock and strict_lock).
TEST(Backoff, ThrottledWaiterStillHelpsStalledOwner) {
  flock::set_blocking(false);
  tunables_guard g;
  // A generous budget: the throttle must delay, not defeat, helping.
  flock::set_backoff({16, 256, 32});
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

// help_delay = 0 disables the throttle entirely: the probe helps on first
// contact and never enters a backoff round.
TEST(Backoff, ZeroHelpDelayHelpsImmediately) {
  flock::set_blocking(false);
  tunables_guard g;
  flock::set_backoff({16, 256, 0});
  auto before = flock::stats();
  uint64_t applied = helping_test::force_one_help();
  auto after = flock::stats();
  EXPECT_EQ(applied, 1u);
  EXPECT_GT(after.helps_run - before.helps_run, 0u);
  EXPECT_EQ(after.backoff_spins - before.backoff_spins, 0u);
  flock::epoch_manager::instance().flush();
}

// If the owner releases while the waiter is still backing off, the help
// is avoided altogether (stat_helps_avoided) — the throttle's purpose.
// One narrow race makes a single round inconclusive: the waiter can wake
// exactly between the owner's done-store and its unlock CAS, in which
// case it (correctly) helps instead. Retry until an avoided help is
// observed; with 16K-pause rounds the first attempt almost always lands.
TEST(Backoff, ReleaseDuringBackoffAvoidsTheHelp) {
  flock::set_blocking(false);
  tunables_guard g;
  // Long rounds and a long budget so the waiter is reliably mid-backoff
  // when the owner releases.
  flock::set_backoff({1u << 14, 1u << 16, 256});
  bool avoided = false;
  for (int attempt = 0; attempt < 10 && !avoided; attempt++) {
    flock::lock l;
    auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
    x->init(0);

    std::atomic<bool> owner_installed{false};
    std::atomic<bool> owner_may_finish{false};
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
    });
    while (!owner_installed.load()) {
    }

    auto before = flock::stats();
    std::thread waiter([&] {
      flock::with_epoch(
          [&] { return flock::try_lock(l, [] { return true; }); });
    });
    // Wait until the waiter is demonstrably inside a backoff round,
    // then release the owner; the waiter's next re-check sees the word
    // move and returns without helping.
    while (flock::stats().backoff_spins == before.backoff_spins) {
    }
    owner_may_finish.store(true);
    owner.join();
    waiter.join();
    auto after = flock::stats();

    EXPECT_EQ(x->read_raw(), 1u);
    avoided = after.helps_avoided > before.helps_avoided;
    flock::pool_delete(x);
    flock::epoch_manager::instance().flush();
  }
  EXPECT_TRUE(avoided);
}

}  // namespace
