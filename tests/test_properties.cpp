// Property-style parameterized sweeps (TEST_P + Combine):
//  * exactly-once thunk semantics swept over thunk length x replayer
//    count (Definition 1, stressed along both axes);
//  * data-structure invariants swept over lock mode x thread count x
//    update rate;
//  * linearizable alternation (insert/remove of one key can only
//    alternate) swept over mode x contention level.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include "set_test_util.hpp"
#include "workload/set_adapter.hpp"

namespace {

// ---------------------------------------------------------------------
// Sweep 1: thunk length x replayers.
// ---------------------------------------------------------------------
class ThunkShape
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ThunkShape, CounterChainAppliesOnce) {
  auto [steps, threads] = GetParam();
  for (int round = 0; round < 30; round++) {
    auto* sum = flock::pool_new<flock::mutable_<uint64_t>>();
    sum->init(0);
    flock::descriptor* d = flock::create_descriptor([sum, steps = steps] {
      for (int i = 0; i < steps; i++) sum->store(sum->load() + 1);
      return true;
    });
    std::atomic<bool> go{false};
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; t++) {
      ts.emplace_back([&] {
        while (!go.load()) {
        }
        d->run();
      });
    }
    go.store(true);
    for (auto& t : ts) t.join();
    ASSERT_EQ(sum->read_raw(), static_cast<uint64_t>(steps))
        << "steps=" << steps << " threads=" << threads << " round=" << round;
    flock::recycle(d);
    flock::pool_delete(sum);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThunkShape,
    ::testing::Combine(::testing::Values(1, 3, 7, 8, 20, 50),
                       ::testing::Values(2, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& i) {
      return "steps" + std::to_string(std::get<0>(i.param)) + "_threads" +
             std::to_string(std::get<1>(i.param));
    });

// ---------------------------------------------------------------------
// Sweep 2: structure invariants over mode x threads x update rate.
// ---------------------------------------------------------------------
class StressSweep
    : public ::testing::TestWithParam<std::tuple<bool, int, int>> {
 protected:
  void SetUp() override { flock::set_blocking(std::get<0>(GetParam())); }
  void TearDown() override {
    flock::set_blocking(false);
    flock::epoch_manager::instance().flush();
  }
};

TEST_P(StressSweep, LeaftreeInvariants) {
  auto [blocking, threads, upd] = GetParam();
  (void)blocking;
  flock_workload::leaftree_try s;
  set_test::concurrent_stress(s, threads, 256, 2500, upd);
}

TEST_P(StressSweep, LazylistInvariants) {
  auto [blocking, threads, upd] = GetParam();
  (void)blocking;
  flock_workload::lazylist_try s;
  set_test::concurrent_stress(s, threads, 128, 2000, upd);
}

TEST_P(StressSweep, AbtreeInvariants) {
  auto [blocking, threads, upd] = GetParam();
  (void)blocking;
  flock_workload::abtree_try s;
  set_test::concurrent_stress(s, threads, 256, 2500, upd);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StressSweep,
    ::testing::Combine(::testing::Bool(), ::testing::Values(2, 4, 12),
                       ::testing::Values(10, 50, 100)),
    [](const ::testing::TestParamInfo<std::tuple<bool, int, int>>& i) {
      return std::string(std::get<0>(i.param) ? "bl" : "lf") + "_t" +
             std::to_string(std::get<1>(i.param)) + "_u" +
             std::to_string(std::get<2>(i.param));
    });

// ---------------------------------------------------------------------
// Sweep 3: single-key alternation under varying contention.
// ---------------------------------------------------------------------
class Alternation
    : public ::testing::TestWithParam<std::tuple<bool, int>> {
 protected:
  void SetUp() override { flock::set_blocking(std::get<0>(GetParam())); }
  void TearDown() override {
    flock::set_blocking(false);
    flock::epoch_manager::instance().flush();
  }
};

TEST_P(Alternation, OneKeyNetBalance) {
  auto [blocking, threads] = GetParam();
  (void)blocking;
  flock_workload::dlist_try s;
  std::atomic<long long> net{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; t++) {
    ts.emplace_back([&, t] {
      std::mt19937_64 rng(t);
      long long mine = 0;
      for (int i = 0; i < 5000; i++) {
        if (rng() & 1) {
          if (s.insert(42, 42)) mine++;
        } else {
          if (s.remove(42)) mine--;
        }
      }
      net.fetch_add(mine);
    });
  }
  for (auto& t : ts) t.join();
  ASSERT_TRUE(net.load() == 0 || net.load() == 1) << net.load();
  ASSERT_EQ(static_cast<long long>(s.size()), net.load());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Alternation,
    ::testing::Combine(::testing::Bool(), ::testing::Values(2, 8, 32)),
    [](const ::testing::TestParamInfo<std::tuple<bool, int>>& i) {
      return std::string(std::get<0>(i.param) ? "bl" : "lf") + "_t" +
             std::to_string(std::get<1>(i.param));
    });

}  // namespace
