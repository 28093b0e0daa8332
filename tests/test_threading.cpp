// Tests for dense thread-id assignment and recycling.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <set>
#include <thread>
#include <vector>

#include "flock/flock.hpp"

namespace {

TEST(Threading, IdStableWithinThread) {
  int a = flock::thread_id();
  int b = flock::thread_id();
  EXPECT_EQ(a, b);
  EXPECT_GE(a, 0);
  EXPECT_LT(a, flock::kMaxThreads);
}

TEST(Threading, IdsDistinctAcrossLiveThreads) {
  constexpr int kThreads = 16;
  std::vector<int> ids(kThreads, -1);
  std::atomic<int> arrived{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; i++) {
    ts.emplace_back([&, i] {
      ids[i] = flock::thread_id();
      arrived.fetch_add(1);
      while (!release.load()) {
      }
    });
  }
  while (arrived.load() < kThreads) {
  }
  release.store(true);
  for (auto& t : ts) t.join();
  std::set<int> uniq(ids.begin(), ids.end());
  EXPECT_EQ(uniq.size(), static_cast<size_t>(kThreads));
}

TEST(Threading, IdsRecycledAfterExit) {
  // Spawning far more threads than kMaxThreads sequentially must not
  // exhaust the id space.
  for (int round = 0; round < 2 * flock::kMaxThreads; round++) {
    std::thread([] {
      int id = flock::thread_id();
      ASSERT_GE(id, 0);
      ASSERT_LT(id, flock::kMaxThreads);
    }).join();
  }
  SUCCEED();
}

TEST(Threading, BoundCoversIssuedIds) {
  int id = flock::thread_id();
  EXPECT_GT(flock::thread_id_bound(), id);
}

// One live thread past kMaxThreads must abort with a message naming the
// cap, in every build (NDEBUG too), instead of writing past the end of
// the per-thread context array.
TEST(Threading, ThreadCapAbortsInsteadOfOverflowing) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(([] {
                 constexpr int kThreads = flock::kMaxThreads + 1;
                 std::latch all_live(kThreads);
                 std::vector<std::thread> ts;
                 ts.reserve(kThreads);
                 for (int i = 0; i < kThreads; i++) {
                   ts.emplace_back([&] {
                     flock::thread_id();  // registers: takes an id
                     all_live.arrive_and_wait();
                   });
                 }
                 for (auto& t : ts) t.join();
               }()),
               "kMaxThreads");
}

}  // namespace
