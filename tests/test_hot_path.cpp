// Stress tests for the mode-specialized hot paths (lock.hpp): the same
// workload through every dispatch specialization (blocking/helping),
// deterministic forced helping with observable counters, and epoch-batch
// draining leaving the pools balanced after flush().
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "flock/flock.hpp"
#include "helping_test_util.hpp"

namespace {

// One workload, every specialization: concurrent counter increments
// through try_lock plus a nested inner lock, validated against the number
// of successful acquisitions.
TEST(HotPath, SameWorkloadThroughEveryDispatchSpecialization) {
  for (bool blocking : {false, true}) {
    flock::mode_guard mode(blocking);
    flock::lock outer, inner;
    auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
    auto* y = flock::pool_new<flock::mutable_<uint64_t>>();
    x->init(0);
    y->init(0);
    constexpr int kThreads = 4;
    constexpr int kOps = 1500;
    std::atomic<long long> outer_wins{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; t++) {
      ts.emplace_back([&] {
        long long ow = 0;
        for (int i = 0; i < kOps; i++) {
          bool got = flock::with_epoch([&] {
            return flock::try_lock(outer, [&inner, x, y] {
              x->store(x->load() + 1);
              // Nested acquisition: exercises the log-slot discipline
              // under the specialized paths. The outer lock serializes
              // all access to `inner`, so this always succeeds (stale
              // helper runs can't re-lock it: their CASes are
              // tag-guarded effects-once).
              flock::try_lock(inner, [y] {
                y->store(y->load() + 1);
                return true;
              });
              return true;
            });
          });
          if (got) ow++;
        }
        outer_wins.fetch_add(ow);
      });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(x->read_raw(), static_cast<uint64_t>(outer_wins.load()))
        << "blocking=" << blocking;
    // Exactly one effective inner acquisition per outer win.
    EXPECT_EQ(y->read_raw(), x->read_raw()) << "blocking=" << blocking;
    flock::pool_delete(x);
    flock::pool_delete(y);
    flock::epoch_manager::instance().flush();
  }
}

// Deterministic helping (scaffold in helping_test_util.hpp).
TEST(HotPath, ForcedHelpingRunsThunks) {
  flock::set_blocking(false);
  auto before = flock::stats();
  uint64_t applied = helping_test::force_one_help();
  auto after = flock::stats();
  EXPECT_GT(after.helps_attempted - before.helps_attempted, 0u);
  EXPECT_GT(after.helps_run - before.helps_run, 0u);
  EXPECT_EQ(applied, 1u);
  flock::epoch_manager::instance().flush();
}

// Epoch-batch draining: push far more retires than one batch holds (so
// sealing, the cached-bound fast path, and the scan path all execute),
// then verify flush() leaves zero outstanding pool objects and no pending
// retired items.
TEST(HotPath, EpochBatchDrainingBalancesPools) {
  struct node {
    uint64_t payload[6];
  };
  flock::epoch_manager::instance().flush();
  long long node_base = flock::pool_outstanding<node>();
  long long desc_base = flock::descriptors_live();

  constexpr int kThreads = 4;
  constexpr int kOps = 5000;  // ~78 batches per thread at capacity 64
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&] {
      for (int i = 0; i < kOps; i++) {
        flock::with_epoch([&] {
          node* n = flock::pool_new<node>();
          flock::epoch_retire(n);
        });
      }
    });
  }
  for (auto& t : ts) t.join();

  // Contended lock traffic on top, so descriptors also flow through the
  // epoch-retire path (helped descriptors cannot take the reuse shortcut).
  flock::set_blocking(false);
  flock::lock l;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);
  std::vector<std::thread> ls;
  for (int t = 0; t < kThreads; t++) {
    ls.emplace_back([&] {
      for (int i = 0; i < 2000; i++) {
        flock::with_epoch([&] {
          return flock::try_lock(l, [x] {
            x->store(x->load() + 1);
            return true;
          });
        });
      }
    });
  }
  for (auto& t : ls) t.join();
  flock::pool_delete(x);

  for (int i = 0; i < 3; i++) flock::epoch_manager::instance().flush();
  EXPECT_EQ(flock::pool_outstanding<node>(), node_base);
  EXPECT_EQ(flock::descriptors_live(), desc_base);
  EXPECT_EQ(flock::epoch_manager::instance().pending(), 0);
}

}  // namespace
