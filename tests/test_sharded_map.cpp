// Store tier (store/sharded_map.hpp): routing correctness across shard
// counts, per-shard independent resize lifecycles (grow AND shrink), and
// atomic movement between stores of different shard counts — in both lock
// modes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "store/sharded_map.hpp"
#include "workload/driver.hpp"
#include "workload/set_adapter.hpp"

namespace {

using map_try = flock_store::sharded_map<uint64_t, uint64_t, false>;
using map_strict = flock_store::sharded_map<uint64_t, uint64_t, true>;

class ShardedMapTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { flock::set_blocking(GetParam()); }
  void TearDown() override {
    flock::set_blocking(false);
    flock::epoch_manager::instance().flush();
  }
};

TEST_P(ShardedMapTest, BasicApiAcrossShardCounts) {
  for (std::size_t shards : {1u, 4u, 8u}) {
    map_try m(shards);
    EXPECT_EQ(m.shard_count(), shards);
    const uint64_t n = 4000;
    for (uint64_t k = 1; k <= n; k++) ASSERT_TRUE(m.insert(k, k * 3));
    for (uint64_t k = 1; k <= n; k++) EXPECT_FALSE(m.insert(k, 0));
    EXPECT_EQ(m.size(), n);
    EXPECT_EQ(m.approx_size(), n);
    for (uint64_t k = 1; k <= n; k++) {
      auto v = m.find(k);
      ASSERT_TRUE(v.has_value()) << "shards=" << shards << " key " << k;
      ASSERT_EQ(*v, k * 3);
    }
    EXPECT_FALSE(m.find(n + 1).has_value());
    for (uint64_t k = 1; k <= n; k += 2) ASSERT_TRUE(m.remove(k));
    EXPECT_FALSE(m.remove(n + 1));
    EXPECT_EQ(m.size(), n / 2);
    EXPECT_EQ(m.approx_size(), n / 2);
    EXPECT_TRUE(m.check_invariants());
    std::size_t seen = 0;
    m.for_each([&](uint64_t k, uint64_t v) {
      EXPECT_EQ(v, k * 3);
      seen++;
    });
    EXPECT_EQ(seen, n / 2);
  }
}

TEST_P(ShardedMapTest, RoutingSpreadsKeysAndShardsResizeIndependently) {
  map_try m(8);
  const uint64_t n = 1 << 15;
  for (uint64_t k = 1; k <= n; k++) ASSERT_TRUE(m.insert(k, k));
  // Top-bit routing: every shard takes a fair cut (within 2x of fair
  // share on 32K keys), and each shard's table grew on its own.
  std::size_t total = 0;
  for (std::size_t i = 0; i < m.shard_count(); i++) {
    std::size_t sz = m.shard(i).size();
    EXPECT_GT(sz, n / 16u) << "shard " << i << " starved";
    EXPECT_LT(sz, n / 4u) << "shard " << i << " overloaded";
    EXPECT_GT(m.shard(i).bucket_count(), 64u)
        << "shard " << i << " never grew";
    total += sz;
  }
  EXPECT_EQ(total, n);
  EXPECT_TRUE(m.check_invariants());
}

TEST_P(ShardedMapTest, ConcurrentGrowthStress) {
  map_try m(8);
  const uint64_t range = 1 << 17;
  auto res = flock_workload::run_growth(m, range, 8);
  EXPECT_EQ(res.successful_updates, range);
  EXPECT_EQ(m.size(), range);
  EXPECT_TRUE(m.check_invariants());
}

TEST_P(ShardedMapTest, ChurnShrinksEveryShard) {
  map_try m(4);
  const uint64_t range = 1 << 15;
  auto g = flock_workload::run_growth(m, range, 4);
  ASSERT_EQ(g.successful_updates, range);
  const std::size_t peak = m.bucket_count();
  ASSERT_GE(peak, static_cast<std::size_t>(range / 2));

  auto d = flock_workload::run_drain(m, range, 4);
  EXPECT_EQ(d.successful_updates, range);
  // Steady trickle so each shard's policy ticks and migrations get help.
  for (std::size_t i = 0; i < (1u << 19); i++) {
    uint64_t k = (1u << 30) + (i & 1023);
    m.insert(k, 1);
    m.remove(k);
    if ((i & 4095) == 0 && m.bucket_count() <= 4 * 64) break;
  }
  EXPECT_LE(m.bucket_count(), peak / 4) << "store failed to shrink";
  EXPECT_GE(m.shrink_count(), 4u) << "some shard never shrank";
  EXPECT_TRUE(m.check_invariants());
  EXPECT_EQ(m.size(), 0u);
}

TEST_P(ShardedMapTest, CrossShardMoveBasicSemantics) {
  map_try a(4), b(8);  // different layouts
  a.insert(1, 10);
  a.insert(2, 20);
  EXPECT_TRUE(flock_ds::move_retry(a, b, uint64_t{1}));
  EXPECT_FALSE(a.find(1).has_value());
  EXPECT_EQ(*b.find(1), 10u);  // value travels
  EXPECT_FALSE(flock_ds::move_retry(a, b, uint64_t{1}));  // not in source
  EXPECT_FALSE(flock_ds::move_retry(a, b, uint64_t{9}));  // never existed
  b.insert(2, 99);
  EXPECT_FALSE(flock_ds::move_retry(a, b, uint64_t{2}));  // already in dest
  EXPECT_EQ(*a.find(2), 20u);                             // source untouched
  EXPECT_EQ(*b.find(2), 99u);                             // dest untouched
  // A zero attempt budget never calls try_move: false, nothing changes.
  a.insert(3, 30);
  EXPECT_FALSE(flock_ds::move_retry(a, b, uint64_t{3}, 0));
  EXPECT_EQ(*a.find(3), 30u);
  EXPECT_FALSE(b.find(3).has_value());
  EXPECT_FALSE(flock_store::try_move(a, a, uint64_t{2}));  // self-move
  EXPECT_TRUE(a.check_invariants());
  EXPECT_TRUE(b.check_invariants());
}

TEST_P(ShardedMapTest, ReshardingUnderConcurrentTraffic) {
  // Writers keep inserting fresh keys into a 2-shard store while a mover
  // sweeps the key space with move_retry into an 8-shard store. Once the
  // writers stop, one quiescent sweep must move every key still in the
  // source. Nothing may be lost or duplicated.
  map_try src(2), dst(8);
  constexpr int kWriters = 2;
  constexpr uint64_t kPerWriter = 20000;
  constexpr uint64_t kKeys = kWriters * kPerWriter;
  std::atomic<bool> writers_done{false};

  std::vector<std::thread> ts;
  for (int w = 0; w < kWriters; w++) {
    ts.emplace_back([&, w] {
      for (uint64_t i = 1; i <= kPerWriter; i++)
        ASSERT_TRUE(src.insert(static_cast<uint64_t>(w) * kPerWriter + i,
                               i * 3));
    });
  }
  std::size_t moved = 0;
  ts.emplace_back([&] {
    for (bool last = false; !last;) {
      last = writers_done.load(std::memory_order_acquire);
      for (uint64_t k = 1; k <= kKeys; k++) {
        const bool resident = last && src.find(k).has_value();
        const bool ok = flock_ds::move_retry(src, dst, k);
        EXPECT_TRUE(ok || !resident) << "quiescent move of key " << k;
        moved += ok;
      }
    }
  });
  for (int w = 0; w < kWriters; w++) ts[static_cast<size_t>(w)].join();
  writers_done.store(true, std::memory_order_release);
  ts.back().join();

  EXPECT_EQ(moved, kKeys);
  EXPECT_EQ(src.size(), 0u);
  EXPECT_EQ(dst.size(), kKeys);
  for (uint64_t w = 0; w < kWriters; w++) {
    for (uint64_t i = 1; i <= kPerWriter; i++) {
      auto v = dst.find(w * kPerWriter + i);
      ASSERT_TRUE(v.has_value()) << "key " << w * kPerWriter + i << " lost";
      ASSERT_EQ(*v, i * 3);
    }
  }
  EXPECT_TRUE(src.check_invariants());
  EXPECT_TRUE(dst.check_invariants());
}

TEST_P(ShardedMapTest, ConcurrentReadersNeverMissDuringRebalance) {
  // A reader's double read while every key moves, one direct try_move at a
  // time, from a 2-shard store to a 4-shard one: probe the source first
  // and the destination only on a miss. Every key stays resident
  // throughout, so any miss is a false one.
  map_try src(2), dst(4);
  constexpr uint64_t kKeys = 128;
  for (uint64_t k = 0; k < kKeys; k++) ASSERT_TRUE(src.insert(k, k + 1));
  std::atomic<bool> started{false}, stop{false};
  std::atomic<uint64_t> misses{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (uint64_t k = 0; k < kKeys; k++) {
        auto r = src.find(k);
        if (!r.has_value()) r = dst.find(k);
        if (!r.has_value() || *r != k + 1)
          misses.fetch_add(1, std::memory_order_relaxed);
      }
      started.store(true, std::memory_order_release);
    }
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  for (uint64_t k = 0; k < kKeys; k++) {
    // The reader takes no locks, so only a transient validation failure
    // (a resize in flight on either bucket) can make an attempt fail; a
    // key that never moves fails the size check below.
    for (int i = 0; i < (1 << 20) && !flock_store::try_move(src, dst, k); i++) {
    }
    std::this_thread::yield();  // let the reader overlap the next move
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(misses.load(), 0u);
  EXPECT_EQ(src.size(), 0u);
  for (uint64_t k = 0; k < kKeys; k++)
    EXPECT_EQ(dst.find(k), std::optional<uint64_t>(k + 1));
  EXPECT_TRUE(src.check_invariants());
  EXPECT_TRUE(dst.check_invariants());
}

TEST_P(ShardedMapTest, StrictVariantBasicAndChurn) {
  map_strict m(4);
  const uint64_t n = 1 << 13;
  for (uint64_t k = 1; k <= n; k++) ASSERT_TRUE(m.insert(k, k));
  const std::size_t peak = m.bucket_count();
  EXPECT_EQ(m.size(), n);
  for (uint64_t k = 1; k <= n; k++) ASSERT_TRUE(m.remove(k));
  for (std::size_t i = 0; i < (1u << 18); i++) {
    uint64_t k = (1u << 30) + (i & 255);
    m.insert(k, 1);
    m.remove(k);
    if ((i & 4095) == 0 && m.bucket_count() <= 4 * 64) break;
  }
  EXPECT_LE(m.bucket_count(), peak / 4);
  EXPECT_TRUE(m.check_invariants());
}

TEST_P(ShardedMapTest, MixedWorkloadThroughTheAdapter) {
  flock_workload::sharded_try s(std::size_t{8});
  flock_workload::prefill_half(s, 20000, 4);
  flock_workload::zipf_distribution dist(20000, 0.9);
  flock_workload::run_config cfg;
  cfg.threads = 4;
  cfg.update_percent = 30;
  cfg.millis = 100;
  auto res = flock_workload::run_mixed(s, dist, cfg);
  EXPECT_GT(res.total_ops, 0u);
  EXPECT_EQ(res.total_ops, res.finds + res.inserts + res.removes);
  EXPECT_TRUE(s.check_invariants());
  // Quiescent agreement between the O(#shards) estimate and the scan.
  EXPECT_EQ(s.approx_size(), s.size());
}

// --- the routed read path ---------------------------------------------------

// A find on a fresh thread sees every completed write to its key: a
// writer on another thread, the reader's own writes, and a second store
// holding the same key, which must not serve or see the first store's
// value.
TEST_P(ShardedMapTest, FindSeesEveryWriteAndIsolatesStores) {
  std::thread([] {
    map_try m(1);
    ASSERT_TRUE(m.insert(7, 70));
    EXPECT_EQ(m.find(7), std::optional<uint64_t>(70));
    EXPECT_EQ(m.find(7), std::optional<uint64_t>(70));

    // A writer on ANOTHER thread: the next find must see the new value.
    std::thread([&m] {
      ASSERT_TRUE(m.remove(7));
      ASSERT_TRUE(m.insert(7, 71));
    }).join();
    EXPECT_EQ(m.find(7), std::optional<uint64_t>(71));

    // An own-thread write.
    ASSERT_TRUE(m.remove(7));
    ASSERT_TRUE(m.insert(7, 72));
    EXPECT_EQ(m.find(7), std::optional<uint64_t>(72));

    // Two stores, one key: each find answers from its own store.
    map_try m2(1);
    ASSERT_TRUE(m2.insert(7, 99));
    EXPECT_EQ(m2.find(7), std::optional<uint64_t>(99));
    EXPECT_EQ(m.find(7), std::optional<uint64_t>(72));
    EXPECT_EQ(m2.find(7), std::optional<uint64_t>(99));
  }).join();
}

INSTANTIATE_TEST_SUITE_P(Modes, ShardedMapTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& i) {
                           return i.param ? "blocking" : "lockfree";
                         });

}  // namespace
