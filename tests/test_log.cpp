// Tests for the idempotence log (src/flock/log.hpp): commit semantics,
// block growth, pass-through outside thunks, and multi-threaded agreement.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "flock/flock.hpp"

namespace {

// RAII: install a fresh descriptor-less log for the calling thread.
struct scoped_log {
  flock::log_block* head;
  flock::log_cursor saved;
  scoped_log() {
    head = flock::pool_new<flock::log_block>();
    saved = flock::tls_log();
    flock::tls_log() = {head, 0};
  }
  ~scoped_log() {
    flock::tls_log() = saved;
    // free chain
    flock::log_block* b = head;
    while (b != nullptr) {
      flock::log_block* n = b->next.load();
      flock::pool_delete(b);
      b = n;
    }
  }
};

TEST(Log, PassThroughOutsideThunk) {
  ASSERT_FALSE(flock::in_thunk());
  auto [v, first] = flock::commit_raw(42);
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(first);
  // Every commit outside a thunk is "first": nothing is recorded.
  auto [v2, first2] = flock::commit_raw(43);
  EXPECT_EQ(v2, 43u);
  EXPECT_TRUE(first2);
}

TEST(Log, FirstCommitWinsWithinThunk) {
  scoped_log lg;
  ASSERT_TRUE(flock::in_thunk());
  auto [v, first] = flock::commit_raw(7);
  EXPECT_EQ(v, 7u);
  EXPECT_TRUE(first);
  // Replay from position 0 (as a helper would): sees the committed value.
  flock::tls_log() = {lg.head, 0};
  auto [v2, first2] = flock::commit_raw(999);
  EXPECT_EQ(v2, 7u);
  EXPECT_FALSE(first2);
}

TEST(Log, ZeroIsACommittableValue) {
  // The +1 slot encoding distinguishes "committed 0" from "empty".
  scoped_log lg;
  auto [v, first] = flock::commit_raw(0);
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(first);
  flock::tls_log() = {lg.head, 0};
  auto [v2, first2] = flock::commit_raw(5);
  EXPECT_EQ(v2, 0u);
  EXPECT_FALSE(first2);
}

TEST(Log, SequentialPositionsIndependent) {
  scoped_log lg;
  for (uint64_t i = 0; i < 5; i++)
    EXPECT_EQ(flock::commit_value(100 + i), 100 + i);
  flock::tls_log() = {lg.head, 0};
  for (uint64_t i = 0; i < 5; i++)
    EXPECT_EQ(flock::commit_value(777), 100 + i);  // replay sees originals
}

TEST(Log, GrowsAcrossBlocks) {
  scoped_log lg;
  const int n = flock::kLogBlockEntries * 3 + 2;
  for (int i = 0; i < n; i++)
    EXPECT_EQ(flock::commit_value(static_cast<uint64_t>(i)),
              static_cast<uint64_t>(i));
  EXPECT_NE(lg.head->next.load(), nullptr);
  // Replay the whole thing.
  flock::tls_log() = {lg.head, 0};
  for (int i = 0; i < n; i++)
    EXPECT_EQ(flock::commit_value(12345), static_cast<uint64_t>(i));
}

// Growth is lazy: a thunk that commits exactly kLogBlockEntries slots
// stays in its descriptor's inline block, one more commit links one
// overflow block, and a helper's replay of that thunk adopts the same
// block (and every committed value) instead of linking its own.
TEST(Log, OverflowBlockOnlyForTheSlotPastTheInlineBlock) {
  ASSERT_FALSE(flock::in_thunk());
  constexpr int kInline = flock::kLogBlockEntries;
  // Row 0 records what the creating thread's run adopts, row 1 what the
  // helper's run adopts; each run proposes values tagged by its thread.
  uint64_t seen[2][kInline + 1] = {};
  const int main_tid = flock::thread_id();
  auto committing = [&seen, main_tid](int n) {
    uint64_t(*rows)[kInline + 1] = seen;
    return [n, rows, main_tid] {
      const int tid = flock::thread_id();
      uint64_t* row = rows[tid == main_tid ? 0 : 1];
      for (int i = 0; i < n; i++)
        row[i] = flock::commit_value(1000 * static_cast<uint64_t>(tid) + i);
      return true;
    };
  };
  const long long blocks0 = flock::pool_outstanding<flock::log_block>();

  flock::descriptor* full = flock::create_descriptor(committing(kInline));
  EXPECT_TRUE(full->run());
  EXPECT_EQ(full->head.next.load(), nullptr);
  EXPECT_EQ(flock::pool_outstanding<flock::log_block>(), blocks0);
  flock::recycle(full);

  flock::descriptor* over = flock::create_descriptor(committing(kInline + 1));
  EXPECT_TRUE(over->run());
  flock::log_block* blk = over->head.next.load();
  ASSERT_NE(blk, nullptr);
  EXPECT_EQ(flock::pool_outstanding<flock::log_block>(), blocks0 + 1);
  std::thread([over] { EXPECT_TRUE(over->run()); }).join();
  EXPECT_EQ(over->head.next.load(), blk);
  EXPECT_EQ(flock::pool_outstanding<flock::log_block>(), blocks0 + 1);
  for (int i = 0; i <= kInline; i++) EXPECT_EQ(seen[1][i], seen[0][i]) << i;
  flock::recycle(over);  // frees the overflow block too
  EXPECT_EQ(flock::pool_outstanding<flock::log_block>(), blocks0);
}

// Slots store payload + 1 with 0 as empty: the payloads next to the
// encoding's edges must be adopted unchanged on replay.
TEST(Log, BoundaryPayloadsRoundTrip) {
  const uint64_t packed_max = flock::pack_tagged(0xFFFE, flock::kValMask);
  const uint64_t payloads[] = {
      0,
      static_cast<uint64_t>(false),
      reinterpret_cast<uint64_t>(static_cast<int*>(nullptr)),
      uint64_t{1} << 63,
      packed_max,
  };
  ASSERT_EQ(packed_max, ~uint64_t{0} - (uint64_t{1} << 48));
  scoped_log lg;
  for (uint64_t p : payloads) {
    auto [v, first] = flock::commit_raw(p);
    EXPECT_TRUE(first);
    EXPECT_EQ(v, p);
  }
  // Replays propose different values and must adopt the originals
  // through the pre-check. (Adoption through a failed CAS needs a run to
  // fill the slot between another run's pre-check and CAS; the
  // log.commit.pre schedule scenario in test_schedules.cpp drives it.)
  flock::tls_log() = {lg.head, 0};
  for (uint64_t p : payloads) {
    auto [v, first] = flock::commit_raw(p ^ 0x5A5A);
    EXPECT_FALSE(first);
    EXPECT_EQ(v, p);
  }
  flock::tls_log() = {lg.head, 0};
  EXPECT_EQ(flock::commit_value(1), 0u);
  EXPECT_EQ(flock::commit_raw(true).first, 0u);  // adopts `false`
}

// Many threads replay the same log concurrently; all must agree on every
// position, and exactly one thread wins each slot.
TEST(Log, ConcurrentReplayAgreement) {
  auto* head = flock::pool_new<flock::log_block>();
  constexpr int kThreads = 8;
  constexpr int kSlots = 100;
  std::atomic<int> winners[kSlots];
  for (auto& w : winners) w.store(0);
  std::vector<uint64_t> seen[kThreads];
  std::atomic<bool> go{false};

  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&, t] {
      while (!go.load()) {
      }
      flock::tls_log() = {head, 0};
      for (int i = 0; i < kSlots; i++) {
        auto [v, first] =
            flock::commit_raw(static_cast<uint64_t>(t * 1000 + i));
        if (first) winners[i].fetch_add(1);
        seen[t].push_back(v);
      }
      flock::tls_log() = {};
    });
  }
  go.store(true);
  for (auto& th : ts) th.join();

  for (int i = 0; i < kSlots; i++) {
    EXPECT_EQ(winners[i].load(), 1) << "slot " << i;
    for (int t = 1; t < kThreads; t++)
      EXPECT_EQ(seen[t][i], seen[0][i]) << "slot " << i << " thread " << t;
    // The committed value must be one actually proposed for slot i.
    EXPECT_EQ(seen[0][i] % 1000, static_cast<uint64_t>(i));
  }
  flock::log_block* b = head;
  while (b != nullptr) {
    flock::log_block* n = b->next.load();
    flock::pool_delete(b);
    b = n;
  }
}

TEST(Log, IdemNewAndRetireOutsideThunk) {
  struct obj {
    int x;
    explicit obj(int v) : x(v) {}
  };
  long long before = flock::pool_outstanding<obj>();
  obj* p = flock::allocate<obj>(5);
  EXPECT_EQ(p->x, 5);
  flock::retire(p);
  flock::epoch_manager::instance().flush();
  EXPECT_EQ(flock::pool_outstanding<obj>(), before);
}

}  // namespace
