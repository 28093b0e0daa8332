// Tests for mutable_<T> (compact): atomic semantics
// outside thunks, logged semantics inside thunks, store/CAM idempotence.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "flock/flock.hpp"

namespace {

struct scoped_log {
  flock::log_block* head;
  flock::log_cursor saved;
  scoped_log() {
    head = flock::pool_new<flock::log_block>();
    saved = flock::tls_log();
    flock::tls_log() = {head, 0};
  }
  void replay() { flock::tls_log() = {head, 0}; }
  ~scoped_log() {
    flock::tls_log() = saved;
    flock::log_block* b = head;
    while (b != nullptr) {
      flock::log_block* n = b->next.load();
      flock::pool_delete(b);
      b = n;
    }
  }
};

// ---------------- compact ----------------

TEST(MutableCompact, LoadStoreOutsideThunk) {
  flock::mutable_<uint64_t> m(5);
  EXPECT_EQ(m.load(), 5u);
  m.store(9);
  EXPECT_EQ(m.load(), 9u);
  m = 11;
  EXPECT_EQ(m.load(), 11u);
}

TEST(MutableCompact, PointerAndBoolPayloads) {
  int x = 0;
  flock::mutable_<int*> mp(nullptr);
  EXPECT_EQ(mp.load(), nullptr);
  mp.store(&x);
  EXPECT_EQ(mp.load(), &x);

  flock::mutable_<bool> mb(false);
  EXPECT_FALSE(mb.load());
  mb.store(true);
  EXPECT_TRUE(mb.load());
}

TEST(MutableCompact, CamSemantics) {
  flock::mutable_<uint64_t> m(1);
  m.cam(2, 3);  // expected mismatch: no-op
  EXPECT_EQ(m.load(), 1u);
  m.cam(1, 3);
  EXPECT_EQ(m.load(), 3u);
}

TEST(MutableCompact, TagBumpsOnStore) {
  flock::mutable_<uint64_t> m(0);
  uint64_t t0 = flock::tag_of(m.read_raw_packed());
  m.store(1);
  m.store(2);
  uint64_t t2 = flock::tag_of(m.read_raw_packed());
  EXPECT_EQ(t2, t0 + 2);
}

TEST(MutableCompact, StoreIsIdempotentAcrossReplays) {
  flock::mutable_<uint64_t> m(10);
  {
    scoped_log lg;
    m.store(20);  // first run
    EXPECT_EQ(m.read_raw(), 20u);
    // Simulate interference from a *later* critical section...
    flock::log_cursor inner = flock::tls_log();
    flock::tls_log() = {};
    m.store(30);
    flock::tls_log() = inner;
    // ...then a stale replay of the original store. The tag from the log
    // no longer matches, so the replayed CAS must fail.
    lg.replay();
    m.store(20);
    EXPECT_EQ(m.read_raw(), 30u);
  }
}

TEST(MutableCompact, LoadAgreesAcrossReplays) {
  flock::mutable_<uint64_t> m(111);
  scoped_log lg;
  EXPECT_EQ(m.load(), 111u);
  flock::tls_log() = {};
  m.store(222);  // outside the thunk
  lg.replay();
  EXPECT_EQ(m.load(), 111u);  // replay must see the logged value
}

TEST(MutableCompact, CamIdempotentAcrossReplays) {
  flock::mutable_<uint64_t> m(1);
  scoped_log lg;
  m.cam(1, 2);
  EXPECT_EQ(m.read_raw(), 2u);
  // Interference: move value back to 1 (ABA on value, new tag).
  flock::log_cursor inner = flock::tls_log();
  flock::tls_log() = {};
  m.store(1);
  flock::tls_log() = inner;
  lg.replay();
  m.cam(1, 2);  // stale replay: logged tag stops it
  EXPECT_EQ(m.read_raw(), 1u);
}

TEST(MutableCompact, ConcurrentStoreReplayOnce) {
  // N threads all replay the same logged store; exactly one CAS may win,
  // so the final value reflects a single application.
  for (int round = 0; round < 50; round++) {
    flock::mutable_<uint64_t> m(0);
    auto* head = flock::pool_new<flock::log_block>();
    std::atomic<bool> go{false};
    constexpr int kThreads = 4;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; t++) {
      ts.emplace_back([&] {
        while (!go.load()) {
        }
        flock::tls_log() = {head, 0};
        m.store(m.load() + 1);  // read-modify-write in locked style
        flock::tls_log() = {};
      });
    }
    go.store(true);
    for (auto& t : ts) t.join();
    EXPECT_EQ(m.read_raw(), 1u) << "round " << round;
    flock::pool_delete(head);
  }
}

}  // namespace
