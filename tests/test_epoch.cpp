// Tests for epoch-based reclamation: deferral, protection by announced
// epochs, adoption, nesting, and leak accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "flock/flock.hpp"

namespace {

struct tracked {
  static std::atomic<long long>& live() {
    static std::atomic<long long> n{0};
    return n;
  }
  uint64_t payload = 0xdeadbeef;
  tracked() { live().fetch_add(1); }
  ~tracked() {
    payload = 0;
    live().fetch_sub(1);
  }
};

TEST(Epoch, RetireEventuallyFrees) {
  long long before = tracked::live().load();
  for (int i = 0; i < 1000; i++) {
    tracked* t = flock::pool_new<tracked>();
    flock::epoch_retire(t);
  }
  flock::epoch_manager::instance().flush();
  EXPECT_EQ(tracked::live().load(), before);
}

TEST(Epoch, AnnouncedEpochBlocksFreeing) {
  tracked* t = flock::pool_new<tracked>();
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};

  std::thread reader([&] {
    flock::with_epoch([&] {
      pinned.store(true);
      while (!release.load()) {
      }
      // Object must still be intact: it was retired after we announced.
      EXPECT_EQ(t->payload, 0xdeadbeefu);
    });
  });

  while (!pinned.load()) {
  }
  long long live_before = tracked::live().load();
  flock::epoch_retire(t);
  // Hammer the collector: the reader's announcement must keep t alive.
  for (int i = 0; i < 1000; i++) flock::epoch_manager::instance().flush();
  EXPECT_EQ(tracked::live().load(), live_before);
  release.store(true);
  reader.join();
  flock::epoch_manager::instance().flush();
  EXPECT_EQ(tracked::live().load(), live_before - 1);
}

TEST(Epoch, WithEpochNests) {
  flock::with_epoch([&] {
    int64_t outer = flock::epoch_manager::instance().announced(flock::thread_id());
    EXPECT_GE(outer, 0);
    flock::with_epoch([&] {
      EXPECT_EQ(flock::epoch_manager::instance().announced(flock::thread_id()),
                outer);
    });
    EXPECT_EQ(flock::epoch_manager::instance().announced(flock::thread_id()),
              outer);
  });
  EXPECT_EQ(flock::epoch_manager::instance().announced(flock::thread_id()), -1);
}

TEST(Epoch, AdoptLowersAndRestores) {
  flock::with_epoch([&] {
    auto& em = flock::epoch_manager::instance();
    int me = flock::thread_id();
    int64_t mine = em.announced(me);
    int64_t prev = em.adopt(mine > 0 ? mine - 1 : 0);
    EXPECT_EQ(prev, mine);
    EXPECT_LE(em.announced(me), mine);
    em.restore(prev);
    EXPECT_EQ(em.announced(me), mine);
    // Adopting a larger epoch must not raise the announcement.
    int64_t prev2 = em.adopt(mine + 100);
    EXPECT_EQ(em.announced(me), mine);
    em.restore(prev2);
  });
}

TEST(Epoch, EpochAdvancesUnderQuiescence) {
  auto& em = flock::epoch_manager::instance();
  int64_t e0 = em.current_epoch();
  for (int i = 0; i < 5; i++) em.flush();
  EXPECT_GT(em.current_epoch(), e0);
}

TEST(Epoch, ConcurrentRetireStress) {
  constexpr int kThreads = 8;
  constexpr int kOps = 20000;
  long long before = tracked::live().load();
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&] {
      for (int i = 0; i < kOps; i++) {
        flock::with_epoch([&] {
          tracked* obj = flock::pool_new<tracked>();
          flock::epoch_retire(obj);
        });
      }
    });
  }
  for (auto& t : ts) t.join();
  // Drain retire lists from each participating thread id by recycling ids:
  // flush from this thread repeatedly; other lists drain lazily, so only
  // assert an upper bound here and exact balance after flush cycles.
  for (int i = 0; i < 10; i++) flock::epoch_manager::instance().flush();
  EXPECT_LE(tracked::live().load() - before,
            static_cast<long long>(kThreads) * 64 * 2);
}

// A thread whose LAST operation was a read and that then goes idle
// without exiting must not pin reclamation: its epoch region retracted
// the announcement on exit, so retires churned by another thread drain
// with NO flush() (flush requires quiescence and is no safety valve for a
// live-but-idle thread).
TEST(Epoch, IdleReaderDoesNotPinReclamation) {
  std::atomic<bool> armed{false};
  std::atomic<bool> release{false};
  // Park a thread right after a read: owner alive but idle, the
  // pool-thread shape.
  std::thread idle_reader([&] {
    flock::with_epoch([] {});
    armed.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!armed.load()) std::this_thread::yield();

  long long before = tracked::live().load();
  // Churn enough retires through THIS thread to seal many batches: each
  // seal whose cheap drain leaves a backlog scans and advances the epoch.
  constexpr int kChurn = 64 * 40;
  for (int i = 0; i < kChurn; i++) {
    tracked* t = flock::pool_new<tracked>();
    flock::epoch_retire(t);
  }
  // An idle announcement would pin every batch stamped at or after its
  // epoch: live-before would stay ~kChurn. All but the newest few batches
  // (open + freshly sealed, not yet past the bound) must have drained.
  EXPECT_LE(tracked::live().load() - before, 64 * 4)
      << "idle reader pinned reclamation";

  release.store(true);
  idle_reader.join();
  flock::epoch_manager::instance().flush();
  EXPECT_EQ(tracked::live().load(), before);
}

// A reader INSIDE an epoch region keeps what it can reach alive: an
// object retired after the reader announced, and everything retired
// after it, survives arbitrary retire churn from another thread.
TEST(Epoch, InRegionReaderSurvivesRetireChurn) {
  tracked* t = flock::pool_new<tracked>();
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};

  std::thread reader([&] {
    flock::with_epoch([&] {  // held open across the churn
      pinned.store(true);
      while (!release.load()) std::this_thread::yield();
      // Must still be intact: retired after our announcement.
      EXPECT_EQ(t->payload, 0xdeadbeefu);
    });
  });
  while (!pinned.load()) std::this_thread::yield();

  long long live_before = tracked::live().load();
  flock::epoch_retire(t);
  // Heavy churn drives seal_and_reclaim's scan-and-advance path over and
  // over; the reader's announcement must hold t (and everything retired
  // after it) alive throughout.
  for (int i = 0; i < 64 * 20; i++) {
    tracked* x = flock::pool_new<tracked>();
    flock::epoch_retire(x);
  }
  EXPECT_GE(tracked::live().load(), live_before);
  release.store(true);
  reader.join();
  flock::epoch_manager::instance().flush();
  EXPECT_EQ(tracked::live().load(), live_before - 1);
}

// Back-to-back read regions (announce, read, quiesce, announce, ...) on
// one thread: every value read inside a region stays intact while
// another thread swaps and retires the object and churns the collector.
TEST(Epoch, BackToBackReadRegionsSurviveRetireChurn) {
  std::atomic<tracked*> shared{flock::pool_new<tracked>()};
  std::atomic<bool> stop{false};
  std::atomic<long long> reads{0};

  std::thread reader([&] {
    while (!stop.load()) {
      flock::with_epoch([&] {
        tracked* t = shared.load(std::memory_order_acquire);
        ASSERT_EQ(t->payload, 0xdeadbeefu);
        reads.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  std::thread writer([&] {
    for (int i = 0; i < 20000 && !stop.load(); i++) {
      flock::with_epoch([&] {
        tracked* fresh = flock::pool_new<tracked>();
        tracked* old = shared.exchange(fresh, std::memory_order_acq_rel);
        flock::epoch_retire(old);
      });
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  reader.join();
  writer.join();
  EXPECT_GT(reads.load(), 0);
  flock::epoch_retire(shared.load());
  flock::epoch_manager::instance().flush();
}

// Readers continuously dereference objects while writers retire them; any
// premature free turns payload to 0 and the reader would observe it.
TEST(Epoch, ReadersNeverSeeFreedMemory) {
  constexpr int kWriters = 2, kReaders = 4;
  std::atomic<tracked*> shared{flock::pool_new<tracked>()};
  std::atomic<bool> stop{false};
  std::atomic<long long> reads{0};

  std::vector<std::thread> ts;
  for (int r = 0; r < kReaders; r++) {
    ts.emplace_back([&] {
      while (!stop.load()) {
        flock::with_epoch([&] {
          tracked* t = shared.load(std::memory_order_acquire);
          ASSERT_EQ(t->payload, 0xdeadbeefu);
          reads.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (int w = 0; w < kWriters; w++) {
    ts.emplace_back([&] {
      for (int i = 0; i < 20000 && !stop.load(); i++) {
        flock::with_epoch([&] {
          tracked* fresh = flock::pool_new<tracked>();
          tracked* old = shared.exchange(fresh, std::memory_order_acq_rel);
          flock::epoch_retire(old);
        });
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& t : ts) t.join();
  EXPECT_GT(reads.load(), 0);
  flock::epoch_retire(shared.load());
  flock::epoch_manager::instance().flush();
}

}  // namespace
