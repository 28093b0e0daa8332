// Property tests for Definition 1 (idempotence): a thunk run by many
// interleaved processes must appear to run exactly once. We drive
// descriptors directly (no locks) so the tests isolate Algorithm 2. The
// Replay tests check the replay oracle (flock/descriptor.hpp) that every
// test build carries: a thunk whose runs diverge aborts the process.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "flock/flock.hpp"

namespace {

using flock::descriptor;

// Build a descriptor for f at top level (outside any thunk the commit
// passes through, handing back a private descriptor).
template <class F>
descriptor* make_descr(F&& f) {
  EXPECT_FALSE(flock::in_thunk());
  return flock::create_descriptor(std::forward<F>(f));
}

void destroy_descr(descriptor* d) { flock::recycle(d); }

// Run the descriptor concurrently from kThreads threads, return results.
template <class Check>
void run_concurrently(descriptor* d, int threads, Check check) {
  std::atomic<bool> go{false};
  std::vector<std::thread> ts;
  // NB: vector<int>, not vector<bool> — adjacent bool bits would be a
  // data race when written from different threads.
  std::vector<int> results(threads);
  for (int t = 0; t < threads; t++) {
    ts.emplace_back([&, t] {
      while (!go.load()) {
      }
      results[t] = d->run();
    });
  }
  go.store(true);
  for (auto& t : ts) t.join();
  for (int t = 1; t < threads; t++)
    EXPECT_EQ(results[t], results[0]) << "runs disagree on return value";
  check(results[0]);
}

TEST(Idempotence, CounterIncrementsOnce) {
  for (int round = 0; round < 200; round++) {
    auto* counter = flock::pool_new<flock::mutable_<uint64_t>>();
    counter->init(0);
    descriptor* d = make_descr([counter] {
      counter->store(counter->load() + 1);
      return true;
    });
    run_concurrently(d, 4, [&](bool r) { EXPECT_TRUE(r); });
    EXPECT_EQ(counter->read_raw(), 1u) << "round " << round;
    destroy_descr(d);
    flock::pool_delete(counter);
  }
}

TEST(Idempotence, MultiStepCounterChain) {
  // Several dependent steps: all runs must agree at every step.
  for (int round = 0; round < 100; round++) {
    auto* a = flock::pool_new<flock::mutable_<uint64_t>>();
    auto* b = flock::pool_new<flock::mutable_<uint64_t>>();
    a->init(1);
    b->init(10);
    descriptor* d = make_descr([a, b] {
      uint64_t va = a->load();
      a->store(va + 1);
      uint64_t vb = b->load();
      b->store(vb + va);  // depends on logged va
      return true;
    });
    run_concurrently(d, 4, [](bool) {});
    EXPECT_EQ(a->read_raw(), 2u);
    EXPECT_EQ(b->read_raw(), 11u);
    destroy_descr(d);
    flock::pool_delete(a);
    flock::pool_delete(b);
  }
}

TEST(Idempotence, AllocateExactlyOnce) {
  struct node {
    uint64_t v;
    explicit node(uint64_t x) : v(x) {}
  };
  for (int round = 0; round < 100; round++) {
    auto* slot = flock::pool_new<flock::mutable_<node*>>();
    slot->init(nullptr);
    long long before = flock::pool_outstanding<node>();
    descriptor* d = make_descr([slot] {
      node* n = flock::allocate<node>(42);
      slot->store(n);
      return true;
    });
    run_concurrently(d, 4, [](bool) {});
    // Exactly one node survives (losers freed their copies).
    EXPECT_EQ(flock::pool_outstanding<node>(), before + 1);
    EXPECT_EQ(slot->read_raw()->v, 42u);
    flock::pool_delete(slot->read_raw());
    flock::pool_delete(slot);
    destroy_descr(d);
  }
}

TEST(Idempotence, RetireExactlyOnce) {
  struct node {
    uint64_t v = 7;
  };
  for (int round = 0; round < 100; round++) {
    node* n = flock::pool_new<node>();
    long long before = flock::pool_outstanding<node>();
    descriptor* d = make_descr([n] {
      flock::retire(n);
      return true;
    });
    std::vector<std::thread> ts;
    std::atomic<bool> go{false};
    for (int t = 0; t < 4; t++) {
      ts.emplace_back([&] {
        while (!go.load()) {
        }
        flock::with_epoch([&] { d->run(); });
      });
    }
    go.store(true);
    for (auto& t : ts) t.join();
    flock::epoch_manager::instance().flush();
    // The object was retired exactly once: net -1, not -4.
    EXPECT_EQ(flock::pool_outstanding<node>(), before - 1);
    destroy_descr(d);
  }
}

TEST(Idempotence, BranchesStaySynchronized) {
  // The branch taken depends on a logged load; all runs must take the
  // same branch even if memory changes between runs.
  for (int round = 0; round < 100; round++) {
    auto* flag = flock::pool_new<flock::mutable_<bool>>();
    auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
    flag->init(false);
    x->init(0);
    descriptor* d = make_descr([flag, x] {
      if (flag->load()) {
        x->store(x->load() + 100);
        return true;
      }
      x->store(x->load() + 1);
      return false;
    });
    // First run executes alone; then flip the flag; then replay from many
    // threads — replays must still take the "false" branch.
    bool r1 = d->run();
    EXPECT_FALSE(r1);
    flag->store(true);
    run_concurrently(d, 4, [](bool r) { EXPECT_FALSE(r); });
    EXPECT_EQ(x->read_raw(), 1u);
    destroy_descr(d);
    flock::pool_delete(flag);
    flock::pool_delete(x);
  }
}

TEST(Idempotence, LongThunkCrossesLogBlocks) {
  auto* sum = flock::pool_new<flock::mutable_<uint64_t>>();
  sum->init(0);
  const int steps = flock::kLogBlockEntries * 5 + 3;
  descriptor* d = make_descr([sum, steps] {
    for (int i = 0; i < steps; i++) sum->store(sum->load() + 1);
    return true;
  });
  run_concurrently(d, 8, [](bool) {});
  EXPECT_EQ(sum->read_raw(), static_cast<uint64_t>(steps));
  destroy_descr(d);
  flock::pool_delete(sum);
}

TEST(Idempotence, WriteOnceInThunk) {
  for (int round = 0; round < 100; round++) {
    auto* w = flock::pool_new<flock::write_once<bool>>();
    auto* observed = flock::pool_new<flock::mutable_<uint64_t>>();
    w->init(false);
    observed->init(0);
    descriptor* d = make_descr([w, observed] {
      if (!w->load()) {
        w->store(true);
        observed->store(observed->load() + 1);
      }
      return true;
    });
    run_concurrently(d, 4, [](bool) {});
    EXPECT_TRUE(w->read_raw());
    EXPECT_EQ(observed->read_raw(), 1u);
    destroy_descr(d);
    flock::pool_delete(w);
    flock::pool_delete(observed);
  }
}

TEST(Idempotence, UserCommitValueSynchronizesNondeterminism) {
  // Paper §3.2: commitValue can commit any nondeterministic result.
  for (int round = 0; round < 50; round++) {
    auto* out = flock::pool_new<flock::mutable_<uint64_t>>();
    out->init(0);
    descriptor* d = make_descr([out] {
      uint64_t r = flock::commit_value(
          static_cast<uint64_t>(flock::thread_id()) + 1);
      out->store(out->load() + r);
      return true;
    });
    run_concurrently(d, 4, [](bool) {});
    // Whatever thread's nondeterministic value won, it was added once.
    uint64_t v = out->read_raw();
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, static_cast<uint64_t>(flock::kMaxThreads) + 1);
    destroy_descr(d);
    flock::pool_delete(out);
  }
}

TEST(Idempotence, DoneFlagVisibleAfterFirstFinish) {
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);
  descriptor* d = make_descr([x] {
    x->store(x->load() + 1);
    return true;
  });
  d->run();
  d->done.store(true, std::memory_order_release);
  // A run after completion must still be harmless.
  EXPECT_TRUE(d->run());
  EXPECT_EQ(x->read_raw(), 1u);
  destroy_descr(d);
  flock::pool_delete(x);
}

// A thunk body that branches on an unlogged read of a word it writes: the
// first run stores, and every later run reads the stored value, skips the
// store and so ends its log earlier.
bool store_once_raw(flock::mutable_<uint64_t>* x) {
  if (x->read_raw() == 0) x->store(1);
  return true;
}

void run_divergent_top_level() {
  flock::lock l;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);
  flock::with_epoch([&] {
    return flock::try_lock(l, [x] { return store_once_raw(x); });
  });
}

// The outer thunk logs the nested acquisition and does not diverge
// itself; the owner replay adopts the nested descriptor and replays the
// inner thunk, which does.
void run_divergent_nested() {
  flock::lock outer;
  flock::lock inner;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);
  flock::lock* ip = &inner;
  flock::with_epoch([&] {
    return flock::try_lock(outer, [ip, x] {
      return flock::try_lock(*ip, [x] { return store_once_raw(x); });
    });
  });
}

TEST(Replay, DivergentTopLevelThunkAborts) {
  flock::set_blocking(false);
  EXPECT_DEATH(run_divergent_top_level(), "replay diverged");
}

TEST(Replay, DivergentNestedThunkAborts) {
  flock::set_blocking(false);
  EXPECT_DEATH(run_divergent_nested(), "replay diverged");
}

}  // namespace
