// micro_flock — microbenchmarks for the paper's §6/§8 overhead claims:
//  * cost of a logged vs raw mutable load/store (the idempotence tax);
//  * descriptor allocation + try_lock cycle in both modes ("(1) allocating
//    and initializing a new descriptor every time a lock is acquired"),
//    single and 2-deep nested;
//  * commitValue under contention, 8 threads on one slot (every commit
//    reads its slot first, compare-and-compare-and-swap: "this rather
//    simple change made a significant improvement... sometimes a factor
//    of two or more");
//  * epoch entry, epoch retire and pool allocation.
#include <benchmark/benchmark.h>

#include <atomic>

#include "flock/flock.hpp"

namespace {

// --- mutable load/store, raw vs logged -----------------------------------

void BM_mutable_load_raw(benchmark::State& state) {
  flock::mutable_<uint64_t> m(42);
  for (auto _ : state) benchmark::DoNotOptimize(m.load());
}
BENCHMARK(BM_mutable_load_raw);

void BM_mutable_load_logged(benchmark::State& state) {
  flock::mutable_<uint64_t> m(42);
  auto* blk = flock::pool_new<flock::log_block>();
  // Reset the cursor and slot through a context pointer fetched once,
  // outside the loop: real thunks fetch the context once per operation
  // (in the lock entry), so per-iteration bench bookkeeping must not add
  // a second TLS fetch on top of the one inside load() being measured.
  auto* ctx = flock::detail::my_ctx();
  for (auto _ : state) {
    ctx->log = {blk, 0};  // fresh position: commit always CASes
    blk->entries[0].v.store(0, std::memory_order_relaxed);
    benchmark::DoNotOptimize(m.load());
  }
  ctx->log = {};
  flock::pool_delete(blk);
}
BENCHMARK(BM_mutable_load_logged);

void BM_mutable_store_raw(benchmark::State& state) {
  flock::mutable_<uint64_t> m(0);
  uint64_t i = 0;
  for (auto _ : state) m.store(i++ & 0xFFFF);
}
BENCHMARK(BM_mutable_store_raw);

void BM_mutable_store_logged(benchmark::State& state) {
  flock::mutable_<uint64_t> m(0);
  auto* blk = flock::pool_new<flock::log_block>();
  auto* ctx = flock::detail::my_ctx();  // fetched once, as in a real thunk
  uint64_t i = 0;
  for (auto _ : state) {
    ctx->log = {blk, 0};
    blk->entries[0].v.store(0, std::memory_order_relaxed);
    m.store(i++ & 0xFFFF);
  }
  ctx->log = {};
  flock::pool_delete(blk);
}
BENCHMARK(BM_mutable_store_logged);

// --- lock acquisition cycle -----------------------------------------------

void BM_trylock_cycle_lockfree(benchmark::State& state) {
  flock::set_blocking(false);
  flock::lock l;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);
  for (auto _ : state) {
    flock::with_epoch([&] {
      return flock::try_lock(l, [x] {
        x->store(x->load() + 1);
        return true;
      });
    });
  }
  flock::pool_delete(x);
  flock::epoch_manager::instance().flush();
}
BENCHMARK(BM_trylock_cycle_lockfree);

void BM_trylock_cycle_blocking(benchmark::State& state) {
  flock::set_blocking(true);
  flock::lock l;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);
  for (auto _ : state) {
    flock::with_epoch([&] {
      return flock::try_lock(l, [x] {
        x->store(x->load() + 1);
        return true;
      });
    });
  }
  flock::set_blocking(false);
  flock::pool_delete(x);
}
BENCHMARK(BM_trylock_cycle_blocking);

// The cycle's fixed cost: a lock-free acquisition whose thunk logs nothing.
void BM_trylock_empty_thunk_lockfree(benchmark::State& state) {
  flock::set_blocking(false);
  flock::lock l;
  for (auto _ : state) {
    flock::with_epoch([&] { return flock::try_lock(l, [] { return true; }); });
  }
  flock::epoch_manager::instance().flush();
}
BENCHMARK(BM_trylock_empty_thunk_lockfree);

// A 2-deep nest per iteration. In lock-free mode the inner descriptor
// waits on the owner's deferred list and is recycled with the
// outer one (lock.hpp), so neither reaches the epoch.
void nested_trylock_cycle(benchmark::State& state) {
  flock::lock outer, inner;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);
  flock::lock* in = &inner;
  for (auto _ : state) {
    flock::with_epoch([&] {
      return flock::try_lock(outer, [in, x] {
        return flock::try_lock(*in, [x] {
          x->store(x->load() + 1);
          return true;
        });
      });
    });
  }
  flock::pool_delete(x);
}

void BM_trylock_nested_lockfree(benchmark::State& state) {
  flock::set_blocking(false);
  nested_trylock_cycle(state);
  flock::epoch_manager::instance().flush();
}
BENCHMARK(BM_trylock_nested_lockfree);

void BM_trylock_nested_blocking(benchmark::State& state) {
  flock::set_blocking(true);
  nested_trylock_cycle(state);
  flock::set_blocking(false);
}
BENCHMARK(BM_trylock_nested_blocking);

void BM_descriptor_create_destroy(benchmark::State& state) {
  for (auto _ : state) {
    flock::descriptor* d = flock::create_descriptor([] { return true; });
    benchmark::DoNotOptimize(d);
    flock::recycle(d);
  }
}
BENCHMARK(BM_descriptor_create_destroy);

// --- contended commits: compare-and-compare-and-swap ----------------------

struct shared_log_fixture {
  flock::log_block* blk;
  std::atomic<int> round{0};
};
shared_log_fixture g_fix;

void BM_contended_commit(benchmark::State& state) {
  if (state.thread_index() == 0)
    g_fix.blk = flock::pool_new<flock::log_block>();
  for (auto _ : state) {
    // All threads commit to the same slot: exactly the helping-storm
    // pattern of §6.
    flock::tls_log() = {g_fix.blk, 0};
    benchmark::DoNotOptimize(flock::commit_value(state.thread_index() + 1));
  }
  flock::tls_log() = {};
  if (state.thread_index() == 0) flock::pool_delete(g_fix.blk);
}
BENCHMARK(BM_contended_commit)->Threads(8)->UseRealTime();

// --- epoch machinery -------------------------------------------------------

void BM_with_epoch(benchmark::State& state) {
  for (auto _ : state) {
    flock::with_epoch([] { return 1; });
  }
}
BENCHMARK(BM_with_epoch);

// One epoch entry that allocates a word and retires it.
void BM_epoch_retire_cycle(benchmark::State& state) {
  for (auto _ : state) {
    flock::with_epoch([] { flock::epoch_retire(flock::pool_new<uint64_t>()); });
  }
  flock::epoch_manager::instance().flush();
}
BENCHMARK(BM_epoch_retire_cycle);

void BM_pool_new_delete(benchmark::State& state) {
  struct obj {
    uint64_t a[4];
  };
  for (auto _ : state) {
    obj* p = flock::pool_new<obj>();
    benchmark::DoNotOptimize(p);
    flock::pool_delete(p);
  }
}
BENCHMARK(BM_pool_new_delete);

}  // namespace

BENCHMARK_MAIN();
