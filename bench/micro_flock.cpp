// micro_flock — microbenchmarks for the paper's §6/§8 overhead claims:
//  * cost of a logged vs raw mutable load/store (the idempotence tax);
//  * descriptor allocation + try_lock cycle in both modes ("(1) allocating
//    and initializing a new descriptor every time a lock is acquired"),
//    single and 2-deep nested;
//  * commitValue under contention, 8 threads on one slot (every commit
//    reads its slot first, compare-and-compare-and-swap: "this rather
//    simple change made a significant improvement... sometimes a factor
//    of two or more");
//  * log entries per successful dlist insert/remove ("A successful
//    insert commits about 5 entries to the log").
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>

#include "ds/dlist.hpp"
#include "ds/hashtable.hpp"
#include "flock/flock.hpp"
#include "harness.hpp"
#include "store/sharded_map.hpp"
#include "workload/driver.hpp"
#include "workload/zipf.hpp"

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

// A 2-deep nest per iteration. In lock-free mode the inner descriptor
// waits on the owner's deferred list and goes back to the pool with the
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
    flock::pool_delete(d);
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

// --- JSON throughput series (BENCH_micro.json) -----------------------------
//
// Timed loops independent of the google-benchmark harness so the numbers
// are directly comparable across PRs: single-thread uncontended try_lock
// cycles in Mops for both modes, plus raw/logged mutable ops.

template <class Op>
double mops_of(Op&& op, long iters) {
  auto t0 = std::chrono::steady_clock::now();
  for (long i = 0; i < iters; i++) op();
  auto t1 = std::chrono::steady_clock::now();
  double secs = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(iters) / secs / 1e6;
}

void emit_json_series() {
  const long iters = bench::env_long("FLOCK_MICRO_ITERS", 2000000);
  bench::json_reporter rep;

  {
    flock::set_blocking(false);
    flock::lock l;
    auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
    x->init(0);
    auto cycle = [&] {
      flock::with_epoch([&] {
        return flock::try_lock(l, [x] {
          x->store(x->load() + 1);
          return true;
        });
      });
    };
    mops_of(cycle, iters / 10);  // warmup
    rep.add("trylock_lockfree_uncontended", mops_of(cycle, iters));
    flock::pool_delete(x);
    flock::epoch_manager::instance().flush();
  }
  {
    flock::mode_guard mode(true);
    flock::lock l;
    auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
    x->init(0);
    auto cycle = [&] {
      flock::with_epoch([&] {
        return flock::try_lock(l, [x] {
          x->store(x->load() + 1);
          return true;
        });
      });
    };
    mops_of(cycle, iters / 10);
    rep.add("trylock_blocking_uncontended", mops_of(cycle, iters));
    flock::pool_delete(x);
  }
  {
    flock::set_blocking(false);
    flock::lock l;
    auto cycle = [&] {
      flock::with_epoch(
          [&] { return flock::try_lock(l, [] { return true; }); });
    };
    mops_of(cycle, iters / 10);
    rep.add("trylock_lockfree_empty_thunk", mops_of(cycle, iters));
    flock::epoch_manager::instance().flush();
  }
  {
    flock::mutable_<uint64_t> m(42);
    rep.add("mutable_load_raw",
            mops_of([&] { benchmark::DoNotOptimize(m.load()); }, iters));
    auto* blk = flock::pool_new<flock::log_block>();
    // Context fetched once outside the loop (see BM_mutable_load_logged):
    // the measured my_ctx() is the one inside load(), as in a real thunk.
    auto* ctx = flock::detail::my_ctx();
    rep.add("mutable_load_logged", mops_of(
                                       [&] {
                                         ctx->log = {blk, 0};
                                         blk->entries[0].v.store(
                                             0, std::memory_order_relaxed);
                                         benchmark::DoNotOptimize(m.load());
                                       },
                                       iters));
    ctx->log = {};
    flock::pool_delete(blk);
  }
  {
    struct obj {
      uint64_t a[4];
    };
    rep.add("pool_new_delete", mops_of(
                                   [&] {
                                     obj* p = flock::pool_new<obj>();
                                     benchmark::DoNotOptimize(p);
                                     flock::pool_delete(p);
                                   },
                                   iters));
  }
  {
    rep.add("epoch_retire_cycle", mops_of(
                                      [&] {
                                        flock::with_epoch([&] {
                                          auto* p = flock::pool_new<uint64_t>();
                                          flock::epoch_retire(p);
                                        });
                                      },
                                      iters));
    flock::epoch_manager::instance().flush();
  }
  {
    // Incremental-resize scenario: grow a 64-bucket-hinted hashtable
    // through a 1M-key insert ramp, then compare mixed-workload
    // throughput on the grown table against a correctly pre-sized one
    // holding the same keys (the resize tax the serving path pays).
    flock::set_blocking(false);
    const uint64_t range =
        static_cast<uint64_t>(bench::env_long("FLOCK_GROW_KEYS", 1000000));
    const int threads =
        static_cast<int>(bench::env_long("FLOCK_GROW_THREADS", 4));

    flock_ds::hashtable<uint64_t, uint64_t, false> grown(64);
    auto g = flock_workload::run_growth(grown, range, threads);
    rep.add("ht_grow_insert_mops", g.mops);
    rep.add("ht_grow_invariants_ok", grown.check_invariants() ? 1.0 : 0.0);
    rep.add("ht_grow_final_buckets",
            static_cast<double>(grown.bucket_count()));

    flock_ds::hashtable<uint64_t, uint64_t, false> presized(range);
    auto p = flock_workload::run_growth(presized, range, threads);
    rep.add("ht_presized_insert_mops", p.mops);

    flock_workload::zipf_distribution dist(range, 0.75);
    flock_workload::run_config cfg;
    cfg.threads = threads;
    cfg.update_percent = 20;
    cfg.millis = 300;
    auto mg = flock_workload::run_mixed(grown, dist, cfg);
    auto mp = flock_workload::run_mixed(presized, dist, cfg);
    rep.add("ht_mixed_grown_mops", mg.mops);
    rep.add("ht_mixed_presized_mops", mp.mops);
    rep.add("ht_mixed_grown_over_presized",
            mp.mops > 0 ? mg.mops / mp.mops : 0.0);
    flock::epoch_manager::instance().flush();
  }
  {
    // Store-tier churn scenario: the full ramp -> drain -> settle
    // lifecycle on the sharded store (1 shard vs 8), ending with the
    // steady mixed throughput of the SHRUNK store bounded against a
    // fresh correctly-presized single table holding the same small
    // population — the shrink tax on the serving path, mirror of the
    // grow scenario above.
    flock::set_blocking(false);
    const uint64_t range =
        static_cast<uint64_t>(bench::env_long("FLOCK_CHURN_KEYS", 500000));
    const int threads =
        static_cast<int>(bench::env_long("FLOCK_CHURN_THREADS", 4));
    const uint64_t small_range = range / 64;  // post-drain working set

    flock_workload::zipf_distribution dist_small(small_range, 0.75);
    flock_workload::run_config cfg;
    cfg.threads = threads;
    cfg.update_percent = 50;
    cfg.millis = 300;

    double steady_mops[2] = {0, 0};
    int si = 0;
    for (std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
      std::string p = "churn_s" + std::to_string(shards) + "_";
      flock_store::sharded_map<uint64_t, uint64_t, false> store(shards);
      auto g = flock_workload::run_growth(store, range, threads);
      rep.add(p + "ramp_insert_mops", g.mops);
      const double peak = static_cast<double>(store.bucket_count());
      rep.add(p + "peak_buckets", peak);
      auto d = flock_workload::run_drain(store, range, threads);
      rep.add(p + "drain_remove_mops", d.mops);
      // Settle window: steady mixed traffic over the small working set
      // supplies the update ticks and migration help that carry every
      // shard's shrink down to its new equilibrium.
      flock_workload::run_mixed(store, dist_small, cfg);
      const double shrunk = static_cast<double>(store.bucket_count());
      rep.add(p + "shrunk_buckets", shrunk);
      rep.add(p + "shrank_4x_ok", shrunk * 4 <= peak ? 1.0 : 0.0);
      auto m = flock_workload::run_mixed(store, dist_small, cfg);
      rep.add(p + "steady_mixed_mops", m.mops);
      rep.add(p + "invariants_ok", store.check_invariants() ? 1.0 : 0.0);
      steady_mops[si++] = m.mops;
    }

    flock_ds::hashtable<uint64_t, uint64_t, false> presized(small_range);
    flock_workload::prefill_half(presized, small_range, threads);
    auto mp = flock_workload::run_mixed(presized, dist_small, cfg);
    rep.add("churn_presized_small_mixed_mops", mp.mops);
    rep.add("churn_s1_shrunk_over_presized",
            mp.mops > 0 ? steady_mops[0] / mp.mops : 0.0);
    rep.add("churn_s8_shrunk_over_presized",
            mp.mops > 0 ? steady_mops[1] / mp.mops : 0.0);
    flock::epoch_manager::instance().flush();
  }
  rep.write();
}

// --- log entries per operation (paper §8: "about 5") -----------------------

void report_log_entries_per_op() {
  flock::set_blocking(false);
  flock_ds::dlist<uint64_t, uint64_t> d;
  // Warm: one resident element so inserts splice between sentinels/nodes.
  d.insert(500, 500);
  uint64_t before = flock::tls_commit_count();
  const int n = 1000;
  for (int i = 0; i < n; i++) d.insert(1000 + i, i);
  uint64_t after_ins = flock::tls_commit_count();
  for (int i = 0; i < n; i++) d.remove(1000 + i);
  uint64_t after_rem = flock::tls_commit_count();
  std::printf("log_entries_per_dlist_insert,%.2f\n",
              static_cast<double>(after_ins - before) / n);
  std::printf("log_entries_per_dlist_remove,%.2f\n",
              static_cast<double>(after_rem - after_ins) / n);
  flock::epoch_manager::instance().flush();
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  report_log_entries_per_op();
  emit_json_series();
  return 0;
}
