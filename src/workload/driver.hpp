// driver.hpp — the timed mixed-operation throughput driver reproducing
// the paper's §8 methodology: prefill the structure with half the keys in
// [1, r], then run T threads for a fixed wall-clock window, each drawing
// zipfian keys and performing `update%` updates (split evenly between
// inserts and deletes) and the rest lookups. Reports Mop/s.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "flock/flock.hpp"
#include "zipf.hpp"

namespace flock_workload {

struct run_config {
  int threads = 4;
  double update_percent = 50;    // fraction of ops that are updates
  double insert_fraction = 0.5;  // updates split: inserts vs deletes
  int millis = 200;              // timed window
  uint64_t seed = 12345;
};

struct run_result {
  double mops = 0;           // million operations per second
  uint64_t total_ops = 0;
  uint64_t finds = 0, inserts = 0, removes = 0;
  uint64_t successful_updates = 0;
  double seconds = 0;
};

/// Deterministic membership predicate for prefill_half: selects ~half the
/// keys, so verification code can recompute membership.
///
/// The selection hash is re-seeded (hashed twice with a salt), NOT
/// `splitmix64(k) & 1`: the hashtable's bucket index is
/// `splitmix64(k) & mask`, whose low bit is the same bit — selecting on it
/// put every prefilled key in an odd-indexed bucket, leaving half the
/// table empty and doubling measured chain lengths. Any structure that
/// hashes its keys with the same function would alias the same way, so
/// the selection must come from an independent hash.
inline bool prefill_selects(uint64_t k) {
  return (splitmix64(splitmix64(k) ^ 0x5851f42d4c957f2dULL) & 1) != 0;
}

/// Prefill with ~half the keys of [1, range] using all hardware threads
/// (the half is the deterministic subset prefill_selects(k)). Each thread
/// inserts its stripe in a seeded random order (Fisher–Yates): ascending
/// inserts would grow an unbalanced tree into a near-degenerate chain.
template <class Set>
void prefill_half(Set& set, uint64_t range, int threads = 0) {
  if (threads <= 0)
    threads = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; t++) {
    ts.emplace_back([&, t] {
      std::vector<uint64_t> keys;
      for (uint64_t k = 1 + static_cast<uint64_t>(t); k <= range;
           k += static_cast<uint64_t>(threads))
        if (prefill_selects(k)) keys.push_back(k);
      rng64 r(splitmix64(static_cast<uint64_t>(t) + 1));
      for (std::size_t i = keys.size(); i > 1; i--)
        std::swap(keys[i - 1], keys[r.next(i)]);
      for (uint64_t k : keys) set.insert(k, k);
    });
  }
  for (auto& th : ts) th.join();
}

/// Shared frame for the deterministic full-keyspace passes below: apply
/// `op(k)` to every key of [1, range], striped across `threads` threads,
/// timing the whole pass and counting applications that returned true.
template <class Op>
run_result run_keyed_pass(uint64_t range, int threads, Op&& op) {
  if (threads <= 0)
    threads = static_cast<int>(std::thread::hardware_concurrency());
  std::atomic<uint64_t> applied{0};
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; t++) {
    ts.emplace_back([&, t] {
      uint64_t mine = 0;
      for (uint64_t k = 1 + static_cast<uint64_t>(t); k <= range;
           k += static_cast<uint64_t>(threads))
        if (op(k)) mine++;
      applied.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  for (auto& th : ts) th.join();
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  run_result res;
  res.seconds = secs;
  res.total_ops = range;
  res.successful_updates = applied.load();
  res.mops = static_cast<double>(range) / secs / 1e6;
  return res;
}

/// Growth-phase workload: insert every key of [1, range] from `threads`
/// threads into a (typically much smaller-hinted) structure and time it —
/// the insert-heavy ramp a freshly deployed serving instance sees. Returns
/// the usual run_result (ops = range, all inserts).
template <class Set>
run_result run_growth(Set& set, uint64_t range, int threads = 0) {
  run_result res = run_keyed_pass(
      range, threads, [&](uint64_t k) { return set.insert(k, k); });
  res.inserts = range;
  return res;
}

/// Drain-phase workload: remove every key of [1, range] from `threads`
/// threads — the delete-heavy decommission a store sees after a tenant
/// departs, and the deterministic way to push occupancy below the shrink
/// threshold. successful_updates counts removals that found their key.
template <class Set>
run_result run_drain(Set& set, uint64_t range, int threads = 0) {
  run_result res = run_keyed_pass(range, threads,
                                  [&](uint64_t k) { return set.remove(k); });
  res.removes = range;
  return res;
}

/// Run the §8 mixed workload against any set adapter.
template <class Set>
run_result run_mixed(Set& set, const zipf_distribution& dist,
                     const run_config& cfg) {
  struct alignas(64) counters {
    uint64_t ops = 0, finds = 0, ins = 0, rem = 0, upd_ok = 0;
  };
  std::vector<counters> per_thread(static_cast<size_t>(cfg.threads));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};

  auto worker = [&](int tid) {
    rng64 rng(cfg.seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(tid) + 1);
    counters& c = per_thread[static_cast<size_t>(tid)];
    const uint64_t upd_threshold =
        static_cast<uint64_t>(cfg.update_percent * 0.01 * 4294967296.0);
    // Insert-vs-delete decided on bits [32,62] of the same draw — disjoint
    // from the update decision's low 32 bits, so the two stay independent.
    const uint64_t ins_threshold =
        static_cast<uint64_t>(cfg.insert_fraction * 2147483648.0);
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) {
    }
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 64; i++) {
        uint64_t k = dist.sample(rng);
        uint64_t r = rng.next();
        if ((r & 0xFFFFFFFFu) < upd_threshold) {
          if (((r >> 32) & 0x7FFFFFFFu) < ins_threshold) {
            c.ins++;
            if (set.insert(k, k)) c.upd_ok++;
          } else {
            c.rem++;
            if (set.remove(k)) c.upd_ok++;
          }
        } else {
          c.finds++;
          set.find(k);
        }
        c.ops++;
      }
    }
  };

  std::vector<std::thread> ts;
  for (int t = 0; t < cfg.threads; t++) ts.emplace_back(worker, t);
  while (ready.load() < cfg.threads) {
  }
  auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.millis));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : ts) th.join();
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

  run_result res;
  res.seconds = secs;
  for (auto& c : per_thread) {
    res.total_ops += c.ops;
    res.finds += c.finds;
    res.inserts += c.ins;
    res.removes += c.rem;
    res.successful_updates += c.upd_ok;
  }
  res.mops = static_cast<double>(res.total_ops) / secs / 1e6;
  return res;
}

/// Churn lifecycle: the three consecutive traffic shapes a long-lived
/// serving store cycles through — an insert-heavy ramp (deploy /
/// backfill), a delete-heavy drain (tenant departure / TTL sweep), then
/// steady mixed traffic. Each phase is a run_mixed window over the same
/// keyspace; the drain phase is what exercises table SHRINK: resident
/// keys decay toward the insert/delete equilibrium, and once occupancy
/// falls under 1/4 of the bucket count the store starts installing
/// half-size successors under the very same YCSB-like traffic.
struct churn_config {
  int threads = 4;
  uint64_t seed = 12345;
  int ramp_millis = 200, drain_millis = 200, steady_millis = 200;
  double ramp_update = 90, ramp_insert_fraction = 0.95;
  double drain_update = 90, drain_insert_fraction = 0.05;
  double steady_update = 50, steady_insert_fraction = 0.5;
};

struct churn_result {
  run_result ramp, drain, steady;
};

/// `on_phase(name, result)` fires between phases, while the structure
/// still holds that phase's end state — the only moment a caller can
/// observe the ramp's bucket peak or the drain's trough before the next
/// phase moves the population again.
template <class Set, class OnPhase>
churn_result run_churn(Set& set, const zipf_distribution& dist,
                       const churn_config& cfg, OnPhase&& on_phase) {
  auto phase = [&](double upd, double insf, int ms, uint64_t salt) {
    run_config rc;
    rc.threads = cfg.threads;
    rc.update_percent = upd;
    rc.insert_fraction = insf;
    rc.millis = ms;
    rc.seed = cfg.seed ^ salt;
    return run_mixed(set, dist, rc);
  };
  churn_result r;
  r.ramp = phase(cfg.ramp_update, cfg.ramp_insert_fraction, cfg.ramp_millis,
                 0x9E3779B9ULL);
  on_phase("ramp", r.ramp);
  r.drain = phase(cfg.drain_update, cfg.drain_insert_fraction,
                  cfg.drain_millis, 0x7F4A7C15ULL);
  on_phase("drain", r.drain);
  r.steady = phase(cfg.steady_update, cfg.steady_insert_fraction,
                   cfg.steady_millis, 0x85EBCA6BULL);
  on_phase("steady", r.steady);
  return r;
}

template <class Set>
churn_result run_churn(Set& set, const zipf_distribution& dist,
                       const churn_config& cfg) {
  return run_churn(set, dist, cfg, [](const char*, const run_result&) {});
}

}  // namespace flock_workload
