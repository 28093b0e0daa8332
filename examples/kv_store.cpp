// kv_store — a concurrent key-value service on the store tier: a
// flock_store::sharded_map routing the key space across N independently
// grow/shrink-resizing hashtables, driven through the full churn
// lifecycle a long-lived serving instance sees (insert-heavy ramp,
// delete-heavy drain, steady mixed traffic) with zipfian-skewed keys,
// switching lock modes at runtime.
//
//   $ ./kv_store [threads] [millis-per-phase] [shards]
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "flock/flock.hpp"
#include "store/sharded_map.hpp"
#include "workload/driver.hpp"
#include "workload/set_adapter.hpp"

namespace {

void print_phase(const char* name, const flock_workload::run_result& res,
                 const flock_workload::sharded_try& kv) {
  // Population via the O(#shards) counter read, not the O(n) scan — this
  // is a stats line, not an audit.
  std::printf(
      "  %-7s %6.2f Mop/s  (%llu ops: %llu finds, %llu ins, %llu rem; "
      "%llu applied)  ~%llu keys in %llu buckets\n",
      name, res.mops, static_cast<unsigned long long>(res.total_ops),
      static_cast<unsigned long long>(res.finds),
      static_cast<unsigned long long>(res.inserts),
      static_cast<unsigned long long>(res.removes),
      static_cast<unsigned long long>(res.successful_updates),
      static_cast<unsigned long long>(kv.approx_size()),
      static_cast<unsigned long long>(kv.underlying().bucket_count()));
}

}  // namespace

int main(int argc, char** argv) {
  int threads = argc > 1 ? std::atoi(argv[1])
                         : static_cast<int>(std::thread::hardware_concurrency());
  int millis = argc > 2 ? std::atoi(argv[2]) : 300;
  std::size_t shards =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 8;
  const uint64_t range = 100000;

  std::printf(
      "kv_store: sharded_map (%zu shards), %llu keys, %d threads, "
      "%d ms per phase\n",
      shards, static_cast<unsigned long long>(range), threads, millis);

  flock_workload::zipf_distribution dist(range, 0.9);

  for (bool blocking : {true, false}) {
    flock::set_blocking(blocking);
    // No capacity guess: every shard starts at its 64-bucket floor, grows
    // through the ramp, and shrinks back through the drain.
    flock_workload::sharded_try kv(shards);
    flock_workload::prefill_half(kv, range);

    std::printf("[%s]\n", blocking ? "blocking" : "lock-free");
    flock_workload::churn_config cc;
    cc.threads = threads;
    cc.ramp_millis = cc.steady_millis = millis;
    cc.drain_millis = 2 * millis;  // the tail of a zipf drain is slow

    std::size_t peak_buckets = 0;
    flock_workload::run_churn(
        kv, dist, cc,
        [&](const char* name, const flock_workload::run_result& res) {
          print_phase(name, res, kv);
          if (peak_buckets == 0) peak_buckets = kv.underlying().bucket_count();
        });

    std::printf(
        "  lifecycle: peak %llu buckets, now %llu; %llu grows, %llu "
        "shrinks across shards; invariants=%s\n",
        static_cast<unsigned long long>(peak_buckets),
        static_cast<unsigned long long>(kv.underlying().bucket_count()),
        static_cast<unsigned long long>(kv.underlying().grow_count()),
        static_cast<unsigned long long>(kv.underlying().shrink_count()),
        kv.check_invariants() ? "ok" : "BROKEN");
  }
  flock::epoch_manager::instance().flush();
  return 0;
}
