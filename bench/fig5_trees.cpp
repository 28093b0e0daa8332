// Figure 5 (panels a-h) — binary trees under a wide range of workloads:
// our leaftree in blocking and lock-free mode against the lock-free
// CAS-based baselines (Natarajan, Ellen). Bronson/Drachsler/Chromatic are
// external SetBench codebases; per DESIGN.md §5 their blocking-baseline
// role is played by the blocking-mode structures.
//
// Paper shapes to look for:
//  * a/e: scaling up to the core count, then blocking series fall off
//    under oversubscription while lock-free series keep going;
//  * b/f: updates are cheap out-of-cache (b), costly in-cache (f);
//  * c: higher alpha helps (locality) until contention bites;
//  * d/g: oversubscribed + skewed: lock-free wins big;
//  * h: small sizes oversubscribed: lock-free >> blocking.
#include <memory>

#include "harness.hpp"

int main() {
  using namespace bench;
  const uint64_t big = cfg().large_n;
  const uint64_t small = cfg().small_n;
  const int th = cfg().max_threads;
  const int ov = cfg().oversub_threads;
  std::fprintf(stderr,
               "fig5: trees (large=%llu, small=%llu, threads=%d, oversub=%d)\n",
               static_cast<unsigned long long>(big),
               static_cast<unsigned long long>(small), th, ov);
  std::printf("figure,series,x,mops\n");

  auto mk_leaftree = [] {
    return std::make_unique<flock_workload::leaftree_try>();
  };
  auto mk_nat = [] { return std::make_unique<flock_workload::natarajan>(); };
  auto mk_ellen = [] { return std::make_unique<flock_workload::ellen>(); };

  const std::vector<int> threads = thread_axis();
  const std::vector<double> updates = {0, 5, 10, 50};
  const std::vector<double> alphas = {0, 0.75, 0.9, 0.99};

  auto panel = [&](const char* figure, const std::vector<point>& points) {
    std::fprintf(stderr, "%s\n", figure);
    sweep(figure, "leaftree-bl", mk_leaftree, true, points);
    sweep(figure, "leaftree-lf", mk_leaftree, false, points);
    sweep(figure, "natarajan", mk_nat, false, points);
    sweep(figure, "ellen", mk_ellen, false, points);
  };
  // a/e: thread sweep, 50% updates, alpha .75; b/f: update sweep;
  // c: zipf sweep at full subscription; d/g: zipf sweep oversubscribed
  // (g at 5% updates); h: size sweep, oversubscribed, 5% updates.
  panel("fig5a", along(run{big, 0, 50, 0.75}, &run::threads, threads));
  panel("fig5b", along(run{big, th, 0, 0.75}, &run::update_percent, updates));
  panel("fig5c", along(run{big, th, 50, 0}, &run::alpha, alphas));
  panel("fig5d", along(run{big, ov, 50, 0}, &run::alpha, alphas));
  panel("fig5e", along(run{small, 0, 50, 0.75}, &run::threads, threads));
  panel("fig5f", along(run{small, th, 0, 0.75}, &run::update_percent, updates));
  panel("fig5g", along(run{small, ov, 5, 0}, &run::alpha, alphas));
  const std::vector<uint64_t> sizes = {1000, 10000, 100000, big, 4 * big};
  panel("fig5h", along(run{0, ov, 5, 0.75}, &run::range, sizes));
  return 0;
}
