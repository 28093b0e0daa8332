// Figure 4 — try lock vs strict lock on leaftree: 100K keys, all
// threads, 50% updates, zipf alpha in {0, 0.75, 0.9, 0.99}, four series:
// {try, strict} x {blocking, lock-free}. The paper's shape: tryLock beats
// strictLock, and the gap widens with contention (higher alpha).
#include <memory>

#include "harness.hpp"

int main() {
  using namespace bench;
  std::fprintf(stderr, "fig4: leaftree try vs strict (keys=%llu, threads=%d, 50%% upd)\n",
               static_cast<unsigned long long>(cfg().small_n),
               cfg().max_threads);
  std::printf("figure,series,zipf_alpha,mops\n");
  const std::vector<double> alphas = {0, 0.75, 0.9, 0.99};

  auto mk_try = [] { return std::make_unique<flock_workload::leaftree_try>(); };
  auto mk_strict = [] {
    return std::make_unique<flock_workload::leaftree_strict>();
  };

  auto panel = [&](const char* figure, uint64_t range, int threads) {
    const auto points = along(run{range, threads, 50, 0}, &run::alpha, alphas);
    sweep(figure, "leaftree-trylock-bl", mk_try, /*blocking=*/true, points);
    sweep(figure, "leaftree-trylock-lf", mk_try, /*blocking=*/false, points);
    sweep(figure, "leaftree-strictlock-bl", mk_strict, true, points);
    sweep(figure, "leaftree-strictlock-lf", mk_strict, false, points);
  };
  panel("fig4", cfg().small_n, cfg().max_threads);

  // Second panel at 1/10 the keys and oversubscribed threads: this
  // machine has ~6x fewer hardware threads than the paper's, so lock
  // contention at 100K keys is proportionally lower; the hot panel
  // restores the paper's contention regime (where strict locks collapse).
  panel("fig4hot", cfg().small_n / 10, cfg().oversub_threads);
  return 0;
}
