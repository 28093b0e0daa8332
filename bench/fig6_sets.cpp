// Figure 6 — other set datatypes: arttree, leaftreap, hashtable, abtree,
// each in blocking and lock-free mode, plus srivastava_abtree
// (substituted per DESIGN.md §5 by our abtree under strict blocking
// locks, the same lock class that codebase uses).
//
// Paper shapes: lock-free ~= blocking at full subscription (overhead
// largest for the hashtable whose search time is small); lock-free wins
// up to ~2-2.5x when oversubscribed + contended (right of panel b).
#include <memory>

#include "harness.hpp"

int main() {
  using namespace bench;
  const uint64_t big = cfg().large_n;
  const int th = cfg().max_threads;
  const int ov = cfg().oversub_threads;
  std::fprintf(stderr, "fig6: sets (large=%llu, threads=%d, oversub=%d)\n",
               static_cast<unsigned long long>(big), th, ov);
  std::printf("figure,series,x,mops\n");

  auto mk_art = [] { return std::make_unique<flock_workload::arttree_try>(); };
  auto mk_treap = [] {
    return std::make_unique<flock_workload::leaftreap_try>();
  };
  auto mk_hash = [&] {
    return std::make_unique<flock_workload::hashtable_try>(
        static_cast<std::size_t>(cfg().large_n));
  };
  auto mk_ab = [] { return std::make_unique<flock_workload::abtree_try>(); };
  auto mk_ab_strict = [] {
    return std::make_unique<flock_workload::abtree_strict>();
  };

  const std::vector<double> alphas = {0, 0.75, 0.9, 0.99};

  auto panel = [&](const char* figure, const std::vector<point>& points) {
    std::fprintf(stderr, "%s\n", figure);
    sweep(figure, "arttree-bl", mk_art, true, points);
    sweep(figure, "arttree-lf", mk_art, false, points);
    sweep(figure, "leaftreap-bl", mk_treap, true, points);
    sweep(figure, "leaftreap-lf", mk_treap, false, points);
    sweep(figure, "hashtable-bl", mk_hash, true, points);
    sweep(figure, "hashtable-lf", mk_hash, false, points);
    sweep(figure, "abtree-bl", mk_ab, true, points);
    sweep(figure, "abtree-lf", mk_ab, false, points);
    sweep(figure, "srivastava_abtree(sub)", mk_ab_strict, true, points);
  };
  // a: thread sweep, 50% updates, alpha 0.75; b: zipf sweep,
  // oversubscribed.
  panel("fig6a", along(run{big, 0, 50, 0.75}, &run::threads, thread_axis()));
  panel("fig6b", along(run{big, ov, 50, 0}, &run::alpha, alphas));
  return 0;
}
