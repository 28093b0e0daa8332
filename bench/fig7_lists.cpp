// Figure 7 — singly and doubly linked lists: our lazylist and dlist
// (blocking + lock-free) vs Harris's lock-free list and the optimized
// Harris list whose finds do not help.
//
// Paper shapes: harris_list_opt fastest (~16% over lazylist-lf);
// dlist costs ~13% over lazylist (back pointers); lock-free versions of
// dlist/lazylist can beat blocking even WITHOUT oversubscription on
// small lists (left of panel a).
#include <memory>

#include "harness.hpp"

int main() {
  using namespace bench;
  const int th = cfg().max_threads;
  std::fprintf(stderr, "fig7: lists (threads=%d)\n", th);
  std::printf("figure,series,x,mops\n");

  auto mk_lazy = [] { return std::make_unique<flock_workload::lazylist_try>(); };
  auto mk_dlist = [] { return std::make_unique<flock_workload::dlist_try>(); };
  auto mk_harris = [] { return std::make_unique<flock_workload::harris>(); };
  auto mk_harris_opt = [] {
    return std::make_unique<flock_workload::harris_opt>();
  };

  auto panel = [&](const char* figure, const std::vector<point>& points) {
    std::fprintf(stderr, "%s\n", figure);
    sweep(figure, "harris_list", mk_harris, false, points);
    sweep(figure, "harris_list_opt", mk_harris_opt, false, points);
    sweep(figure, "lazylist-bl", mk_lazy, true, points);
    sweep(figure, "lazylist-lf", mk_lazy, false, points);
    sweep(figure, "dlist-bl", mk_dlist, true, points);
    sweep(figure, "dlist-lf", mk_dlist, false, points);
  };
  // a: size sweep at full subscription, 5% updates, alpha .75;
  // b: thread sweep on a 100-key list.
  const std::vector<uint64_t> sizes = {100, 400, 1600, 6400};
  panel("fig7a", along(run{0, th, 5, 0.75}, &run::range, sizes));
  panel("fig7b", along(run{100, 0, 5, 0.75}, &run::threads, thread_axis()));
  return 0;
}
