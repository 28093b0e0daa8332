// helping_test_util.hpp — deterministic forced-helping scaffold shared by
// the stats and hot-path tests, for a single lock and for nests.
//
// Stochastic contention (N threads hammering one lock) never observes a
// held lock on small machines. Instead: an owner thread acquires the lock
// and stalls *inside its own run* of the thunk — the spin is gated on
// flock::thread_id(), which is not logged state, so all runs stay
// log-identical — while a helper's run (different thread id) sails
// through and completes the critical section. The caller's try_lock is
// therefore guaranteed to find the lock held and take the help path.
#pragma once

#include <atomic>
#include <thread>

#include "flock/flock.hpp"

namespace helping_test {

enum class probe_kind { try_probe, strict_probe };

/// Runs one stalled-owner / helping-probe cycle on a fresh lock in
/// lock-free mode. On return the owner's critical section was applied
/// exactly once (counter == 1) and the calling thread attempted (and,
/// because the helper's run skips the stall, completed) a help. With
/// probe_kind::strict_probe the probe is a strict_lock, which must help
/// the stalled owner and then acquire (and run its empty thunk) itself.
inline uint64_t force_one_help(probe_kind kind = probe_kind::try_probe) {
  flock::lock l;
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);

  std::atomic<bool> owner_installed{false};
  std::atomic<bool> owner_may_finish{false};
  std::thread owner([&] {
    int owner_tid = flock::thread_id();
    flock::with_epoch([&] {
      return flock::try_lock(l, [&, x, owner_tid] {
        uint64_t v = x->load();
        owner_installed.store(true);
        while (!owner_may_finish.load() &&
               flock::thread_id() == owner_tid) {
        }
        x->store(v + 1);
        return true;
      });
    });
  });
  while (!owner_installed.load()) {
  }
  // Lock is observably held: this must take the help path. The owner's
  // stall is indefinite (until owner_may_finish), so any bounded backoff
  // budget runs out and the probe helps — completing the owner's thunk,
  // whose helper-side run skips the thread-id-gated stall.
  if (kind == probe_kind::strict_probe) {
    flock::with_epoch(
        [&] { return flock::strict_lock(l, [] { return true; }); });
  } else {
    flock::with_epoch([&] { return flock::try_lock(l, [] { return true; }); });
  }
  owner_may_finish.store(true);
  owner.join();

  uint64_t final_count = x->read_raw();
  flock::pool_delete(x);
  return final_count;
}

/// One nest of `depth` try_locks on locks[0] (outermost) .. locks[depth-1];
/// the innermost thunk increments x. The thunk of locks[stall_at] stalls,
/// on the owner's run only, once everything nested inside it has returned
/// (or, with stall_before_nest, before its nested acquisition).
struct nest_plan {
  flock::lock* locks;
  int depth;
  int stall_at;
  flock::mutable_<uint64_t>* x;
  std::atomic<bool>* stalled;
  std::atomic<bool>* may_finish;
  int owner_tid;
  bool stall_before_nest;
};

inline void stall_owner_run(const nest_plan& p) {
  p.stalled->store(true);
  while (!p.may_finish->load() && flock::thread_id() == p.owner_tid) {
  }
}

inline bool run_nest(nest_plan p, int level) {
  return flock::try_lock(p.locks[level], [p, level] {
    const bool stall_here = level == p.stall_at;
    if (stall_here && p.stall_before_nest) stall_owner_run(p);
    if (level + 1 < p.depth) {
      run_nest(p, level + 1);
    } else {
      p.x->store(p.x->load() + 1);
    }
    if (stall_here && !p.stall_before_nest) stall_owner_run(p);
    return true;
  });
}

/// Nested stalled-owner cycle: the owner runs a `depth`-deep nest (at most
/// 3) and stalls inside the thunk of lock `stall_at`, so locks 0..stall_at
/// are observably held; the calling thread then try_locks lock `probe_at`
/// (<= stall_at), which must help the descriptor installed there. With
/// `probe_nested` the probe's try_lock is itself nested inside a lock of
/// the probe's own, so the help runs inside the probe's own top-level
/// acquisition. With `stall_before_nest` the owner stalls before the
/// nested acquisition of lock `stall_at`, so the probe's replay makes that
/// acquisition first. Returns the final counter: 1 when the innermost
/// section was applied exactly once.
inline uint64_t force_nested_help(int depth, int stall_at, int probe_at,
                                  bool probe_nested = false,
                                  bool stall_before_nest = false) {
  flock::lock locks[3];
  auto* x = flock::pool_new<flock::mutable_<uint64_t>>();
  x->init(0);

  std::atomic<bool> stalled{false};
  std::atomic<bool> may_finish{false};
  std::thread owner([&] {
    nest_plan p{locks,       depth,       stall_at,          x,
                &stalled,    &may_finish, flock::thread_id(), stall_before_nest};
    flock::with_epoch([&] { return run_nest(p, 0); });
  });
  while (!stalled.load()) {
  }
  flock::lock* target = &locks[probe_at];
  auto probe = [target] {
    return flock::try_lock(*target, [] { return true; });
  };
  flock::lock probe_outer;
  flock::with_epoch([&] {
    return probe_nested ? flock::try_lock(probe_outer, probe) : probe();
  });
  may_finish.store(true);
  owner.join();

  uint64_t final_count = x->read_raw();
  flock::pool_delete(x);
  return final_count;
}

}  // namespace helping_test
