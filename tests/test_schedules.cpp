// Exhaustive + seeded schedule exploration over the protocol's hardest
// windows (chaos/scheduler.hpp + chaos/schedule_test.hpp).
//
// Where test_chaos.cpp probes hand-written fault plans, these tests
// *enumerate*: every interleaving of 2 logical threads (preemption bound
// 2, optionally composed with "thread dies at step k" kill tokens) over
//
//   * top-level try_lock install / handoff / help, in both ccas modes,
//     asserting the exact counter value and lock state on every schedule;
//   * grow publication ordering (split copies -> forwarded write_once
//     flag -> root swing -> epoch retire), including the resize-trigger
//     alloc-fail deferral composed with schedules;
//   * epoch retire vs. announce, via explicit test.* yield points.
//
// Every run records a schedule string ("0,0,1,k0,..."); the replay tests
// re-run recorded strings and assert bit-identical traces and state
// fingerprints, and the FLOCK_SCHEDULE env-var path (what CI prints on
// failure) is exercised in-process.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "chaos/schedule_test.hpp"
#include "ds/hashtable.hpp"
#include "flock/flock.hpp"
#include "store/sharded_map.hpp"

namespace {

namespace chaos = flock_chaos;
namespace sched = flock_sched;

bool test_failed() { return ::testing::Test::HasFailure(); }

class ScheduleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    chaos::reset();
    flock::set_blocking(false);
    flock::set_ccas(true);
  }
  void TearDown() override {
    chaos::reset();
    flock::set_blocking(false);
    flock::set_ccas(true);
    flock::epoch_manager::instance().flush();
  }
};

// --- schedule string codec --------------------------------------------------

TEST_F(ScheduleTest, ScheduleStringRoundTrips) {
  std::vector<sched::token> ts = {
      sched::token::run(0), sched::token::run(12), sched::token::kill(3),
      sched::token::run(1), sched::token::kill(0)};
  std::string s = sched::format_schedule(ts);
  EXPECT_EQ(s, "0,12,k3,1,k0");
  EXPECT_EQ(sched::parse_schedule(s), ts);
  EXPECT_TRUE(sched::parse_schedule("").empty());
  // Malformed tail: parse keeps the valid prefix.
  EXPECT_EQ(sched::parse_schedule("1,k").size(), 1u);
}

// --- scenario 1: top-level try_lock install/handoff/help --------------------
//
// Two threads race one try_lock incrementing a shared mutable_. Exact
// final state on EVERY schedule: the counter equals the number of
// successful try_locks, the lock ends free, and at least one acquisition
// succeeded (two top-level try_locks on a free lock cannot both fail:
// an install CAS only loses to another successful lock-word CAS).
struct trylock_state {
  struct inner {
    flock::lock l;
    flock::mutable_<uint64_t> x;
    bool r[2] = {false, false};
  };
  std::unique_ptr<inner> s;
};

sched::scenario make_trylock_scenario(bool ccas,
                                      std::shared_ptr<trylock_state> st) {
  sched::scenario sc;
  sc.name = ccas ? "trylock_handoff_ccas" : "trylock_handoff_noccas";
  sc.setup = [st, ccas] {
    flock::set_blocking(false);
    flock::set_ccas(ccas);
    st->s = std::make_unique<trylock_state::inner>();
    st->s->x.init(0);
  };
  for (int i = 0; i < 2; i++) {
    sc.threads.push_back([st, i] {
      auto* in = st->s.get();
      flock::mutable_<uint64_t>* xp = &in->x;
      in->r[i] = flock::with_epoch([&] {
        return flock::try_lock(in->l, [xp] {
          xp->store(xp->load() + 1);
          return true;
        });
      });
    });
  }
  sc.on_final = [st](const sched::run_report& rep) {
    auto* in = st->s.get();
    uint64_t wins = (in->r[0] ? 1u : 0u) + (in->r[1] ? 1u : 0u);
    EXPECT_FALSE(in->l.is_locked()) << rep.schedule_string();
    EXPECT_EQ(in->x.read_raw(), wins) << rep.schedule_string();
    EXPECT_GE(wins, 1u) << rep.schedule_string();
  };
  sc.fingerprint = [st] {
    auto* in = st->s.get();
    return std::to_string(in->x.read_raw()) + "/" + (in->r[0] ? "t" : "f") +
           (in->r[1] ? "t" : "f");
  };
  return sc;
}

sched::run_options trylock_filter() {
  sched::run_options o;
  // Lock protocol windows plus the descriptor-tag revalidation yield
  // point (mut.cas.pre) — install CAS, thunk store, unlock CAS.
  o.point_prefixes = {"lock.", "mut.cas.pre"};
  return o;
}

TEST_F(ScheduleTest, TrylockHandoffExhaustiveBothCcasModes) {
  for (bool ccas : {false, true}) {
    auto st = std::make_shared<trylock_state>();
    sched::scenario sc = make_trylock_scenario(ccas, st);
    sched::explore_options o;
    o.preemption_bound = 2;
    o.run = trylock_filter();
    o.failure_check = test_failed;
    sched::explore_stats stats = sched::explore(sc, o);
    // The acceptance criterion: full enumeration, no truncation, and the
    // DFS's prefix-determinism check clean (same choices => same enabled
    // sets, i.e. recorded schedule strings are trustworthy).
    EXPECT_FALSE(stats.truncated) << sc.name;
    EXPECT_FALSE(stats.nondeterminism) << sc.name;
    EXPECT_GE(stats.schedules_at_max_bound, 25u) << sc.name;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing schedule in " << sc.name << ": "
                    << stats.failure_schedule;
      return;
    }
  }
}

// Compose kills with schedules: "thread dies at step k of schedule S" is
// one enumerable event. A killed thread parks at its yield point; the
// survivor must finish (helping the dead holder if it raced past the
// install). After quiescence the victim is revived and its resumed
// replay must be harmless — the same exact-state assertions hold.
TEST_F(ScheduleTest, TrylockHandoffExhaustiveWithKills) {
  auto st = std::make_shared<trylock_state>();
  sched::scenario sc = make_trylock_scenario(/*ccas=*/true, st);
  sc.name = "trylock_handoff_kills";
  sched::explore_options o;
  o.preemption_bound = 1;
  o.kill_bound = 1;
  o.run = trylock_filter();
  o.failure_check = test_failed;
  sched::explore_stats stats = sched::explore(sc, o);
  EXPECT_FALSE(stats.truncated);
  EXPECT_FALSE(stats.nondeterminism);
  // Kill tokens multiply the schedule count well past the kill-free tree.
  EXPECT_GE(stats.schedules_at_max_bound, 100u);
  if (::testing::Test::HasFailure())
    ADD_FAILURE() << "first failing schedule: " << stats.failure_schedule;
}

// --- scenario 1b: nested descriptor reuse hand-off -------------------------
//
// The owner runs A{B{x++}}; the prober try_locks B with its own x++ and,
// whenever it finds B held, helps the owner's B descriptor through B's
// lock word. The owner defers that descriptor to A's reuse decision, so
// on every schedule the pair must either both be pool-reused (never
// helped) or both be epoch-retired. Exact state on every schedule, plus
// leak accounting: after a flush the descriptor pool is back at its
// pre-scenario baseline and nothing is left queued for the epoch.
struct nested_state {
  struct inner {
    flock::lock a, b;
    flock::mutable_<uint64_t> x;
    bool r[2] = {false, false};
  };
  std::unique_ptr<inner> s;
  long long pool0 = 0;
  uint64_t helps_run0 = 0;
};

sched::scenario make_nested_scenario(std::shared_ptr<nested_state> st) {
  sched::scenario sc;
  sc.name = "nested_reuse_handoff";
  sc.setup = [st] {
    flock::set_blocking(false);
    flock::set_ccas(true);
    st->s = std::make_unique<nested_state::inner>();
    st->s->x.init(0);
    flock::epoch_manager::instance().flush();
    st->pool0 = flock::pool_outstanding<flock::descriptor>();
    st->helps_run0 = flock::stats().helps_run;
  };
  sc.threads.push_back([st] {  // owner: A{B{x++}}
    auto* in = st->s.get();
    flock::lock* bp = &in->b;
    flock::mutable_<uint64_t>* xp = &in->x;
    in->r[0] = flock::with_epoch([&] {
      return flock::try_lock(in->a, [bp, xp] {
        return flock::try_lock(*bp, [xp] {
          xp->store(xp->load() + 1);
          return true;
        });
      });
    });
  });
  sc.threads.push_back([st] {  // prober: B{x++}
    auto* in = st->s.get();
    flock::mutable_<uint64_t>* xp = &in->x;
    in->r[1] = flock::with_epoch([&] {
      return flock::try_lock(in->b, [xp] {
        xp->store(xp->load() + 1);
        return true;
      });
    });
  });
  sc.on_final = [st](const sched::run_report& rep) {
    auto* in = st->s.get();
    uint64_t wins = (in->r[0] ? 1u : 0u) + (in->r[1] ? 1u : 0u);
    EXPECT_FALSE(in->a.is_locked()) << rep.schedule_string();
    EXPECT_FALSE(in->b.is_locked()) << rep.schedule_string();
    // Effects once: one increment per successful B section. Nobody else
    // takes A, so the owner fails only if the prober held B.
    EXPECT_EQ(in->x.read_raw(), wins) << rep.schedule_string();
    EXPECT_GE(wins, 1u) << rep.schedule_string();
    // A descriptor whose thunk a helper ran is never pool-reused: each
    // thread runs at most one help, and each sends at least the helped
    // descriptor through the epoch (the owner's B: the whole A/B chain).
    auto& em = flock::epoch_manager::instance();
    const uint64_t helps_run = flock::stats().helps_run - st->helps_run0;
    EXPECT_GE(em.pending(), static_cast<long long>(helps_run))
        << rep.schedule_string();
    em.flush();
    EXPECT_EQ(flock::pool_outstanding<flock::descriptor>(), st->pool0)
        << rep.schedule_string();
    EXPECT_EQ(em.pending(), 0) << rep.schedule_string();
  };
  sc.fingerprint = [st] {
    auto* in = st->s.get();
    return std::to_string(in->x.read_raw()) + "/" + (in->r[0] ? "t" : "f") +
           (in->r[1] ? "t" : "f");
  };
  return sc;
}

TEST_F(ScheduleTest, NestedReuseHandoffExhaustiveWithKills) {
  auto st = std::make_shared<nested_state>();
  sched::scenario sc = make_nested_scenario(st);
  sched::explore_options o;
  o.preemption_bound = 2;
  o.kill_bound = 1;
  o.run = trylock_filter();
  o.failure_check = test_failed;
  sched::explore_stats stats = sched::explore(sc, o);
  EXPECT_FALSE(stats.truncated);
  EXPECT_FALSE(stats.nondeterminism);
  EXPECT_GE(stats.schedules_at_max_bound, 100u);
  if (::testing::Test::HasFailure())
    ADD_FAILURE() << "first failing schedule: " << stats.failure_schedule;
}

// --- scenario 2/3: grow publication ordering --------------------------------
//
// The controller pre-installs a 64->128 grow (the 64th insert's policy
// tick) so the scheduled threads race the migration itself: unit claim,
// split-copy publication, forwarded write_once flags (the wo.publish
// yield point), and — in the completion variant — the root swing and the
// old table's epoch retire. Exact final state on every schedule: every
// key present, exact size, 128 buckets, invariants + migration audit
// clean.
struct grow_state {
  std::unique_ptr<flock_ds::hashtable<long, long>> ht;
  bool ra = false, rb = false;
  std::optional<long> peek;  // racing read of the other thread's insert
};

// Drain any still-in-flight resize from the controller, then assert the
// exact converged state. `extra` = keys the scheduled threads inserted.
void assert_grow_final(grow_state* st, const sched::run_report& rep,
                       const std::vector<long>& extra) {
  auto& ht = *st->ht;
  const long scratch = 1 << 20;
  // 64 churn pairs: each update in flight migrates its own unit plus a
  // claimed batch, so this drains any remaining migration several times
  // over (the table has 64 units); after completion the pairs are plain
  // no-net-occupancy ops that cannot re-trigger the policy (96 < 128).
  for (int i = 0; i < 64; i++) {
    ht.insert(scratch, i);
    ht.remove(scratch);
  }
  EXPECT_EQ(ht.bucket_count(), 128u) << rep.schedule_string();
  EXPECT_EQ(ht.size(), 64 + extra.size()) << rep.schedule_string();
  for (long k = 0; k < 64; k++)
    EXPECT_EQ(ht.find(k), std::optional<long>(k)) << rep.schedule_string();
  for (long k : extra)
    EXPECT_TRUE(ht.find(k).has_value()) << rep.schedule_string();
  EXPECT_FALSE(ht.find(777777).has_value());
  EXPECT_TRUE(ht.check_invariants(/*audit_migration=*/true))
      << rep.schedule_string();
  st->ht.reset();
}

sched::scenario make_grow_scenario(std::shared_ptr<grow_state> st,
                                   int setup_churn_pairs,
                                   const char* name) {
  sched::scenario sc;
  sc.name = name;
  sc.setup = [st, setup_churn_pairs] {
    flock::set_blocking(false);
    flock::set_ccas(true);
    st->ra = st->rb = false;
    st->peek.reset();
    st->ht = std::make_unique<flock_ds::hashtable<long, long>>(64);
    // 64 inserts: occupancy hits the grow threshold exactly at the 64th
    // op's policy tick (every 16th update per shard; the controller is
    // one thread, one shard), installing the successor table. Optional
    // churn pairs migrate ~9 units each, moving the run closer to the
    // root-swing/retire endgame before the scheduled threads join in.
    for (long k = 0; k < 64; k++) st->ht->insert(k, k);
    const long scratch = 1 << 20;
    for (int i = 0; i < setup_churn_pairs; i++) {
      st->ht->insert(scratch, i);
      st->ht->remove(scratch);
    }
    // The successor is installed (bucket_count reports the table being
    // grown into) but the migration itself is still pending — that is
    // what the scheduled threads race.
    ASSERT_EQ(st->ht->bucket_count(), 128u);
  };
  sc.threads.push_back([st] {
    st->ra = st->ht->insert(1000, 1);
    // A read racing the migration: key 55 was inserted before the resize
    // began, so copy-not-splice + flag-after-publication ordering must
    // keep it visible in EVERY interleaving.
    EXPECT_EQ(st->ht->find(55), std::optional<long>(55));
  });
  sc.threads.push_back([st] {
    st->rb = st->ht->insert(2000, 2);
    // Racing read of the sibling's insert: hit or miss is
    // schedule-dependent (fingerprinted), but never a wrong value.
    st->peek = st->ht->find(1000);
    if (st->peek.has_value()) {
      EXPECT_EQ(*st->peek, 1);
    }
  });
  sc.on_final = [st](const sched::run_report& rep) {
    EXPECT_TRUE(st->ra) << rep.schedule_string();
    EXPECT_TRUE(st->rb) << rep.schedule_string();
    assert_grow_final(st.get(), rep, {1000, 2000});
  };
  sc.fingerprint = [st] {
    // Taken before on_final's drain: captures schedule-dependent state
    // (how far the migration got, what the racing read saw).
    return std::to_string(st->ht->bucket_count()) + "/" +
           std::to_string(st->ht->size()) + "/" +
           (st->peek.has_value() ? std::to_string(*st->peek) : "miss");
  };
  return sc;
}

sched::run_options grow_filter() {
  sched::run_options o;
  // Migration publication windows + the write_once publication yield
  // point (forwarded flags) + root swing/retire + the resize-trigger
  // allocation. Lock/epoch/alloc internals stay unscheduled: they are
  // exhaustively covered by the trylock scenario, and pool/seal arrivals
  // depend on cross-run state.
  o.point_prefixes = {"ht.", "wo.publish"};
  return o;
}

TEST_F(ScheduleTest, GrowPublicationExhaustive) {
  auto st = std::make_shared<grow_state>();
  sched::scenario sc = make_grow_scenario(st, 0, "grow_publication");
  sched::explore_options o;
  o.preemption_bound = 2;
  o.run = grow_filter();
  o.failure_check = test_failed;
  sched::explore_stats stats = sched::explore(sc, o);
  EXPECT_FALSE(stats.truncated);
  EXPECT_FALSE(stats.nondeterminism);
  EXPECT_GE(stats.schedules_at_max_bound, 25u);
  if (::testing::Test::HasFailure())
    ADD_FAILURE() << "first failing schedule: " << stats.failure_schedule;
}

TEST_F(ScheduleTest, GrowCompletionRootSwingExhaustive) {
  auto st = std::make_shared<grow_state>();
  // 3 churn pairs in setup (~9 units migrated per op) leave only the
  // migration endgame — last units, completion recovery, root swing,
  // old-table retire — to the scheduled threads.
  sched::scenario sc = make_grow_scenario(st, 3, "grow_completion");
  sched::explore_options o;
  o.preemption_bound = 2;
  o.run = grow_filter();
  o.failure_check = test_failed;
  sched::explore_stats stats = sched::explore(sc, o);
  EXPECT_FALSE(stats.truncated);
  EXPECT_FALSE(stats.nondeterminism);
  EXPECT_GE(stats.schedules_at_max_bound, 10u);
  if (::testing::Test::HasFailure())
    ADD_FAILURE() << "first failing schedule: " << stats.failure_schedule;
}

// Alloc-fail composed with schedules: the resize trigger's allocation
// fails during setup (deferral, counted, hint re-armed), and the
// *scheduled* threads re-trigger the resize mid-schedule via their own
// policy ticks. The deferral contract must hold on every interleaving.
TEST_F(ScheduleTest, GrowAllocFailDeferralComposedWithSchedules) {
  auto st = std::make_shared<grow_state>();
  uint64_t deferrals_before = 0;
  sched::scenario sc;
  sc.name = "grow_alloc_fail";
  sc.setup = [st, &deferrals_before] {
    flock::set_blocking(false);
    flock::set_ccas(true);
    chaos::reset();
    st->ht = std::make_unique<flock_ds::hashtable<long, long>>(64);
    deferrals_before = st->ht->resize_deferrals();
    ASSERT_TRUE(chaos::arm("ht.resize.alloc", chaos::fault::alloc_fail));
    for (long k = 0; k < 64; k++) st->ht->insert(k, k);
    // The 64th insert's tick hit the armed alloc failure: deferred.
    ASSERT_EQ(st->ht->resize_deferrals(), deferrals_before + 1);
    ASSERT_EQ(st->ht->bucket_count(), 64u);
  };
  for (int t = 0; t < 2; t++) {
    sc.threads.push_back([st, t] {
      // 16 updates: enough for this thread's counter shard to tick and
      // re-attempt the deferred resize (the plan's one failure is spent,
      // so the retry allocates and the migration runs under schedule
      // control).
      for (long j = 0; j < 16; j++)
        EXPECT_TRUE(st->ht->insert(10000 + t * 100 + j, j));
    });
  }
  sc.on_final = [st](const sched::run_report& rep) {
    std::vector<long> extra;
    for (long t = 0; t < 2; t++)
      for (long j = 0; j < 16; j++) extra.push_back(10000 + t * 100 + j);
    assert_grow_final(st.get(), rep, extra);
  };
  sc.fingerprint = [st] {
    return std::to_string(st->ht->bucket_count()) + "/" +
           std::to_string(st->ht->size());
  };
  sched::explore_options o;
  // Before the re-install the workers' plain bucket ops cross no ht.*
  // yield points (they would need "lock." in the filter), so the
  // schedule space is narrow; bound 2 still explores it in milliseconds.
  o.preemption_bound = 2;
  o.run = grow_filter();
  o.failure_check = test_failed;
  sched::explore_stats stats = sched::explore(sc, o);
  EXPECT_FALSE(stats.truncated);
  EXPECT_FALSE(stats.nondeterminism);
  // The space is legitimately narrow — each worker crosses exactly one
  // pre-install yield (its own resize-trigger tick), so the enumeration
  // covers both tick orders plus the duplicate-install/hint-damping
  // races between them. 6 schedules at bound 2 as of this writing.
  EXPECT_GE(stats.schedules_at_max_bound, 5u);
  chaos::reset();
  if (::testing::Test::HasFailure())
    ADD_FAILURE() << "first failing schedule: " << stats.failure_schedule;
}

// --- scenario 4: epoch retire vs. announce ----------------------------------
//
// The reader announces, loads a shared pointer, then dereferences; the
// writer unlinks the node, retires it, and floods the retire pipeline so
// batches seal and reclamation runs. Explicit test.* yield points carve
// the exact windows; the node's destructor poisons its magic word, so a
// reclamation racing past an announced reader is caught as a wrong value
// on every schedule (and as a hard UAF under the ASan job).
struct epoch_node {
  static constexpr uint64_t kMagic = 0xfeedc0dedeadbeefULL;
  uint64_t magic = kMagic;
  ~epoch_node() { magic = 0x00dead00dead00deULL; }
};

struct epoch_state {
  std::atomic<epoch_node*> shared{nullptr};
  epoch_node* loaded = nullptr;          // reader's in-hand pointer
  std::optional<uint64_t> observed;      // reader's dereference
  bool reader_done = false;              // reader exited its epoch
};

TEST_F(ScheduleTest, EpochRetireVsAnnounceExhaustiveWithKills) {
  auto st = std::make_shared<epoch_state>();
  sched::scenario sc;
  sc.name = "epoch_retire_announce";
  sc.setup = [st] {
    flock::set_blocking(false);
    flock::set_ccas(true);
    st->loaded = nullptr;
    st->observed.reset();
    st->reader_done = false;
    st->shared.store(flock::pool_new<epoch_node>(),
                     std::memory_order_release);
  };
  sc.threads.push_back([st] {  // reader
    flock::with_epoch([&] {
      FLOCK_SCHEDPOINT("test.rd.announced");
      epoch_node* p = st->shared.load(std::memory_order_acquire);
      st->loaded = p;
      FLOCK_SCHEDPOINT("test.rd.loaded");  // pointer in hand, not deref'd
      if (p != nullptr) st->observed = p->magic;
      return true;
    });
    st->reader_done = true;
  });
  sc.threads.push_back([st] {  // writer
    epoch_node* p = st->shared.exchange(nullptr, std::memory_order_acq_rel);
    FLOCK_SCHEDPOINT("test.wr.unlinked");
    flock::epoch_retire(p);
    FLOCK_SCHEDPOINT("test.wr.retired");
    // Flood: force the open batch to seal (capacity 64) and reclamation
    // decisions to run while the reader may still be announced.
    for (int i = 0; i < 80; i++)
      flock::epoch_retire(flock::pool_new<epoch_node>());
  });
  sc.on_quiescent = [st] {
    // Quiescence: live threads done, kill victims parked. A KILLED
    // reader parked mid-epoch is still announced, so if it loaded the
    // pointer it must still be intact — dead readers block reclamation,
    // they do not unprotect it. (Once the reader has exited its epoch,
    // `loaded` is a stale pointer the writer may legally have reclaimed,
    // so the check only applies while the reader is parked inside.)
    if (!st->reader_done && st->loaded != nullptr) {
      EXPECT_EQ(st->loaded->magic, epoch_node::kMagic);
    }
  };
  sc.on_final = [st](const sched::run_report& rep) {
    // On every schedule: the reader saw the node before the unlink
    // (magic intact — epoch protection held through the writer's whole
    // retire/seal flood) or a clean null. Never the poison value.
    if (st->observed.has_value()) {
      EXPECT_EQ(*st->observed, epoch_node::kMagic) << rep.schedule_string();
    }
  };
  sc.fingerprint = [st] {
    return st->observed.has_value() ? std::to_string(*st->observed) : "null";
  };
  sched::explore_options o;
  o.preemption_bound = 2;
  o.kill_bound = 1;
  o.run.point_prefixes = {"test."};
  o.failure_check = test_failed;
  sched::explore_stats stats = sched::explore(sc, o);
  EXPECT_FALSE(stats.truncated);
  EXPECT_FALSE(stats.nondeterminism);
  EXPECT_GE(stats.schedules_at_max_bound, 20u);
  if (::testing::Test::HasFailure())
    ADD_FAILURE() << "first failing schedule: " << stats.failure_schedule;
}

// --- replay determinism -----------------------------------------------------

TEST_F(ScheduleTest, RecordedSchedulesReplayDeterministically) {
  auto st = std::make_shared<trylock_state>();
  sched::scenario sc = make_trylock_scenario(/*ccas=*/true, st);
  sched::explore_options o;
  o.preemption_bound = 2;
  o.run = trylock_filter();
  o.failure_check = test_failed;
  sched::explore_stats stats = sched::explore(sc, o);
  ASSERT_FALSE(stats.nondeterminism);
  ASSERT_GE(stats.records.size(), 25u);
  for (const auto& [schedule, fingerprint] : stats.records) {
    sched::run_report rep = sched::replay(sc, schedule, o.run);
    // Bit-identical: the replay takes the same decisions at the same
    // points (trace) and lands in the same final state (fingerprint).
    EXPECT_EQ(rep.schedule_string(), schedule);
    EXPECT_EQ(rep.fingerprint, fingerprint) << schedule;
    if (::testing::Test::HasFailure()) break;
  }
}

TEST_F(ScheduleTest, KillSchedulesReplayDeterministically) {
  auto st = std::make_shared<epoch_state>();
  // Rebuild the epoch scenario inline (scenario objects are cheap).
  sched::scenario sc;
  sc.name = "epoch_retire_announce";
  sc.setup = [st] {
    st->loaded = nullptr;
    st->observed.reset();
    st->shared.store(flock::pool_new<epoch_node>(),
                     std::memory_order_release);
  };
  sc.threads.push_back([st] {
    flock::with_epoch([&] {
      FLOCK_SCHEDPOINT("test.rd.announced");
      epoch_node* p = st->shared.load(std::memory_order_acquire);
      st->loaded = p;
      FLOCK_SCHEDPOINT("test.rd.loaded");
      if (p != nullptr) st->observed = p->magic;
      return true;
    });
  });
  sc.threads.push_back([st] {
    epoch_node* p = st->shared.exchange(nullptr, std::memory_order_acq_rel);
    FLOCK_SCHEDPOINT("test.wr.unlinked");
    flock::epoch_retire(p);
    FLOCK_SCHEDPOINT("test.wr.retired");
    for (int i = 0; i < 80; i++)
      flock::epoch_retire(flock::pool_new<epoch_node>());
  });
  sc.fingerprint = [st] {
    return st->observed.has_value() ? std::to_string(*st->observed) : "null";
  };
  sched::run_options ro;
  ro.point_prefixes = {"test."};
  // A schedule with an explicit mid-protocol kill: reader announced and
  // holding the pointer, then killed; writer does everything.
  sched::run_report rec = sched::replay(sc, "0,0,k0,1", ro);
  // The input is a PREFIX: the engine keeps recording the decisions the
  // fallback policy makes for the rest of the run (that is how a partial
  // repro string from a log becomes a complete one).
  ASSERT_EQ(rec.schedule_string().rfind("0,0,k0,1", 0), 0u)
      << rec.schedule_string();
  std::string trace = rec.trace();
  std::string fp = rec.fingerprint;
  for (int i = 0; i < 3; i++) {
    sched::run_report rep = sched::replay(sc, "0,0,k0,1", ro);
    EXPECT_EQ(rep.trace(), trace);
    EXPECT_EQ(rep.fingerprint, fp);
  }
}

// The env-var reproduction path CI relies on: FLOCK_SCHEDULE pins
// explore() to one schedule; FLOCK_SCHEDULE_SCENARIO scopes it so other
// scenarios in the binary still explore normally.
TEST_F(ScheduleTest, EnvVarReplayPinsOneSchedule) {
  auto st = std::make_shared<trylock_state>();
  sched::scenario sc = make_trylock_scenario(/*ccas=*/true, st);
  sched::explore_options o;
  o.preemption_bound = 1;
  o.run = trylock_filter();
  sched::explore_stats full = sched::explore(sc, o);
  ASSERT_GE(full.records.size(), 2u);
  const std::string pinned = full.records.back().first;

  ::setenv("FLOCK_SCHEDULE", pinned.c_str(), 1);
  ::setenv("FLOCK_SCHEDULE_SCENARIO", sc.name.c_str(), 1);
  sched::explore_stats one = sched::explore(sc, o);
  EXPECT_EQ(one.schedules, 1u);

  // A differently named scenario ignores the pin and explores fully.
  sched::scenario other = make_trylock_scenario(/*ccas=*/false, st);
  sched::explore_stats many = sched::explore(other, o);
  EXPECT_GT(many.schedules, 1u);
  ::unsetenv("FLOCK_SCHEDULE");
  ::unsetenv("FLOCK_SCHEDULE_SCENARIO");
}

// --- seeded random walks ----------------------------------------------------

TEST_F(ScheduleTest, SeededWalksAreBitIdenticallyReproducible) {
  auto st = std::make_shared<trylock_state>();
  sched::scenario sc = make_trylock_scenario(/*ccas=*/true, st);
  sched::walk_options o;
  o.run = trylock_filter();
  o.failure_check = test_failed;
  std::set<std::string> distinct;
  for (uint64_t seed = 1; seed <= 24; seed++) {
    o.kill_budget = (seed % 4 == 0) ? 1 : 0;
    sched::run_report a = sched::random_walk(sc, seed, o);
    sched::run_report b = sched::random_walk(sc, seed, o);
    EXPECT_EQ(a.schedule_string(), b.schedule_string()) << "seed " << seed;
    EXPECT_EQ(a.trace(), b.trace()) << "seed " << seed;
    EXPECT_EQ(a.fingerprint, b.fingerprint) << "seed " << seed;
    EXPECT_FALSE(a.truncated);
    distinct.insert(a.schedule_string());
    if (::testing::Test::HasFailure()) return;
  }
  // The sweep actually varies coverage across seeds.
  EXPECT_GE(distinct.size(), 4u);
}

// The fixed-seed sweep CI runs (FLOCK_CHAOS_SEED selects the seed): one
// walk over the grow scenario per seed, full assertions each walk.
TEST_F(ScheduleTest, SeededWalkSweepOverGrowScenario) {
  uint64_t base = chaos::seed_from_env();
  if (base == 0) base = 1;
  auto st = std::make_shared<grow_state>();
  sched::scenario sc = make_grow_scenario(st, 0, "grow_publication_walk");
  sched::walk_options o;
  o.depth = 4;
  o.expected_steps = 96;
  o.run = grow_filter();
  o.failure_check = test_failed;
  for (uint64_t s = base; s < base + 8; s++) {
    sched::run_report rep = sched::random_walk(sc, s, o);
    EXPECT_FALSE(rep.truncated) << "seed " << s;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "failing walk seed " << s << " schedule "
                    << rep.schedule_string();
      return;
    }
  }
}

// --- scenario: optimistic validated reads (bucket seqlock) -------------------
//
// The PR-9 read path added reader-side windows (ht.read.post_v1 /
// ht.read.pre_validate: snapshot begun / loads done but unvalidated) and
// writer-side windows (ht.ver.post_enter / ht.ver.pre_exit: entry counter
// ahead before and after the critical section). These scenarios enumerate a
// validated reader against a writer replacing the same key's payload
// (remove + re-insert — the write API's payload mutation) and against the
// migration engine's forwards, in BOTH lock modes, asserting on every
// schedule that a read returns only a linearizable value — the old
// payload, the new payload, or a miss while the key is legally absent —
// never a torn or resurrected one.
struct vread_state {
  std::unique_ptr<flock_ds::hashtable<long, long>> ht;
  std::optional<long> r1, r2;
};

std::string opt_str(const std::optional<long>& r) {
  return r.has_value() ? std::to_string(*r) : std::string("miss");
}

sched::scenario make_validated_read_scenario(bool blocking,
                                             std::shared_ptr<vread_state> st,
                                             const char* name) {
  static_assert(flock_ds::hashtable<long, long>::kSeqlockReads,
                "long/long payloads must take the seqlock fast path");
  sched::scenario sc;
  sc.name = name;
  sc.setup = [st, blocking] {
    flock::set_blocking(blocking);
    flock::set_ccas(true);
    st->r1.reset();
    st->r2.reset();
    // 8 keys in a 64-bucket table: far below the grow threshold, so the
    // only version traffic is the writer thread's.
    st->ht = std::make_unique<flock_ds::hashtable<long, long>>(64);
    for (long k = 1; k <= 8; k++) st->ht->insert(k, k * 100);
  };
  // Writer: replace key 5's payload. Between its two ops the key is
  // legally absent; each op brackets the bucket with version bumps.
  sc.threads.push_back([st] {
    EXPECT_TRUE(st->ht->remove(5));
    EXPECT_TRUE(st->ht->insert(5, 501));
  });
  // Reader: two validated reads of the contended key, then one of an
  // undisturbed sibling (same table, different bucket — never invalidated).
  sc.threads.push_back([st] {
    st->r1 = st->ht->find(5);
    st->r2 = st->ht->find(5);
    EXPECT_EQ(st->ht->find(6), std::optional<long>(600));
  });
  sc.on_final = [st](const sched::run_report& rep) {
    auto legal = [](const std::optional<long>& r) {
      return !r.has_value() || *r == 500 || *r == 501;
    };
    EXPECT_TRUE(legal(st->r1))
        << "r1=" << opt_str(st->r1) << " " << rep.schedule_string();
    EXPECT_TRUE(legal(st->r2))
        << "r2=" << opt_str(st->r2) << " " << rep.schedule_string();
    // Program-order monotonicity through remove -> insert(501): once a
    // read observed the new payload the writer is fully linearized, so a
    // later read may not travel back; once a read observed the remove,
    // the old payload may never reappear.
    if (st->r1 == std::optional<long>(501)) {
      EXPECT_EQ(st->r2, std::optional<long>(501)) << rep.schedule_string();
    }
    if (st->r1.has_value() && !st->r2.has_value()) {
      EXPECT_EQ(*st->r1, 500L) << rep.schedule_string();
    }
    if (!st->r1.has_value()) {
      EXPECT_NE(st->r2, std::optional<long>(500)) << rep.schedule_string();
    }
    // Exact final state.
    EXPECT_EQ(st->ht->find(5), std::optional<long>(501))
        << rep.schedule_string();
    EXPECT_EQ(st->ht->size(), 8u) << rep.schedule_string();
    EXPECT_TRUE(st->ht->check_invariants()) << rep.schedule_string();
    st->ht.reset();
  };
  sc.fingerprint = [st] { return opt_str(st->r1) + "/" + opt_str(st->r2); };
  return sc;
}

sched::run_options vread_filter() {
  sched::run_options o;
  // Only the new read/version windows: the lock protocol's own schedule
  // space is covered exhaustively by the trylock scenarios.
  o.point_prefixes = {"ht.read.", "ht.ver."};
  return o;
}

TEST_F(ScheduleTest, ValidatedReadVsPayloadWriteExhaustiveBothModes) {
  for (bool blocking : {false, true}) {
    auto st = std::make_shared<vread_state>();
    sched::scenario sc = make_validated_read_scenario(
        blocking, st,
        blocking ? "vread_write_blocking" : "vread_write_lockfree");
    sched::explore_options o;
    o.preemption_bound = 2;
    o.run = vread_filter();
    o.failure_check = test_failed;
    sched::explore_stats stats = sched::explore(sc, o);
    EXPECT_FALSE(stats.truncated) << sc.name;
    EXPECT_FALSE(stats.nondeterminism) << sc.name;
    EXPECT_GE(stats.schedules_at_max_bound, 25u) << sc.name;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing schedule in " << sc.name << ": "
                    << stats.failure_schedule;
      return;
    }
  }
}

// Kills composed with the read/version windows. The interesting victim is
// a writer dead at ht.ver.post_enter: the bucket's ver_enter stays ahead
// of ver_exit forever (until revival), so every fast-path read of that
// bucket must fall back to the logged walk — and still return only
// linearizable values. Reader kills check the other direction: a dead
// reader's revived replay is harmless. Assertions are identical; revival
// drains the victim before on_final, so the exact final state must also
// converge.
TEST_F(ScheduleTest, ValidatedReadStuckCounterWithKills) {
  for (bool blocking : {false, true}) {
    auto st = std::make_shared<vread_state>();
    sched::scenario sc = make_validated_read_scenario(
        blocking, st,
        blocking ? "vread_kills_blocking" : "vread_kills_lockfree");
    sched::explore_options o;
    o.preemption_bound = 1;
    o.kill_bound = 1;
    o.run = vread_filter();
    o.failure_check = test_failed;
    sched::explore_stats stats = sched::explore(sc, o);
    EXPECT_FALSE(stats.truncated) << sc.name;
    EXPECT_FALSE(stats.nondeterminism) << sc.name;
    EXPECT_GE(stats.schedules_at_max_bound, 50u) << sc.name;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing schedule in " << sc.name << ": "
                    << stats.failure_schedule;
      return;
    }
  }
}

// --- scenario: validated read vs migration forward ---------------------------
//
// A reader races the migration engine: the 64->128 grow is pre-installed
// (as in the grow scenarios) and the writer's insert migrates units,
// forwarding source buckets. The contended read targets key 55, resident
// since before the resize: the fast path must either snapshot it from a
// still-live source bucket (counters balanced, not forwarded) or detect the
// forward/bump and fall back — in EVERY interleaving of the reader's
// windows with copy publication and forwarded-flag publication, find(55)
// returns exactly 55.
struct vread_mig_state {
  std::unique_ptr<flock_ds::hashtable<long, long>> ht;
  std::optional<long> r1, r2;
};

sched::scenario make_vread_migration_scenario(
    bool blocking, std::shared_ptr<vread_mig_state> st, const char* name) {
  sched::scenario sc;
  sc.name = name;
  sc.setup = [st, blocking] {
    flock::set_blocking(blocking);
    flock::set_ccas(true);
    st->r1.reset();
    st->r2.reset();
    st->ht = std::make_unique<flock_ds::hashtable<long, long>>(64);
    for (long k = 0; k < 64; k++) st->ht->insert(k, k);
    ASSERT_EQ(st->ht->bucket_count(), 128u);  // successor installed
  };
  sc.threads.push_back([st] {
    // Drives the migration: own unit plus a claimed batch, each unit
    // bracketed by source-bucket version bumps and ending in forwarded
    // write_once flags.
    EXPECT_TRUE(st->ht->insert(1000, 1));
  });
  sc.threads.push_back([st] {
    st->r1 = st->ht->find(55);
    st->r2 = st->ht->find(55);
  });
  sc.on_final = [st](const sched::run_report& rep) {
    EXPECT_EQ(st->r1, std::optional<long>(55)) << rep.schedule_string();
    EXPECT_EQ(st->r2, std::optional<long>(55)) << rep.schedule_string();
    // Drain the in-flight migration, then exact final state (the churn
    // pairs cannot re-trigger the policy: 96 < 128).
    const long scratch = 1 << 20;
    for (int i = 0; i < 64; i++) {
      st->ht->insert(scratch, i);
      st->ht->remove(scratch);
    }
    EXPECT_EQ(st->ht->bucket_count(), 128u) << rep.schedule_string();
    EXPECT_EQ(st->ht->size(), 65u) << rep.schedule_string();
    for (long k = 0; k < 64; k++)
      EXPECT_EQ(st->ht->find(k), std::optional<long>(k))
          << rep.schedule_string();
    EXPECT_EQ(st->ht->find(1000), std::optional<long>(1));
    EXPECT_TRUE(st->ht->check_invariants(/*audit_migration=*/true))
        << rep.schedule_string();
    st->ht.reset();
  };
  sc.fingerprint = [st] {
    return std::to_string(st->ht->size()) + "/" + opt_str(st->r1) + "/" +
           opt_str(st->r2);
  };
  return sc;
}

TEST_F(ScheduleTest, ValidatedReadVsMigrationForwardExhaustiveBothModes) {
  for (bool blocking : {false, true}) {
    auto st = std::make_shared<vread_mig_state>();
    sched::scenario sc = make_vread_migration_scenario(
        blocking, st,
        blocking ? "vread_migration_blocking" : "vread_migration_lockfree");
    sched::explore_options o;
    o.preemption_bound = 1;
    sched::run_options ro;
    // Reader windows vs. the migration's publication points: version
    // brackets, split-copy publication, forwarded write_once flags.
    ro.point_prefixes = {"ht.read.", "ht.ver.", "ht.grow.", "wo.publish"};
    o.run = ro;
    o.failure_check = test_failed;
    sched::explore_stats stats = sched::explore(sc, o);
    EXPECT_FALSE(stats.truncated) << sc.name;
    EXPECT_FALSE(stats.nondeterminism) << sc.name;
    EXPECT_GE(stats.schedules_at_max_bound, 10u) << sc.name;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing schedule in " << sc.name << ": "
                    << stats.failure_schedule;
      return;
    }
  }
}

// --- scenario: store reads are monotone under a writer ----------------------
//
// The sharded_map read path routes on the hash and runs the shard table's
// seqlock snapshot walk, falling back to the logged walk when the bucket
// counters move. Three reads of one key on one thread, racing a writer's
// remove + re-insert, may only move forward through the writer's program
// order: a validated snapshot must never return a state older than one a
// previous read (fast or logged) already observed. Asserted on every
// schedule in both lock modes.
struct store_read_state {
  std::unique_ptr<flock_store::sharded_map<long, long, false>> sm;
  std::optional<long> r1, r2, r3;
};

sched::scenario make_store_read_scenario(bool blocking,
                                         std::shared_ptr<store_read_state> st,
                                         const char* name) {
  sched::scenario sc;
  sc.name = name;
  sc.setup = [st, blocking] {
    flock::set_blocking(blocking);
    flock::set_ccas(true);
    st->r1.reset();
    st->r2.reset();
    st->r3.reset();
    st->sm = std::make_unique<flock_store::sharded_map<long, long, false>>(
        /*shards=*/1, /*size_hint=*/64);
    st->sm->insert(5, 500);
    st->sm->insert(6, 600);
  };
  sc.threads.push_back([st] {
    EXPECT_TRUE(st->sm->remove(5));
    EXPECT_TRUE(st->sm->insert(5, 501));
  });
  sc.threads.push_back([st] {
    st->r1 = st->sm->find(5);
    st->r2 = st->sm->find(5);
    st->r3 = st->sm->find(5);
    EXPECT_EQ(st->sm->find(6), std::optional<long>(600));
  });
  sc.on_final = [st](const sched::run_report& rep) {
    const std::optional<long>* rs[3] = {&st->r1, &st->r2, &st->r3};
    int seen = 0;  // 0: old state legal, 1: miss seen, 2: new value seen
    for (const auto* r : rs) {
      EXPECT_TRUE(!r->has_value() || **r == 500 || **r == 501)
          << opt_str(*r) << " " << rep.schedule_string();
      // Writer program order is 500 -> miss -> 501; reads of one thread
      // may only move forward through it. A stale snapshot after an
      // earlier read saw a later state would break exactly this.
      int stage = !r->has_value() ? 1 : (**r == 501 ? 2 : 0);
      EXPECT_GE(stage, seen) << "non-monotone reads: " << opt_str(st->r1)
                             << "," << opt_str(st->r2) << ","
                             << opt_str(st->r3) << " "
                             << rep.schedule_string();
      seen = stage > seen ? stage : seen;
    }
    EXPECT_EQ(st->sm->find(5), std::optional<long>(501))
        << rep.schedule_string();
    EXPECT_EQ(st->sm->size(), 2u) << rep.schedule_string();
    EXPECT_TRUE(st->sm->check_invariants()) << rep.schedule_string();
    st->sm.reset();
  };
  sc.fingerprint = [st] {
    return opt_str(st->r1) + "/" + opt_str(st->r2) + "/" + opt_str(st->r3);
  };
  return sc;
}

TEST_F(ScheduleTest, StoreReadMonotonicityExhaustiveBothModes) {
  for (bool blocking : {false, true}) {
    auto st = std::make_shared<store_read_state>();
    sched::scenario sc = make_store_read_scenario(
        blocking, st, blocking ? "store_read_blocking" : "store_read_lockfree");
    sched::explore_options o;
    o.preemption_bound = 2;
    o.run = vread_filter();
    o.failure_check = test_failed;
    sched::explore_stats stats = sched::explore(sc, o);
    EXPECT_FALSE(stats.truncated) << sc.name;
    EXPECT_FALSE(stats.nondeterminism) << sc.name;
    EXPECT_GE(stats.schedules_at_max_bound, 25u) << sc.name;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing schedule in " << sc.name << ": "
                    << stats.failure_schedule;
      return;
    }
  }
}

}  // namespace
