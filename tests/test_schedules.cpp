// Exhaustive + seeded schedule exploration over the protocol's hardest
// windows (chaos/scheduler.hpp + chaos/schedule_test.hpp).
//
// Where test_chaos.cpp probes hand-written fault plans, these tests
// *enumerate*: every interleaving of 2 logical threads (preemption bound
// 2, optionally composed with "thread dies at step k" kill tokens) over
//
//   * top-level try_lock install / handoff / help, asserting the exact
//     counter value and lock state on every schedule;
//   * two runs of one log racing each slot's pre-check and commit CAS;
//   * grow publication ordering (split copies -> forwarded write_once
//     flag -> root swing -> epoch retire), including the resize-trigger
//     alloc-fail deferral composed with schedules, and a helper's late
//     replay of a grow unit after its successor bucket took an insert;
//   * epoch retire vs. announce, via explicit test.* yield points;
//   * plain reads vs. payload writes, migration forwards and a cross-store
//     move (a source-first double read never misses the moving key).
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
#include "ds/move.hpp"
#include "flock/flock.hpp"
#include "store/sharded_map.hpp"

namespace {

namespace chaos = flock_chaos;
using chaos::point;
namespace sched = flock_sched;

bool test_failed() { return ::testing::Test::HasFailure(); }

class ScheduleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    chaos::reset();
    flock::set_blocking(false);
  }
  void TearDown() override {
    chaos::reset();
    flock::set_blocking(false);
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

sched::scenario make_trylock_scenario(std::shared_ptr<trylock_state> st) {
  sched::scenario sc;
  sc.name = "trylock_handoff";
  sc.setup = [st] {
    flock::set_blocking(false);
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

TEST_F(ScheduleTest, TrylockHandoffExhaustive) {
  auto st = std::make_shared<trylock_state>();
  sched::scenario sc = make_trylock_scenario(st);
  sched::explore_options o;
  o.preemption_bound = 2;
  o.run = trylock_filter();
  o.failure_check = test_failed;
  sched::explore_stats stats = sched::explore(sc, o);
  // The acceptance criterion: full enumeration, no truncation, and the
  // DFS's prefix-determinism check clean (same choices => same enabled
  // sets, i.e. recorded schedule strings are trustworthy).
  EXPECT_FALSE(stats.truncated);
  EXPECT_FALSE(stats.nondeterminism);
  EXPECT_GE(stats.schedules_at_max_bound, 25u);
  if (::testing::Test::HasFailure())
    ADD_FAILURE() << "first failing schedule: " << stats.failure_schedule;
}

// Compose kills with schedules: "thread dies at step k of schedule S" is
// one enumerable event. A killed thread parks at its yield point; the
// survivor must finish (helping the dead holder if it raced past the
// install). After quiescence the victim is revived and its resumed
// replay must be harmless — the same exact-state assertions hold.
TEST_F(ScheduleTest, TrylockHandoffExhaustiveWithKills) {
  auto st = std::make_shared<trylock_state>();
  sched::scenario sc = make_trylock_scenario(st);
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
// on every schedule the pair must either both be recycled at once (never
// helped) or both be epoch-retired. Exact state on every schedule, plus
// leak accounting: after a flush the live descriptor count is back at its
// pre-scenario baseline and nothing is left queued for the epoch.
struct nested_state {
  struct inner {
    flock::lock a, b;
    flock::mutable_<uint64_t> x;
    bool r[2] = {false, false};
  };
  std::unique_ptr<inner> s;
  long long live0 = 0;
  uint64_t helps_run0 = 0;
};

sched::scenario make_nested_scenario(std::shared_ptr<nested_state> st) {
  sched::scenario sc;
  sc.name = "nested_reuse_handoff";
  sc.setup = [st] {
    flock::set_blocking(false);
    st->s = std::make_unique<nested_state::inner>();
    st->s->x.init(0);
    flock::epoch_manager::instance().flush();
    st->live0 = flock::descriptors_live();
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
    // A descriptor whose thunk a helper ran is never recycled at once: each
    // thread runs at most one help, and each sends at least the helped
    // descriptor through the epoch (the owner's B: the whole A/B chain).
    auto& em = flock::epoch_manager::instance();
    const uint64_t helps_run = flock::stats().helps_run - st->helps_run0;
    EXPECT_GE(em.pending(), static_cast<long long>(helps_run))
        << rep.schedule_string();
    em.flush();
    EXPECT_EQ(flock::descriptors_live(), st->live0)
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

// --- scenario 1b': a late nested replay after the inner lock changed hands
//
// The owner runs A{B{x++}} and then B{x++}; the prober try_locks A (and so
// helps the owner's A descriptor when it finds A held) and then B{x++}.
// The prober's replay of A's thunk can reach the nested try_lock of B
// after the owner's first B section finished and its second took B. That
// replay adopts the first B descriptor from A's log and must not install
// it again: its install CAS expects the word committed with the
// descriptor, which B has moved past. An install from a freshly read word
// would take B from its new holder, release it, and let the prober's own
// B section overlap that holder's, losing an increment. On every schedule
// each successful B section takes effect exactly once: x equals the
// number of them.
struct late_nested_state {
  struct inner {
    flock::lock a, b;
    flock::mutable_<uint64_t> x;
    bool r[4] = {false, false, false, false};  // owner A, owner B, prober A, prober B
    bool owner_second = false;  // the owner's second B acquisition began
  };
  std::unique_ptr<inner> s;
  int owner_tid = -1;
  uint64_t late_replays = 0;  // replays reaching B while the owner's second
                              // acquisition had it
};

sched::scenario make_late_nested_scenario(
    std::shared_ptr<late_nested_state> st) {
  sched::scenario sc;
  sc.name = "nested_late_replay";
  sc.setup = [st] {
    flock::set_blocking(false);
    st->s = std::make_unique<late_nested_state::inner>();
    st->s->x.init(0);
  };
  auto inc = [st] {
    flock::mutable_<uint64_t>* xp = &st->s->x;
    return [xp] {
      xp->store(xp->load() + 1);
      return true;
    };
  };
  sc.threads.push_back([st, inc] {  // owner: A{B{x++}}, then B{x++}
    auto* in = st->s.get();
    st->owner_tid = flock::thread_id();
    flock::lock* bp = &in->b;
    late_nested_state* sp = st.get();
    auto b_inc = inc();
    in->r[0] = flock::with_epoch([&] {
      return flock::try_lock(in->a, [bp, sp, b_inc] {
        auto* i = sp->s.get();
        if (flock::thread_id() != sp->owner_tid && i->owner_second &&
            i->b.is_locked())
          sp->late_replays++;
        return flock::try_lock(*bp, b_inc);
      });
    });
    in->owner_second = true;
    in->r[1] = flock::with_epoch([&] { return flock::try_lock(in->b, b_inc); });
  });
  sc.threads.push_back([st, inc] {  // prober: A{}, then B{x++}
    auto* in = st->s.get();
    in->r[2] = flock::with_epoch(
        [&] { return flock::try_lock(in->a, [] { return true; }); });
    in->r[3] = flock::with_epoch([&] { return flock::try_lock(in->b, inc()); });
  });
  sc.on_final = [st](const sched::run_report& rep) {
    auto* in = st->s.get();
    const uint64_t sections =
        (in->r[0] ? 1u : 0u) + (in->r[1] ? 1u : 0u) + (in->r[3] ? 1u : 0u);
    EXPECT_EQ(in->x.read_raw(), sections) << rep.schedule_string();
    EXPECT_FALSE(in->a.is_locked()) << rep.schedule_string();
    EXPECT_FALSE(in->b.is_locked()) << rep.schedule_string();
  };
  sc.fingerprint = [st] {
    auto* in = st->s.get();
    std::string f = std::to_string(in->x.read_raw()) + "/";
    for (bool r : in->r) f += r ? 't' : 'f';
    return f;
  };
  return sc;
}

TEST_F(ScheduleTest, NestedLateReplayAfterReacquireExhaustiveWithKills) {
  auto st = std::make_shared<late_nested_state>();
  sched::scenario sc = make_late_nested_scenario(st);
  sched::explore_options o;
  // The owner is preempted inside A so the prober can validate its help,
  // the prober stalls before running it, and the owner dies inside its
  // second B section: two preemptions and one kill.
  o.preemption_bound = 2;
  o.kill_bound = 1;
  o.run = trylock_filter();
  o.failure_check = test_failed;
  sched::explore_stats stats = sched::explore(sc, o);
  EXPECT_FALSE(stats.truncated);
  EXPECT_FALSE(stats.nondeterminism);
  EXPECT_GE(stats.schedules_at_max_bound, 1000u);
  EXPECT_GT(st->late_replays, 0u);  // the window was reached
  if (::testing::Test::HasFailure())
    ADD_FAILURE() << "first failing schedule: " << stats.failure_schedule;
}

// --- scenario 1c: two runs of one log commit the same slots ----------------
//
// A commit reads its slot and skips the CAS when the slot is already full
// (compare-and-compare-and-swap, log.hpp); log.commit.pre sits between
// that pre-check and the CAS. Two threads replay one log, as two runs of
// one thunk do, each proposing its own value for every slot. A run whose
// pre-check saw the slot empty can lose the CAS to the other run and must
// then adopt the winner's value from the failed CAS. On every schedule
// both runs agree on every slot, exactly one run is first per slot and
// the agreed value is that run's proposal; across the exploration at
// least one commit adopts through a failed CAS.
struct commit_state {
  static constexpr int kSlots = 3;
  flock::log_block* head = nullptr;
  uint64_t seen[2][kSlots] = {};
  bool first[2][kSlots] = {};
  int cas_adoptions[2] = {0, 0};
};

uint64_t commit_proposal(int t, int i) {
  return static_cast<uint64_t>(100 * (t + 1) + i);
}

TEST_F(ScheduleTest, LogCommitPreCheckRaceExhaustive) {
  auto st = std::make_shared<commit_state>();
  uint64_t adoption_schedules = 0;
  sched::scenario sc;
  sc.name = "log_commit_race";
  sc.setup = [st] {
    *st = commit_state{};
    st->head = flock::pool_new<flock::log_block>();
  };
  for (int t = 0; t < 2; t++) {
    sc.threads.push_back([st, t] {
      flock::tls_log() = {st->head, 0};
      for (int i = 0; i < commit_state::kSlots; i++) {
        // What the commit's pre-check will read: the scheduler switches
        // threads only at yield points, and there is none in between.
        const bool empty =
            st->head->entries[i].v.load() == flock::kLogEmpty;
        auto [v, first] = flock::commit_raw(commit_proposal(t, i));
        st->seen[t][i] = v;
        st->first[t][i] = first;
        if (empty && !first) st->cas_adoptions[t]++;
      }
      flock::tls_log() = {};
    });
  }
  sc.on_final = [st, &adoption_schedules](const sched::run_report& rep) {
    for (int i = 0; i < commit_state::kSlots; i++) {
      EXPECT_EQ(st->seen[0][i], st->seen[1][i])
          << "slot " << i << " " << rep.schedule_string();
      EXPECT_NE(st->first[0][i], st->first[1][i])
          << "slot " << i << " " << rep.schedule_string();
      const int winner = st->first[0][i] ? 0 : 1;
      EXPECT_EQ(st->seen[0][i], commit_proposal(winner, i))
          << "slot " << i << " " << rep.schedule_string();
    }
    if (st->cas_adoptions[0] + st->cas_adoptions[1] > 0) adoption_schedules++;
    flock::pool_delete(st->head);
  };
  sc.fingerprint = [st] {
    std::string f;
    for (int i = 0; i < commit_state::kSlots; i++)
      f += st->first[0][i] ? '0' : '1';
    return f + "/" + std::to_string(st->cas_adoptions[0]) + "," +
           std::to_string(st->cas_adoptions[1]);
  };
  sched::explore_options o;
  o.preemption_bound = 2;
  o.run.point_prefixes = {"log.commit.pre"};
  o.failure_check = test_failed;
  sched::explore_stats stats = sched::explore(sc, o);
  EXPECT_FALSE(stats.truncated);
  EXPECT_FALSE(stats.nondeterminism);
  EXPECT_GE(stats.schedules_at_max_bound, 10u);
  EXPECT_GT(adoption_schedules, 0u);
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
  // allocation, plus one entry and one exit window per bucket critical
  // section (descriptor installed; done published, unlock pending), so
  // every update and migration unit interleaves with the others. The rest
  // of the lock protocol and the epoch/alloc internals stay unscheduled:
  // they are exhaustively covered by the trylock scenario, and pool/seal
  // arrivals depend on cross-run state.
  o.point_prefixes = {"ht.", "wo.publish", "lock.install.post",
                      "lock.handoff.pre_unlock"};
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
    chaos::reset();
    st->ht = std::make_unique<flock_ds::hashtable<long, long>>(64);
    deferrals_before = st->ht->resize_deferrals();
    ASSERT_TRUE(chaos::arm(point::ht_resize_alloc, chaos::fault::alloc_fail));
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
  // Before the re-install the workers' plain bucket ops cross only the
  // critical-section entry/exit windows of grow_filter.
  o.preemption_bound = 2;
  o.run = grow_filter();
  o.failure_check = test_failed;
  sched::explore_stats stats = sched::explore(sc, o);
  EXPECT_FALSE(stats.truncated);
  EXPECT_FALSE(stats.nondeterminism);
  // The enumeration covers both workers' tick orders, the
  // duplicate-install/hint-damping races between them and the migration
  // they start. 2252 schedules at bound 2 as of this writing.
  EXPECT_GE(stats.schedules_at_max_bound, 5u);
  chaos::reset();
  if (::testing::Test::HasFailure())
    ADD_FAILURE() << "first failing schedule: " << stats.failure_schedule;
}

// --- scenario 3b: a late replay of a grow unit ------------------------------
//
// A grow unit's head stores (the `next` stores that publish its copied
// chains in the successor buckets) take their expected values from the
// unit's log. A helper that validated the unit's descriptor and then
// stalled replays the unit after it finished — after the successor bucket
// went live and took an insert. Its logged expected values are stale, so
// every replayed head store fails; a store that read its expected value
// unlogged would succeed and unlink the insert. Thread 0 inserts a key
// that sorts before every resident key of its old bucket's split side (so
// its insert rewrites the head the unit stores), migrating that unit
// first; thread 1 inserts
// another key of the same old bucket and so helps the unit whenever it
// finds it held. The filter lets thread 1 stall between validating its
// help and running it while thread 0 finishes the unit and its insert.
TEST_F(ScheduleTest, GrowUnitLateReplayAfterSuccessorInsertExhaustive) {
  using table_t = flock_ds::hashtable<long, long>;
  // Both keys split from old bucket u of resident key 5; ka lands on 5's
  // side of the split and sorts before it (keys are signed).
  const uint64_t h5 = table_t::hash_of(5);
  long ka = 0, kb = 0;
  for (long k = -1; ka == 0 || kb == 0; k--) {
    const uint64_t h = table_t::hash_of(k);
    if (ka == 0 && (h & 127) == (h5 & 127))
      ka = k;
    else if (kb == 0 && (h & 63) == (h5 & 63))
      kb = k;
  }
  auto st = std::make_shared<grow_state>();
  uint64_t helps_run0 = 0;
  uint64_t helped_schedules = 0;
  sched::scenario sc;
  sc.name = "grow_late_replay";
  sc.setup = [st, &helps_run0] {
    flock::set_blocking(false);
    st->ra = st->rb = false;
    st->ht = std::make_unique<table_t>(64);
    for (long k = 0; k < 64; k++) st->ht->insert(k, k);
    ASSERT_EQ(st->ht->bucket_count(), 128u);  // successor installed
    helps_run0 = flock::stats().helps_run;
  };
  sc.threads.push_back([st, ka] { st->ra = st->ht->insert(ka, ka); });
  sc.threads.push_back([st, kb] { st->rb = st->ht->insert(kb, kb); });
  sc.on_final = [&, st](const sched::run_report& rep) {
    if (flock::stats().helps_run != helps_run0) helped_schedules++;
    EXPECT_TRUE(st->ra) << rep.schedule_string();
    EXPECT_TRUE(st->rb) << rep.schedule_string();
    EXPECT_EQ(st->ht->find(ka), std::optional<long>(ka))
        << "lost key " << ka << " " << rep.schedule_string();
    assert_grow_final(st.get(), rep, {ka, kb});
  };
  sc.fingerprint = [st] {
    return std::to_string(st->ht->bucket_count()) + "/" +
           std::to_string(st->ht->size());
  };
  sched::explore_options o;
  o.preemption_bound = 2;
  o.run.point_prefixes = {"lock.install.post", "lock.help.pre_run"};
  o.failure_check = test_failed;
  sched::explore_stats stats = sched::explore(sc, o);
  EXPECT_FALSE(stats.truncated);
  EXPECT_FALSE(stats.nondeterminism);
  EXPECT_GE(stats.schedules_at_max_bound, 10u);
  // Some schedules run thread 1's help, the late replay among them.
  EXPECT_GT(helped_schedules, 0u);
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
    st->loaded = nullptr;
    st->observed.reset();
    st->reader_done = false;
    st->shared.store(flock::pool_new<epoch_node>(),
                     std::memory_order_release);
  };
  sc.threads.push_back([st] {  // reader
    flock::with_epoch([&] {
      FLOCK_SCHEDPOINT(test_rd_announced);
      epoch_node* p = st->shared.load(std::memory_order_acquire);
      st->loaded = p;
      FLOCK_SCHEDPOINT(test_rd_loaded);  // pointer in hand, not deref'd
      if (p != nullptr) st->observed = p->magic;
      return true;
    });
    st->reader_done = true;
  });
  sc.threads.push_back([st] {  // writer
    epoch_node* p = st->shared.exchange(nullptr, std::memory_order_acq_rel);
    FLOCK_SCHEDPOINT(test_wr_unlinked);
    flock::epoch_retire(p);
    FLOCK_SCHEDPOINT(test_wr_retired);
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
  sched::scenario sc = make_trylock_scenario(st);
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
      FLOCK_SCHEDPOINT(test_rd_announced);
      epoch_node* p = st->shared.load(std::memory_order_acquire);
      st->loaded = p;
      FLOCK_SCHEDPOINT(test_rd_loaded);
      if (p != nullptr) st->observed = p->magic;
      return true;
    });
  });
  sc.threads.push_back([st] {
    epoch_node* p = st->shared.exchange(nullptr, std::memory_order_acq_rel);
    FLOCK_SCHEDPOINT(test_wr_unlinked);
    flock::epoch_retire(p);
    FLOCK_SCHEDPOINT(test_wr_retired);
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
  sched::scenario sc = make_trylock_scenario(st);
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
  sched::scenario other = make_trylock_scenario(st);
  other.name = "trylock_handoff_unpinned";
  sched::explore_stats many = sched::explore(other, o);
  EXPECT_GT(many.schedules, 1u);
  ::unsetenv("FLOCK_SCHEDULE");
  ::unsetenv("FLOCK_SCHEDULE_SCENARIO");
}

// --- seeded random walks ----------------------------------------------------

TEST_F(ScheduleTest, SeededWalksAreBitIdenticallyReproducible) {
  auto st = std::make_shared<trylock_state>();
  sched::scenario sc = make_trylock_scenario(st);
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

// --- scenario: plain reads vs payload writes ---------------------------------
//
// find() is one epoch-guarded lock-free walk with one reader-side window
// (ht.read.post_flag: forwarded flag read, chain walk not yet begun). These
// scenarios enumerate that window, interleaved with the writer's chain
// stores (mut.cas.pre) and flag publications (wo.publish), against a
// writer replacing the same key's payload (remove + re-insert — the write
// API's payload mutation) and against the migration engine's forwards, in
// BOTH lock modes, asserting on every schedule that a read returns only a
// linearizable value — the old payload, the new payload, or a miss while
// the key is legally absent — never a torn or resurrected one.
struct vread_state {
  std::unique_ptr<flock_ds::hashtable<long, long>> ht;
  std::optional<long> r1, r2;
};

std::string opt_str(const std::optional<long>& r) {
  return r.has_value() ? std::to_string(*r) : std::string("miss");
}

sched::scenario make_plain_read_scenario(bool blocking,
                                         std::shared_ptr<vread_state> st,
                                         const char* name) {
  sched::scenario sc;
  sc.name = name;
  sc.setup = [st, blocking] {
    flock::set_blocking(blocking);
    st->r1.reset();
    st->r2.reset();
    // 8 keys in a 64-bucket table: far below the grow threshold, so the
    // only chain traffic is the writer thread's.
    st->ht = std::make_unique<flock_ds::hashtable<long, long>>(64);
    for (long k = 1; k <= 8; k++) st->ht->insert(k, k * 100);
  };
  // Writer: replace key 5's payload. Between its two ops the key is
  // legally absent.
  sc.threads.push_back([st] {
    EXPECT_TRUE(st->ht->remove(5));
    EXPECT_TRUE(st->ht->insert(5, 501));
  });
  // Reader: two reads of the contended key, then one of an undisturbed
  // sibling (same table, different bucket).
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
  // The read window plus the writer's chain stores and flag publications:
  // the lock protocol's own schedule space is covered exhaustively by the
  // trylock scenarios.
  o.point_prefixes = {"ht.read.", "mut.cas.pre", "wo.publish"};
  return o;
}

TEST_F(ScheduleTest, PlainReadVsPayloadWriteExhaustiveBothModes) {
  for (bool blocking : {false, true}) {
    auto st = std::make_shared<vread_state>();
    sched::scenario sc = make_plain_read_scenario(
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

// Kills composed with the read window and the writer's critical section.
// The interesting victim is a writer dead inside its critical section —
// parked after installing its descriptor (lock.*) or before one of its
// chain stores (mut.cas.pre) — holding the bucket lock. The reader never
// locks and never helps, so it must neither wait on the dead holder nor
// see a half-applied update: every read still returns only linearizable
// values. Reader kills check the other direction: a dead reader's revived
// replay is harmless. Assertions are identical; revival drains the victim
// before on_final, so the exact final state must also converge.
TEST_F(ScheduleTest, PlainReadDeadWriterWithKills) {
  for (bool blocking : {false, true}) {
    auto st = std::make_shared<vread_state>();
    sched::scenario sc = make_plain_read_scenario(
        blocking, st,
        blocking ? "vread_kills_blocking" : "vread_kills_lockfree");
    sched::explore_options o;
    o.preemption_bound = 1;
    o.kill_bound = 1;
    o.run = vread_filter();
    o.run.point_prefixes.push_back("lock.");
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

// --- scenario: plain read vs migration forward -------------------------------
//
// A reader races the migration engine: the 64->128 grow is pre-installed
// (as in the grow scenarios) and the writer's insert migrates units,
// forwarding source buckets. The reads target keys resident since before
// the resize whose source buckets this insert migrates: key 43 shares
// old bucket 8 with key 1000 (the writer's own unit, migrated first), and
// key 6 sits in old bucket 0..7 (the chunk it helps next). The walk either
// reads a source bucket not yet forwarded (whose chain stays frozen even
// if the unit completes under the walk) or sees the forwarded flag and
// chases the successor, whose chains were published before that flag — in
// EVERY interleaving of the reader's window with copy publication and
// forwarded-flag publication, both reads return exactly their key.
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
    st->r1.reset();
    st->r2.reset();
    st->ht = std::make_unique<flock_ds::hashtable<long, long>>(64);
    for (long k = 0; k < 64; k++) st->ht->insert(k, k);
    ASSERT_EQ(st->ht->bucket_count(), 128u);  // successor installed
    // The read targets sit in the units the writer's insert migrates.
    auto unit = [](long k) {
      return flock_ds::hashtable<long, long>::hash_of(k) & 63;
    };
    ASSERT_EQ(unit(43), unit(1000));
    ASSERT_LT(unit(6), 8u);
  };
  sc.threads.push_back([st] {
    // Drives the migration: own unit plus a claimed batch, each unit
    // copying its chain and ending in a forwarded write_once flag.
    EXPECT_TRUE(st->ht->insert(1000, 1));
  });
  sc.threads.push_back([st] {
    st->r1 = st->ht->find(43);
    st->r2 = st->ht->find(6);
  });
  sc.on_final = [st](const sched::run_report& rep) {
    EXPECT_EQ(st->r1, std::optional<long>(43)) << rep.schedule_string();
    EXPECT_EQ(st->r2, std::optional<long>(6)) << rep.schedule_string();
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

TEST_F(ScheduleTest, PlainReadVsMigrationForwardExhaustiveBothModes) {
  for (bool blocking : {false, true}) {
    auto st = std::make_shared<vread_mig_state>();
    sched::scenario sc = make_vread_migration_scenario(
        blocking, st,
        blocking ? "vread_migration_blocking" : "vread_migration_lockfree");
    sched::explore_options o;
    o.preemption_bound = 1;
    // The read window vs. the migration's publication points: split-copy
    // stores, the pre-publish window, forwarded write_once flags.
    o.run = vread_filter();
    o.run.point_prefixes.push_back("ht.grow.");
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
// epoch-guarded walk. Three reads of one key on one thread, racing a
// writer's remove + re-insert, may only move forward through the writer's
// program order: a read must never return a state older than one a
// previous read already observed. Asserted on every schedule in both lock
// modes.
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
      // may only move forward through it. A stale read after an
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

// --- scenario: a source-first read never misses a moving key ----------------
//
// try_move publishes the key in the destination before it hides it in the
// source (ds/move.hpp, "Reads during a move"). One thread moves key 5 with
// move_retry from a 1-shard store to a 2-shard one. The other reads it
// twice the caller-side way: the source first, the destination only on a
// miss. The points cover the splice's chain stores (mut.cas.pre) and flag
// publications (wo.publish), so the explorer preempts between the
// destination publish and the source removal, and the reader's window. On
// every schedule, in both lock modes, both reads find the key.
struct move_read_state {
  using store = flock_store::sharded_map<long, long, false>;
  std::unique_ptr<store> from, to;
  std::optional<long> r1, r2;
};

sched::scenario make_move_read_scenario(bool blocking,
                                        std::shared_ptr<move_read_state> st,
                                        const char* name) {
  sched::scenario sc;
  sc.name = name;
  sc.setup = [st, blocking] {
    flock::set_blocking(blocking);
    st->r1.reset();
    st->r2.reset();
    st->from = std::make_unique<move_read_state::store>(1, 64);
    st->to = std::make_unique<move_read_state::store>(2, 64);
    st->from->insert(5, 500);
    st->from->insert(6, 600);
    st->to->insert(7, 700);
  };
  sc.threads.push_back(
      [st] { EXPECT_TRUE(flock_ds::move_retry(*st->from, *st->to, 5L)); });
  sc.threads.push_back([st] {
    auto read = [&st] {
      auto r = st->from->find(5);
      return r.has_value() ? r : st->to->find(5);
    };
    st->r1 = read();
    st->r2 = read();
  });
  sc.on_final = [st](const sched::run_report& rep) {
    EXPECT_EQ(st->r1, std::optional<long>(500)) << rep.schedule_string();
    EXPECT_EQ(st->r2, std::optional<long>(500)) << rep.schedule_string();
    EXPECT_FALSE(st->from->find(5).has_value()) << rep.schedule_string();
    EXPECT_EQ(st->to->find(5), std::optional<long>(500))
        << rep.schedule_string();
    EXPECT_EQ(st->from->size(), 1u) << rep.schedule_string();
    EXPECT_EQ(st->to->size(), 2u) << rep.schedule_string();
    EXPECT_TRUE(st->from->check_invariants()) << rep.schedule_string();
    EXPECT_TRUE(st->to->check_invariants()) << rep.schedule_string();
    st->from.reset();
    st->to.reset();
  };
  sc.fingerprint = [st] { return opt_str(st->r1) + "/" + opt_str(st->r2); };
  return sc;
}

TEST_F(ScheduleTest, MoveSourceFirstReadExhaustiveBothModes) {
  for (bool blocking : {false, true}) {
    auto st = std::make_shared<move_read_state>();
    sched::scenario sc = make_move_read_scenario(
        blocking, st, blocking ? "move_read_blocking" : "move_read_lockfree");
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
