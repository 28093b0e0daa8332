// scheduler.hpp — a cooperative schedule explorer over the faultpoint
// layer (CDSChecker/Relacy-style).
//
// The faultpoint layer (faultpoint.hpp) names the protocol's hardest
// windows; kill/stall plans probe the schedules a test author thought to
// write down. This header turns those same points into *yield points* of
// a cooperative scheduler that serializes N logical threads and decides,
// at every crossing, which thread runs next — so the interleavings nobody
// enumerated get enumerated.
//
// Model. Each scenario thread runs as a real std::thread, but exactly one
// is ever runnable: every other thread is parked on a condvar at its last
// yield point. Yield points are (a) every FLOCK_FAULTPOINT site, (b) the
// scheduler-only FLOCK_SCHEDPOINT sites (descriptor tag revalidation,
// write_once publication, test-local `test.*` markers), and (c) an
// implicit `thread.start` rendezvous before a thread's body runs. A
// per-run prefix filter selects which points count as scheduling steps —
// small filters keep schedule spaces tractable and exclude points whose
// arrival depends on cross-run global state (slab refill, epoch seal).
// Because the explorer serializes threads at yield points, it explores
// only sequentially consistent executions: an argument that rests on a
// weaker order (a `// mo:` acquire/release pair, a store-to-load
// pattern) is never violated here, however wrong it is. The owner
// replay of every top-level acquisition (flock/lock.hpp) runs with the
// points inert, so it crosses no yield point and adds no schedule
// states.
//
// Deciders (which thread runs next):
//   dfs_decider     exhaustive DFS over all schedules, with preemption
//                   bounding (a switch away from a still-enabled thread
//                   costs one preemption; bound <= 2 keeps scenarios
//                   tractable, and most bugs need few preemptions) and an
//                   optional kill budget: "kill thread t" is a schedule
//                   token like any other, so "thread dies at step k of
//                   schedule S" is one enumerable event.
//   pct_decider     seeded random walk in the style of PCT (probabilistic
//                   concurrency testing): random distinct priorities,
//                   d priority-change points; bit-identically reproducible
//                   from FLOCK_CHAOS_SEED.
//   replay_decider  stateless replay from a recorded schedule string.
//
// Schedule strings. Every run records its decisions as a comma-separated
// token list: `N` runs thread N for one step, `kN` kills thread N at its
// current yield point. "0,0,1,k0,1" replays exactly — the DFS verifies
// prefix determinism (same choices => same enabled sets) as it explores.
//
// Kill semantics. A scheduler kill leaves the victim parked at its yield
// point — dead to the protocol, exactly the paper's dead-holder scenario —
// while the schedule continues without it. When every live thread has
// finished (quiescence), the harness can assert intermediate state; then
// killed threads are *revived* and drained under a fixed default policy
// (never branchable, so it adds no schedule states), modelling the
// paper's "resumed replay is harmless" idempotence claim on every
// explored schedule. Faultpoint *plans* (arm/arm_seeded) compose with the
// scheduler for stall and alloc-fail faults; a plan-armed kill must NOT
// be combined with the scheduler (it parks the only runnable thread
// outside the scheduler's state machine — use kill tokens instead).
//
// Determinism requirements on scenarios: bodies must be deterministic
// given the sequence of scheduling decisions (no wall-clock, no rng not
// derived from the seed), and the yield filter must exclude points whose
// arrival depends on state carried across runs. The engine joins each
// worker the moment it finishes, so thread-id recycling order (LIFO free
// list in thread_context.hpp) is itself schedule-deterministic.
//
// Like the rest of src/chaos/, this header is test-side machinery: the
// runtime never includes it. The runtime's only coupling is the
// thread-local hook in faultpoint.hpp (one TLS load per compiled-in
// point); without FLOCK_CHAOS every yield point compiles to nothing and
// this header is inert.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "faultpoint.hpp"

namespace flock_sched {

// --- schedule tokens and the string codec ----------------------------------

struct token {
  enum class kind : uint8_t { run, kill };
  kind k = kind::run;
  int thread = 0;

  static token run(int t) { return token{kind::run, t}; }
  static token kill(int t) { return token{kind::kill, t}; }
  bool operator==(const token& o) const {
    return k == o.k && thread == o.thread;
  }
};

inline std::string format_schedule(const std::vector<token>& ts) {
  std::string s;
  for (std::size_t i = 0; i < ts.size(); i++) {
    if (i != 0) s += ',';
    if (ts[i].k == token::kind::kill) s += 'k';
    s += std::to_string(ts[i].thread);
  }
  return s;
}

/// Parse a schedule string ("0,0,1,k0,1"). Malformed tokens end the
/// parse (the replay decider falls back to the default policy there).
inline std::vector<token> parse_schedule(const std::string& s) {
  std::vector<token> out;
  std::size_t i = 0;
  while (i < s.size()) {
    token t;
    if (s[i] == 'k') {
      t.k = token::kind::kill;
      i++;
    }
    if (i >= s.size() || s[i] < '0' || s[i] > '9') break;
    int v = 0;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9')
      v = v * 10 + (s[i++] - '0');
    t.thread = v;
    out.push_back(t);
    if (i < s.size()) {
      if (s[i] != ',') break;
      i++;
    }
  }
  return out;
}

// --- per-run report ---------------------------------------------------------

struct run_report {
  std::vector<token> tokens;        // decisions taken, in order
  std::vector<std::string> points;  // yield point of the chosen thread
                                    // at each decision (kills: where the
                                    // victim was parked)
  bool truncated = false;           // max_steps bailout (free-run escape)
  std::string fingerprint;          // filled by the harness (scenario)

  std::string schedule_string() const { return format_schedule(tokens); }

  /// One line fusing decisions with the points they were taken at —
  /// stable across replays of a deterministic scenario, so equality of
  /// trace() between record and replay is the determinism check.
  std::string trace() const {
    std::string s;
    for (std::size_t i = 0; i < tokens.size(); i++) {
      if (i != 0) s += ' ';
      if (tokens[i].k == token::kind::kill) s += 'k';
      s += std::to_string(tokens[i].thread);
      s += '@';
      s += points[i];
    }
    return s;
  }
};

// --- deciders ---------------------------------------------------------------

/// Fixed fallback policy: keep running the last thread while it stays
/// enabled, else the lowest-index enabled thread. Used by replay past the
/// recorded tokens and by the post-quiescence drain; deliberately not
/// branchable so it never adds schedule states.
inline int default_pick(const std::vector<int>& enabled, int last) {
  for (int t : enabled)
    if (t == last) return t;
  return enabled.front();
}

class decider {
 public:
  virtual ~decider() = default;
  /// Called at each decision point with the sorted enabled set (never
  /// empty) and the thread that ran the previous step (-1 at run start,
  /// unchanged by kill tokens). Must return `run t` or `kill t` with t
  /// in the enabled set.
  virtual token decide(const std::vector<int>& enabled, int last) = 0;
  virtual void on_run_begin() {}
};

/// Exhaustive DFS with preemption bounding and a kill budget.
///
///   dfs_decider d(/*preemption_bound=*/2);
///   do { auto rep = run_schedule(bodies, d, opts); ... }
///   while (d.next_schedule());
///
/// Candidate order at each new decision point: continue the current
/// thread first (no preemption), then the other enabled threads in
/// ascending order (one preemption each, only while budget remains; a
/// switch away from a finished/killed thread is free), then kill tokens
/// in ascending order while the kill budget remains.
class dfs_decider : public decider {
 public:
  explicit dfs_decider(int preemption_bound, int kill_bound = 0)
      : preemption_bound_(preemption_bound), kill_bound_(kill_bound) {}

  void on_run_begin() override {
    step_ = 0;
    preempts_ = 0;
    kills_ = 0;
  }

  token decide(const std::vector<int>& enabled, int last) override {
    if (step_ == frames_.size()) {
      frame f;
      f.enabled = enabled;
      f.last = last;
      build_candidates(f);
      frames_.push_back(std::move(f));
    }
    frame& f = frames_[step_];
    // Prefix determinism: replaying the same choices must reproduce the
    // same enabled sets, or recorded schedule strings are meaningless.
    if (f.enabled != enabled || f.last != last) nondet_ = true;
    token t = f.candidates[f.index];
    account(t, enabled, last);
    step_++;
    return t;
  }

  /// Advance to the next unexplored schedule; false when the tree is
  /// exhausted.
  bool next_schedule() {
    while (!frames_.empty()) {
      if (++frames_.back().index < frames_.back().candidates.size())
        return true;
      frames_.pop_back();
    }
    return false;
  }

  bool nondeterminism_detected() const { return nondet_; }

 private:
  struct frame {
    std::vector<int> enabled;
    int last = -1;
    std::vector<token> candidates;
    std::size_t index = 0;
  };

  void build_candidates(frame& f) const {
    bool cur_enabled = false;
    for (int t : f.enabled) cur_enabled |= (t == f.last);
    if (cur_enabled) f.candidates.push_back(token::run(f.last));
    for (int t : f.enabled) {
      if (t == f.last) continue;
      if (!cur_enabled || preempts_ < preemption_bound_)
        f.candidates.push_back(token::run(t));
    }
    if (kills_ < kill_bound_)
      for (int t : f.enabled) f.candidates.push_back(token::kill(t));
  }

  void account(const token& t, const std::vector<int>& enabled, int last) {
    if (t.k == token::kind::kill) {
      kills_++;
      return;
    }
    bool cur_enabled = false;
    for (int e : enabled) cur_enabled |= (e == last);
    if (cur_enabled && t.thread != last) preempts_++;
  }

  int preemption_bound_;
  int kill_bound_;
  std::vector<frame> frames_;
  std::size_t step_ = 0;
  int preempts_ = 0;
  int kills_ = 0;
  bool nondet_ = false;
};

/// Seeded random walk, PCT-style: each thread gets a random distinct
/// priority; at each step the highest-priority enabled thread runs; at d
/// pre-sampled change steps the currently-highest enabled thread's
/// priority drops below everyone's. Optionally spends `kill_budget`
/// seeded kill tokens at pre-sampled steps. Everything derives from the
/// seed via one xorshift stream: the same seed yields bit-identical
/// schedules (recorded tokens make any failure replayable regardless).
class pct_decider : public decider {
 public:
  pct_decider(uint64_t seed, int nthreads, int depth = 3,
              std::size_t expected_steps = 64, int kill_budget = 0)
      : x_(seed ? seed : 0x9e3779b97f4a7c15ULL) {
    prio_.resize(static_cast<std::size_t>(nthreads));
    // Distinct priorities: a random permutation offset high above the
    // demotion range.
    for (std::size_t i = 0; i < prio_.size(); i++)
      prio_[i] = (1u << 20) + i;
    for (std::size_t i = prio_.size(); i > 1; i--)
      std::swap(prio_[i - 1], prio_[next() % i]);
    for (int i = 0; i < depth; i++)
      change_steps_.push_back(next() % (expected_steps ? expected_steps : 1));
    for (int i = 0; i < kill_budget; i++)
      kill_steps_.push_back(next() % (expected_steps ? expected_steps : 1));
  }

  void on_run_begin() override {
    step_ = 0;
    demote_ = 0;
  }

  token decide(const std::vector<int>& enabled, int) override {
    for (std::size_t cs : change_steps_)
      if (cs == step_) prio_[highest(enabled)] = demote_++;
    for (std::size_t ks : kill_steps_) {
      if (ks == step_ && enabled.size() > 1) {
        step_++;
        return token::kill(highest(enabled));
      }
    }
    step_++;
    return token::run(highest(enabled));
  }

 private:
  uint64_t next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }
  int highest(const std::vector<int>& enabled) const {
    int best = enabled.front();
    for (int t : enabled)
      if (prio_[static_cast<std::size_t>(t)] >
          prio_[static_cast<std::size_t>(best)])
        best = t;
    return best;
  }

  uint64_t x_;
  std::vector<uint64_t> prio_;
  std::vector<std::size_t> change_steps_;
  std::vector<std::size_t> kill_steps_;
  std::size_t step_ = 0;
  uint64_t demote_ = 0;
};

/// Stateless replay of a recorded schedule string. Tokens naming a
/// thread that is not currently enabled mark the replay as diverged (the
/// scenario changed, or the recording is from a different scenario) and
/// are skipped; past the recorded tokens the default policy finishes the
/// run.
class replay_decider : public decider {
 public:
  explicit replay_decider(const std::string& schedule)
      : tokens_(parse_schedule(schedule)) {}
  explicit replay_decider(std::vector<token> tokens)
      : tokens_(std::move(tokens)) {}

  void on_run_begin() override { index_ = 0; }

  token decide(const std::vector<int>& enabled, int last) override {
    while (index_ < tokens_.size()) {
      token t = tokens_[index_++];
      bool ok = false;
      for (int e : enabled) ok |= (e == t.thread);
      if (ok) return t;
      diverged_ = true;
    }
    return token::run(default_pick(enabled, last));
  }

  bool diverged() const { return diverged_; }

 private:
  std::vector<token> tokens_;
  std::size_t index_ = 0;
  bool diverged_ = false;
};

// --- the serializing engine -------------------------------------------------

struct run_options {
  /// Yield filter: a point participates in scheduling iff its name starts
  /// with one of these prefixes (the `thread.start` rendezvous always
  /// participates). Empty = every point. Keep filters tight: they bound
  /// the schedule space AND exclude points whose arrival depends on
  /// cross-run global state (pool refills, epoch seals).
  std::vector<std::string> point_prefixes;
  /// Decision budget before the run bails out into free-running mode
  /// (report.truncated = true). A safety net, not a tuning knob:
  /// exhaustive tests assert it never trips.
  std::size_t max_steps = 20000;
};

namespace detail {

class engine {
 public:
  engine(const std::vector<std::function<void()>>& bodies,
         decider& d, const run_options& o,
         const std::function<void()>& on_quiescent)
      : opts_(o), decider_(d), on_quiescent_(on_quiescent) {
    w_.resize(bodies.size());
    decider_.on_run_begin();
    for (std::size_t i = 0; i < bodies.size(); i++)
      w_[i].th = std::thread([this, i, body = bodies[i]] {
        worker_main(static_cast<int>(i), body);
      });
    control();
  }

  run_report take_report() { return std::move(rep_); }

 private:
  enum class ws : uint8_t { booting, at_yield, running, killed, finished };

  struct worker {
    ws st = ws::booting;
    const char* point = "";
    std::thread th;
    bool joined = false;
  };

  struct hook_impl {
    flock_chaos::detail::sched_hook base;
    engine* eng;
    int idx;
  };

  static void hook_fn(flock_chaos::detail::sched_hook* self,
                      const char* point) {
    hook_impl* h = reinterpret_cast<hook_impl*>(self);
    h->eng->yield(h->idx, point);
  }

  bool filter_match(const char* point) const {
    if (std::strcmp(point, "thread.start") == 0) return true;
    if (opts_.point_prefixes.empty()) return true;
    for (const std::string& p : opts_.point_prefixes)
      if (std::strncmp(point, p.c_str(), p.size()) == 0) return true;
    return false;
  }

  void worker_main(int idx, const std::function<void()>& body) {
    hook_impl h{};
    h.base.fn = &hook_fn;
    h.eng = this;
    h.idx = idx;
    flock_chaos::detail::tl_sched_hook = &h.base;
    yield(idx, "thread.start");
    try {
      body();
    } catch (...) {
      // A throwing body is a scenario bug; surface it as a normal finish
      // so the controller can join instead of hanging the whole test.
    }
    // Uninstall before finishing: thread-exit teardown (thread-context
    // release, epoch bookkeeping) crosses instrumented code, and the
    // controller joins this thread immediately so that teardown runs
    // exclusively and in schedule order.
    flock_chaos::detail::tl_sched_hook = nullptr;
    std::lock_guard<std::mutex> lk(mu_);
    w_[static_cast<std::size_t>(idx)].st = ws::finished;
    cv_.notify_all();
  }

  /// Called from worker threads at every instrumented point.
  void yield(int idx, const char* point) {
    if (free_run_.load(std::memory_order_acquire)) return;
    if (!filter_match(point)) return;
    std::unique_lock<std::mutex> lk(mu_);
    if (free_run_.load(std::memory_order_relaxed)) return;
    worker& me = w_[static_cast<std::size_t>(idx)];
    me.st = ws::at_yield;
    me.point = point;
    cv_.notify_all();
    cv_.wait(lk, [&] {
      return (active_ == idx && me.st == ws::running) ||
             free_run_.load(std::memory_order_relaxed);
    });
  }

  bool all_parked() const {
    for (const worker& ws_ : w_)
      if (ws_.st == ws::booting || ws_.st == ws::running) return false;
    return true;
  }

  std::vector<int> enabled_set() const {
    std::vector<int> e;
    for (std::size_t i = 0; i < w_.size(); i++)
      if (w_[i].st == ws::at_yield) e.push_back(static_cast<int>(i));
    return e;
  }

  /// Join every finished-but-unjoined worker. The exiting thread never
  /// re-enters the engine after setting `finished`, and nothing else is
  /// runnable while the controller blocks here, so its TLS teardown
  /// (thread-id release — LIFO-recycled, see thread_context.hpp) runs
  /// exclusively and lands at a deterministic position in the schedule.
  void join_finished() {
    for (worker& ws_ : w_)
      if (ws_.st == ws::finished && !ws_.joined) {
        ws_.joined = true;
        ws_.th.join();
      }
  }

  void grant(int t) {
    w_[static_cast<std::size_t>(t)].st = ws::running;
    active_ = t;
    cv_.notify_all();
  }

  /// Serialize until the given enabled-set predicate says stop; record
  /// decisions from `pick`. Shared by the main phase and the drain.
  void control() {
    std::unique_lock<std::mutex> lk(mu_);
    std::size_t decisions = 0;

    // Main phase: the decider owns every choice, including kills.
    for (;;) {
      cv_.wait(lk, [&] { return all_parked(); });
      join_finished();
      std::vector<int> enabled = enabled_set();
      if (enabled.empty()) break;
      if (decisions >= opts_.max_steps) {
        bail_out(lk);
        return;
      }
      decisions++;
      token tok = decider_.decide(enabled, last_);
      rep_.tokens.push_back(tok);
      rep_.points.push_back(w_[static_cast<std::size_t>(tok.thread)].point);
      if (tok.k == token::kind::kill) {
        w_[static_cast<std::size_t>(tok.thread)].st = ws::killed;
      } else {
        last_ = tok.thread;
        grant(tok.thread);
      }
    }

    // Quiescence: every live thread finished; killed threads still parked
    // mid-window. The harness asserts intermediate state here.
    if (on_quiescent_) {
      lk.unlock();
      on_quiescent_();
      lk.lock();
    }

    // Revive and drain under the fixed default policy (not branchable —
    // revival adds no schedule states, it only checks that the resumed
    // replays are harmless).
    for (worker& ws_ : w_)
      if (ws_.st == ws::killed) ws_.st = ws::at_yield;
    for (;;) {
      cv_.wait(lk, [&] { return all_parked(); });
      join_finished();
      std::vector<int> enabled = enabled_set();
      if (enabled.empty()) break;
      if (decisions++ >= opts_.max_steps + w_.size() * 1000) {
        bail_out(lk);
        return;
      }
      int t = default_pick(enabled, last_);
      last_ = t;
      grant(t);
    }
  }

  /// Escape hatch when a run exceeds its step budget: release everything
  /// to free-run concurrently to completion, join, and report truncation.
  void bail_out(std::unique_lock<std::mutex>& lk) {
    rep_.truncated = true;
    free_run_.store(true, std::memory_order_release);
    cv_.notify_all();
    lk.unlock();
    for (worker& ws_ : w_)
      if (!ws_.joined) {
        ws_.joined = true;
        ws_.th.join();
      }
  }

  run_options opts_;
  decider& decider_;
  std::function<void()> on_quiescent_;
  std::vector<worker> w_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> free_run_{false};
  int active_ = -1;
  int last_ = -1;
  run_report rep_;
};

}  // namespace detail

/// Run the thread bodies once under `d`'s schedule. Returns after every
/// worker (including revived kill victims) has finished and been joined.
/// `on_quiescent` runs on the calling thread at the quiescence point:
/// all live threads finished, kill victims still parked mid-window.
inline run_report run_schedule(
    const std::vector<std::function<void()>>& bodies, decider& d,
    const run_options& o = {},
    const std::function<void()>& on_quiescent = {}) {
  detail::engine e(bodies, d, o, on_quiescent);
  return e.take_report();
}

}  // namespace flock_sched
