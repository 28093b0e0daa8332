// Drives the flock-lint rule engine (tools/lint/) as a library, with
// embedded fixture snippets: every rule gets at least one firing and one
// passing fixture, and the baseline machinery round-trips.
//
// Fixtures live in raw strings, so the real flock_lint run over tests/
// sees them as single string tokens and does not lint their contents.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "rules.hpp"

namespace {

using flock_lint::baseline;
using flock_lint::finding;
using flock_lint::lint_config;
using flock_lint::lint_files;
using flock_lint::source_file;

std::vector<finding> lint_one(const std::string& path, const std::string& text,
                              std::set<std::string> only = {}) {
  lint_config cfg;
  cfg.only_rules = std::move(only);
  return lint_files({source_file::from_string(path, text)}, cfg);
}

int count_rule(const std::vector<finding>& fs, const std::string& rule) {
  int n = 0;
  for (const finding& f : fs) n += f.rule == rule ? 1 : 0;
  return n;
}

bool has_finding_at(const std::vector<finding>& fs, const std::string& rule,
                    int line) {
  for (const finding& f : fs)
    if (f.rule == rule && f.line == line) return true;
  return false;
}

// --- R1: raw atomics / volatile / raw new-delete in CS lambdas --------------

TEST(LintR1, FiresOnRawAtomicsInCsLambda) {
  const std::string src = R"lint(
void op(lock_t& lk, std::atomic<int>& x, std::atomic<int>* p) {
  try_lock(lk, [&] {
    x.store(1, std::memory_order_release);   // line 4: explicit order
    p->fetch_add(1);                         // line 5: RMW member
    __atomic_thread_fence(__ATOMIC_SEQ_CST); // line 6: builtin
    volatile int sink = 0;                   // line 7: volatile
    int* q = new int(3);                     // line 8: raw new
    delete q;                                // line 9: raw delete
    return true;
  });
}
)lint";
  auto fs = lint_one("src/ds/fixture.hpp", src, {"R1"});
  EXPECT_TRUE(has_finding_at(fs, "R1", 4));
  EXPECT_TRUE(has_finding_at(fs, "R1", 5));
  EXPECT_TRUE(has_finding_at(fs, "R1", 6));
  EXPECT_TRUE(has_finding_at(fs, "R1", 7));
  EXPECT_TRUE(has_finding_at(fs, "R1", 8));
  EXPECT_TRUE(has_finding_at(fs, "R1", 9));
}

TEST(LintR1, PassesOutsideCsAndOnSanctionedApi) {
  const std::string src = R"lint(
void op(lock_t& lk, std::atomic<int>& x, flock::mutable_<int>& m) {
  x.store(1, std::memory_order_release);  // outside any CS lambda: fine
  x.fetch_add(1);                         // ditto
  with_lock(lk, [&] {
    m.store(7);          // mutable_ API, no explicit order: fine
    int v = m.load();    // ditto
    return v != 0;
  });
}
)lint";
  EXPECT_EQ(count_rule(lint_one("src/ds/fixture.hpp", src, {"R1"}), "R1"), 0);
}

TEST(LintR1, CommitValueWrappedRawLoadIsSanctioned) {
  const std::string src = R"lint(
void op(lock_t& lk, std::atomic<uint64_t>& x) {
  acquire(lk, [&] {
    uint64_t v = flock::commit_value(x.load(std::memory_order_acquire));
    return v != 0;
  });
}
)lint";
  EXPECT_EQ(count_rule(lint_one("src/ds/fixture.hpp", src, {"R1"}), "R1"), 0);
}

TEST(LintR1, FiresInAcquireWithTemplateArguments) {
  const std::string src = R"lint(
template <bool Strict>
void op(flock::lock& lk, std::atomic<int>& x) {
  flock::acquire<Strict>(lk, [&] {
    x.store(1, std::memory_order_release);  // line 5
    return flock::acquire<Strict>(lk, [&] {
      x.fetch_add(1);                       // line 7
      return true;
    });
  });
}
)lint";
  auto fs = lint_one("src/ds/fixture.hpp", src, {"R1"});
  EXPECT_TRUE(has_finding_at(fs, "R1", 5));
  EXPECT_TRUE(has_finding_at(fs, "R1", 7));
}

TEST(LintR1, DeletedMemberFunctionIsNotARawDelete) {
  const std::string src = R"lint(
void op(lock_t& lk) {
  strict_lock(lk, [&] {
    struct guard {
      guard(const guard&) = delete;
    };
    return true;
  });
}
)lint";
  EXPECT_EQ(count_rule(lint_one("src/ds/fixture.hpp", src, {"R1"}), "R1"), 0);
}

// --- R2: non-idempotent calls where thunk code runs -------------------------

TEST(LintR2, FiresOnRngClockAndMutableStatic) {
  const std::string src = R"lint(
void op(lock_t& lk) {
  with_lock(lk, [&] {
    int r = rand();                                   // line 4
    auto t = std::chrono::steady_clock::now();        // line 5
    static int calls = 0;                             // line 6
    std::this_thread::sleep_for(std::chrono::seconds(1)); // line 7
    return r + calls > 0 && t.time_since_epoch().count() > 0;
  });
}
)lint";
  auto fs = lint_one("src/ds/fixture.hpp", src, {"R2"});
  EXPECT_TRUE(has_finding_at(fs, "R2", 4));
  EXPECT_TRUE(has_finding_at(fs, "R2", 5));
  EXPECT_TRUE(has_finding_at(fs, "R2", 6));
  EXPECT_TRUE(has_finding_at(fs, "R2", 7));
}

TEST(LintR2, PassesOnImmutableStaticAndOutsideCs) {
  const std::string src = R"lint(
int outside() { return rand(); }  // outside any CS lambda: fine
void op(lock_t& lk, record& rec) {
  with_lock(lk, [&] {
    static const int kTableSize = 48;   // immutable static: fine
    static constexpr int kShift = 4;    // ditto
    int t = rec.time();                 // member named `time`: fine
    return kTableSize + kShift + t > 0;
  });
}
)lint";
  EXPECT_EQ(count_rule(lint_one("src/ds/fixture.hpp", src, {"R2"}), "R2"), 0);
}

// --- R3: weak memory orders need an `// mo:` justification ------------------

TEST(LintR3, FiresOnUnjustifiedWeakOrderInRuntimeLayer) {
  const std::string src = R"lint(
void f(std::atomic<int>& x) {
  x.store(1, std::memory_order_relaxed);
}
)lint";
  auto fs = lint_one("src/flock/fixture.hpp", src, {"R3"});
  EXPECT_EQ(count_rule(fs, "R3"), 1);
  EXPECT_TRUE(has_finding_at(fs, "R3", 3));
}

TEST(LintR3, JustifiedOrdersAndSeqCstPass) {
  const std::string src = R"lint(
void f(std::atomic<int>& x) {
  // mo: relaxed — fixture counter, no ordering needed.
  x.store(1, std::memory_order_relaxed);
  x.load(std::memory_order_relaxed);  // mo: trailing comments count too
  x.store(2, std::memory_order_seq_cst);  // seq_cst needs no justification
}
)lint";
  EXPECT_EQ(count_rule(lint_one("src/flock/fixture.hpp", src, {"R3"}), "R3"),
            0);
}

TEST(LintR3, CoversRuntimeStructureStoreLayers) {
  // The justification discipline follows the weak orders: the container
  // and store tiers (migration publication, resize counters) are covered
  // like the runtime. Code outside the three layers (benches, tests,
  // tools) stays exempt.
  const std::string src = R"lint(
void f(std::atomic<int>& x) { x.store(1, std::memory_order_relaxed); }
)lint";
  EXPECT_EQ(count_rule(lint_one("src/flock/fixture.hpp", src, {"R3"}), "R3"), 1);
  EXPECT_EQ(count_rule(lint_one("src/ds/fixture.hpp", src, {"R3"}), "R3"), 1);
  EXPECT_EQ(count_rule(lint_one("src/store/fixture.hpp", src, {"R3"}), "R3"), 1);
  EXPECT_EQ(count_rule(lint_one("bench/fixture.hpp", src, {"R3"}), "R3"), 0);
}

TEST(LintR3, JustificationWindowDoesNotReachFarAway) {
  // An mo: comment more than three lines above the statement does not
  // count — it is probably about something else.
  const std::string src = R"lint(
// mo: relaxed — this comment is too far from the store below.
void f(std::atomic<int>& x) {
  int pad1 = 0;
  int pad2 = pad1;
  x.store(pad2, std::memory_order_relaxed);
}
)lint";
  EXPECT_EQ(count_rule(lint_one("src/flock/fixture.hpp", src, {"R3"}), "R3"),
            1);
}

// --- baseline round-trip ----------------------------------------------------

TEST(LintBaseline, RoundTripSuppressesExactlyTheSerializedFindings) {
  const std::string src = R"lint(
void f(std::atomic<int>& x) {
  x.store(1, std::memory_order_relaxed);
  x.store(2, std::memory_order_release);
}
)lint";
  auto fs = lint_one("src/flock/fixture.hpp", src, {"R3"});
  ASSERT_EQ(count_rule(fs, "R3"), 2);

  // Serialize the findings, parse them back, and re-lint: everything is
  // covered and nothing is stale.
  baseline b = baseline::parse(baseline::serialize(fs));
  EXPECT_EQ(b.size(), 2u);
  for (const finding& f : lint_one("src/flock/fixture.hpp", src, {"R3"}))
    EXPECT_TRUE(b.matches(f)) << f.snippet;
  EXPECT_TRUE(b.unused().empty());
}

TEST(LintBaseline, StaleEntriesAreReported) {
  baseline b = baseline::parse(
      "# a comment line\n"
      "R3|src/flock/fixture.hpp|x.store(1, std::memory_order_relaxed);\n");
  const std::string src = R"lint(
void f(std::atomic<int>& x) {
  x.store(9, std::memory_order_relaxed);
}
)lint";
  for (finding& f : lint_one("src/flock/fixture.hpp", src, {"R3"}))
    EXPECT_FALSE(b.matches(f));  // edited line no longer matches
  EXPECT_EQ(b.unused().size(), 1u);  // ...so the entry is stale
}

TEST(LintBaseline, MatchNormalizesWhitespaceButNotContent) {
  const std::string src = R"lint(
void f(std::atomic<int>& x) {
      x.store( 1 ,   std::memory_order_relaxed );
}
)lint";
  auto fs = lint_one("src/flock/fixture.hpp", src, {"R3"});
  ASSERT_EQ(fs.size(), 1u);
  baseline b = baseline::parse(
      "R3|src/flock/fixture.hpp|  x.store( 1 , std::memory_order_relaxed "
      ");\n");
  EXPECT_TRUE(b.matches(fs[0]));
}

TEST(LintBaseline, MalformedLinesAreReportedNotSilentlyDropped) {
  std::vector<std::string> errors;
  baseline b = baseline::parse("R3 missing pipes entirely\n", &errors);
  EXPECT_EQ(b.size(), 0u);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("want RULE|path|snippet"), std::string::npos);
}

// --- engine plumbing --------------------------------------------------------

TEST(LintEngine, FindingsAreSortedAndRuleFilterWorks) {
  const std::string src = R"lint(
void op(lock_t& lk, std::atomic<int>& x) {
  with_lock(lk, [&] {
    x.store(1, std::memory_order_relaxed);  // R1 (and R3: src/flock path)
    return rand() != 0;                     // R2
  });
}
)lint";
  auto all = lint_one("src/flock/fixture.hpp", src);
  EXPECT_GE(count_rule(all, "R1"), 1);
  EXPECT_GE(count_rule(all, "R2"), 1);
  EXPECT_GE(count_rule(all, "R3"), 1);
  for (std::size_t i = 1; i < all.size(); i++) {
    EXPECT_LE(all[i - 1].path, all[i].path);
    if (all[i - 1].path == all[i].path) {
      EXPECT_LE(all[i - 1].line, all[i].line);
    }
  }
  EXPECT_EQ(count_rule(lint_one("src/flock/fixture.hpp", src, {"R2"}), "R1"),
            0);
}

}  // namespace
