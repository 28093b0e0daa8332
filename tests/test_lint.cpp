// Drives the flock-lint rule engine (tools/lint/) as a library, with
// embedded fixture snippets: every rule gets at least one firing and one
// passing fixture, the baseline machinery round-trips, and R4 is shown
// catching the exact bug it exists for — a typo'd faultpoint name whose
// chaos plan would silently never fire.
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
  // The justification discipline follows the weak orders: since the
  // optimistic read path put seqlock version words in src/ds/ and cached
  // version snapshots in src/store/, those trees are covered too. Code
  // outside the three layers (benches, tests, tools) stays exempt.
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

// --- R4: faultpoint name registry -------------------------------------------

// The acceptance demo: a typo'd name in an arm() call is caught. Without
// the rule, chaos::arm interns the misspelled name into the registry and
// the plan silently never fires — the chaos test degrades to a no-op.
TEST(LintR4, CatchesTypodFaultpointName) {
  auto runtime = source_file::from_string("src/flock/fixture.hpp", R"lint(
void acquire_slow() { FLOCK_FAULTPOINT("lock.fake.window"); }
)lint");
  auto test = source_file::from_string("tests/fixture.cpp", R"lint(
void arm_it() { chaos::arm("lock.fake.wndow", chaos::fault::stall); }
)lint");
  lint_config cfg;
  cfg.only_rules = {"R4"};
  auto fs = lint_files({runtime, test}, cfg);
  ASSERT_EQ(count_rule(fs, "R4"), 1);
  EXPECT_EQ(fs[0].path, "tests/fixture.cpp");
  EXPECT_NE(fs[0].message.find("lock.fake.wndow"), std::string::npos);
  EXPECT_NE(fs[0].message.find("never fires"), std::string::npos);
}

TEST(LintR4, CorrectlySpelledArmPasses) {
  auto runtime = source_file::from_string("src/flock/fixture.hpp", R"lint(
void acquire_slow() { FLOCK_FAULTPOINT("lock.fake.window"); }
)lint");
  auto test = source_file::from_string("tests/fixture.cpp", R"lint(
void arm_it() {
  chaos::arm("lock.fake.window", chaos::fault::stall);
  chaos::hits("lock.fake.window");
}
)lint");
  lint_config cfg;
  cfg.only_rules = {"R4"};
  EXPECT_EQ(count_rule(lint_files({runtime, test}, cfg), "R4"), 0);
}

TEST(LintR4, FlagsIllFormedNamesAndSchedOnlyArms) {
  auto f = source_file::from_string("src/flock/fixture.hpp", R"lint(
void a() { FLOCK_FAULTPOINT("BadName"); }
void b() { FLOCK_SCHEDPOINT("mut.fake.pre"); }
void c() { chaos::arm("mut.fake.pre", chaos::fault::stall); }
)lint");
  lint_config cfg;
  cfg.only_rules = {"R4"};
  auto fs = lint_files({f}, cfg);
  bool ill_formed = false, sched_only = false;
  for (const finding& x : fs) {
    ill_formed |= x.message.find("not well-formed") != std::string::npos;
    sched_only |=
        x.message.find("only exists as a FLOCK_SCHEDPOINT") != std::string::npos;
  }
  EXPECT_TRUE(ill_formed);
  EXPECT_TRUE(sched_only);
}

TEST(LintR4, FlagsMultiFileDeclarationButAllowsSameFileRepeats) {
  // Same name at several sites in ONE file marks one protocol window
  // (e.g. lock.install.post) — allowed. The same name in two files is a
  // registry collision — flagged.
  auto one = source_file::from_string("src/flock/one.hpp", R"lint(
void a() { FLOCK_FAULTPOINT("w.x.p"); }
void b() { FLOCK_FAULTPOINT("w.x.p"); }
)lint");
  lint_config cfg;
  cfg.only_rules = {"R4"};
  EXPECT_EQ(count_rule(lint_files({one}, cfg), "R4"), 0);

  auto two = source_file::from_string("src/flock/two.hpp", R"lint(
void c() { FLOCK_FAULTPOINT("w.x.p"); }
)lint");
  auto fs = lint_files({one, two}, cfg);
  ASSERT_EQ(count_rule(fs, "R4"), 1);
  EXPECT_NE(fs[0].message.find("2 files"), std::string::npos);
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
