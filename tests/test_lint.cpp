// Drives the flock-lint rule engine (tools/lint/) as a library, with
// embedded fixture snippets: rule R3 gets firing and passing fixtures.
//
// Fixtures live in raw strings, so the real flock_lint run over tests/
// sees them as single string tokens and does not lint their contents.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rules.hpp"

namespace {

using flock_lint::finding;
using flock_lint::lint_files;
using flock_lint::source_file;

std::vector<finding> lint_one(const std::string& path,
                              const std::string& text) {
  return lint_files({source_file::from_string(path, text)});
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

// --- R3: weak memory orders need an `// mo:` justification ------------------

TEST(LintR3, FiresOnUnjustifiedWeakOrderInRuntimeLayer) {
  const std::string src = R"lint(
void f(std::atomic<int>& x) {
  x.store(1, std::memory_order_relaxed);
}
)lint";
  auto fs = lint_one("src/flock/fixture.hpp", src);
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
  EXPECT_EQ(count_rule(lint_one("src/flock/fixture.hpp", src), "R3"),
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
  EXPECT_EQ(count_rule(lint_one("src/flock/fixture.hpp", src), "R3"), 1);
  EXPECT_EQ(count_rule(lint_one("src/ds/fixture.hpp", src), "R3"), 1);
  EXPECT_EQ(count_rule(lint_one("src/store/fixture.hpp", src), "R3"), 1);
  EXPECT_EQ(count_rule(lint_one("bench/fixture.hpp", src), "R3"), 0);
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
  EXPECT_EQ(count_rule(lint_one("src/flock/fixture.hpp", src), "R3"),
            1);
}

// --- engine plumbing --------------------------------------------------------

TEST(LintEngine, FindingsAreSortedAndCarryTheSourceLine) {
  const std::string src = R"lint(
void f(std::atomic<int>& x) {
  x.store(2,   std::memory_order_release);
  x.store(1, std::memory_order_relaxed);
}
)lint";
  const std::string other = R"lint(
void g(std::atomic<int>& y) { y.store(1, std::memory_order_relaxed); }
)lint";
  auto all = lint_files({source_file::from_string("src/ds/z.hpp", other),
                         source_file::from_string("src/ds/a.hpp", src)});
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].path, "src/ds/a.hpp");
  EXPECT_EQ(all[0].line, 3);
  EXPECT_EQ(all[0].snippet, "x.store(2, std::memory_order_release);");
  EXPECT_EQ(all[1].line, 4);
  EXPECT_EQ(all[2].path, "src/ds/z.hpp");
}

}  // namespace
