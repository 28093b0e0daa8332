// rules.hpp — the flock-lint rule engine: one rule.
//
//   R3  every relaxed/acquire/release/acq_rel memory order in src/flock/,
//       src/ds/, and src/store/ carries a `// mo:` justification comment
//
// R3 is per-file and lexical: no type information, no preprocessing. Its
// only escape is the `// mo:` comment itself. It is the one discipline
// no run can check: a weaker order that happens to work on this machine
// passes every test, so the argument for it must be written down where
// the order is. Idempotence (Definition 1) is not a lint rule: every
// test build replays every lock-free critical section and aborts on a
// divergent run (flock/descriptor.hpp, ARCHITECTURE.md "Correctness
// tooling").
#pragma once

#include <algorithm>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"
#include "source_file.hpp"

namespace flock_lint {

struct finding {
  std::string rule;     // "R3"
  std::string path;
  int line;
  std::string message;
  std::string snippet;  // the source line, whitespace-collapsed
};

struct rule_doc {
  const char* id;
  const char* title;
  const char* rationale;
};

inline const std::vector<rule_doc>& rule_docs() {
  static const std::vector<rule_doc> docs = {
      {"R3", "every relaxed/acquire/release/acq_rel order is justified",
       "Non-seq_cst orderings in the runtime, structure, and store "
       "layers are individually "
       "load-bearing; each use must carry a `// mo:` comment (same "
       "statement or just above) explaining why the weaker order is "
       "sufficient."},
  };
  return docs;
}

/// R3 applies only to files whose path contains src/flock/, src/ds/ or
/// src/store/: the runtime layer plus the container and store tiers, where
/// orderings (lock words, migration publication, resize counters) are
/// load-bearing.
inline bool r3_covers(const std::string& path) {
  for (const char* sub : {"src/flock/", "src/ds/", "src/store/"})
    if (path.find(sub) != std::string::npos) return true;
  return false;
}

namespace detail {

inline void add(std::vector<finding>& out, const source_file& f,
                const char* rule, int line, std::string msg) {
  out.push_back({rule, f.path, line, std::move(msg),
                 normalize_ws(f.line(line))});
}

/// First line of the statement containing token k (statement = tokens
/// since the previous ; { or }).
inline int stmt_first_line(const std::vector<token>& t, std::size_t k) {
  int ln = t[k].line;
  for (std::size_t i = k; i-- > 0;) {
    if (t[i].kind == tok_kind::comment) continue;
    if (t[i].kind == tok_kind::punct &&
        (t[i].text == ";" || t[i].text == "{" || t[i].text == "}"))
      break;
    ln = t[i].line;
  }
  return ln;
}

/// The non-seq_cst subset R3 demands justification for.
inline bool is_weak_order_ident(const std::string& s) {
  return s == "memory_order_relaxed" || s == "memory_order_acquire" ||
         s == "memory_order_release" || s == "memory_order_acq_rel" ||
         s == "__ATOMIC_RELAXED" || s == "__ATOMIC_ACQUIRE" ||
         s == "__ATOMIC_RELEASE" || s == "__ATOMIC_ACQ_REL";
}

// --- R3 -------------------------------------------------------------------

inline void run_r3(const source_file& f, const std::vector<token>& t,
                   std::vector<finding>& out) {
  // Lines carrying an `mo:` justification comment.
  std::set<int> mo_lines;
  for (const token& tk : t) {
    if (tk.kind == tok_kind::comment && tk.text.find("mo:") != std::string::npos) {
      // A block comment may span lines; credit every line it touches.
      int ln = tk.line;
      mo_lines.insert(ln);
      for (char c : tk.text)
        if (c == '\n') mo_lines.insert(++ln);
    }
  }
  for (std::size_t k = 0; k < t.size(); k++) {
    if (t[k].kind != tok_kind::ident || !is_weak_order_ident(t[k].text))
      continue;
    const int first = stmt_first_line(t, k);
    bool justified = false;
    // Accept a justification anywhere from three lines above the
    // statement through the line of the order token itself (trailing
    // comments included — they lex on the same line).
    for (int ln = first - 3; ln <= t[k].line && !justified; ln++)
      justified = mo_lines.count(ln) != 0;
    if (!justified)
      add(out, f, "R3", t[k].line,
          "`" + t[k].text +
              "` without an `// mo:` justification comment (same statement "
              "or the lines just above)");
  }
}

}  // namespace detail

/// Run R3 over a file set, file by file. Findings come back sorted by
/// (path, line).
inline std::vector<finding> lint_files(
    const std::vector<source_file>& files) {
  std::vector<finding> out;
  for (const source_file& f : files)
    if (r3_covers(f.path)) detail::run_r3(f, lex(f), out);

  std::sort(out.begin(), out.end(), [](const finding& a, const finding& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const finding& a, const finding& b) {
                          return a.path == b.path && a.line == b.line &&
                                 a.rule == b.rule && a.message == b.message;
                        }),
            out.end());
  return out;
}

}  // namespace flock_lint
