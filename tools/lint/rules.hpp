// rules.hpp — the flock-lint rule engine.
//
// Four rules enforce the discipline that the lock-free-locks reproduction
// otherwise states only in comments (see ARCHITECTURE.md "Correctness
// tooling" and the per-rule rationale strings below):
//
//   R1  no raw atomics / volatile / raw new-delete inside CS lambdas
//   R2  no non-idempotent calls (RNG, clocks, env, sleeps, mutable
//       static locals) inside CS lambdas
//   R3  every relaxed/acquire/release/acq_rel memory order in src/flock/,
//       src/ds/, and src/store/ carries a `// mo:` justification comment
//   R4  faultpoint name registry: well-formed, single-file, kind-unique,
//       and every name armed by tests resolves to a real fault point
//
// R1–R3 are per-file; R4 needs the whole file set (a corpus rule).
// Everything is lexical: no type information, no preprocessing. Escapes
// that the lexical level cannot see (e.g. a bare `.load()` on a
// std::atomic member, which is spelled identically to the sanctioned
// mutable_<T>::load()) are out of scope and documented; escapes the rules
// DO see but that are correct by a human argument go into the baseline
// file (baseline.hpp) with a comment — the rule itself is never weakened.
#pragma once

#include <algorithm>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"
#include "regions.hpp"
#include "source_file.hpp"

namespace flock_lint {

struct finding {
  std::string rule;     // "R1".."R4"
  std::string path;
  int line;
  std::string message;
  std::string snippet;  // normalized source line (baseline match key)
};

struct rule_doc {
  const char* id;
  const char* title;
  const char* rationale;
};

inline const std::vector<rule_doc>& rule_docs() {
  static const std::vector<rule_doc> docs = {
      {"R1", "no raw atomics / volatile / raw new-delete in CS lambdas",
       "Critical sections run as thunks that helpers may replay "
       "(Ben-David/Blelloch/Wei, PPoPP 2022, Definition 1). A raw atomic "
       "op, volatile access, or unlogged allocation executes its effect "
       "once per REPLAY instead of once per operation; shared access must "
       "go through mutable_/write_once/commit_value and allocation through "
       "the idempotent pool (flock::allocate/pool_new/array_new, retire)."},
      {"R2", "no non-idempotent calls where thunk code runs",
       "rand()/clocks/getenv/sleeps and mutable static locals return "
       "different values on replay, so two runs of the same thunk diverge "
       "and the helping protocol's lockstep argument collapses."},
      {"R3", "every relaxed/acquire/release/acq_rel order is justified",
       "Non-seq_cst orderings in the runtime, structure, and store "
       "layers are individually "
       "load-bearing; each use must carry a `// mo:` comment (same "
       "statement or just above) explaining why the weaker order is "
       "sufficient, or a reviewed baseline entry."},
      {"R4", "faultpoint name registry is consistent",
       "chaos::arm(\"typo\") silently never fires (the registry interns "
       "names on first crossing), so a misspelled point name turns a "
       "chaos test into a no-op. Names must be well-formed dotted "
       "lower-case, live in one file, keep one kind (fault vs sched), and "
       "every armed name must exist as a real fault point."},
  };
  return docs;
}

struct lint_config {
  std::set<std::string> entry_points = default_entry_points();
  // R3 applies only to files whose path contains one of these substrings:
  // the runtime layer plus the container and store tiers, where orderings
  // (lock words, migration publication, seqlock version words) are
  // load-bearing.
  std::vector<std::string> r3_path_substrs = {"src/flock/", "src/ds/",
                                              "src/store/"};
  // Empty = run all rules; else run only these ids.
  std::set<std::string> only_rules;

  bool enabled(const char* id) const {
    return only_rules.empty() || only_rules.count(id) != 0;
  }

  bool r3_covers(const std::string& path) const {
    for (const std::string& s : r3_path_substrs)
      if (path.find(s) != std::string::npos) return true;
    return false;
  }
};

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

/// Does the statement containing token k mention identifier `name`?
inline bool stmt_contains(const std::vector<token>& t, std::size_t k,
                          const std::string& name) {
  auto is_break = [&](std::size_t i) {
    return t[i].kind == tok_kind::punct &&
           (t[i].text == ";" || t[i].text == "{" || t[i].text == "}");
  };
  for (std::size_t i = k; i-- > 0;) {
    if (is_break(i)) break;
    if (t[i].kind == tok_kind::ident && t[i].text == name) return true;
  }
  for (std::size_t i = k; i < t.size(); i++) {
    if (is_break(i)) break;
    if (t[i].kind == tok_kind::ident && t[i].text == name) return true;
  }
  return false;
}

inline bool is_memory_order_ident(const std::string& s) {
  return s == "memory_order_relaxed" || s == "memory_order_acquire" ||
         s == "memory_order_release" || s == "memory_order_acq_rel" ||
         s == "memory_order_seq_cst" || s == "memory_order_consume" ||
         s == "__ATOMIC_RELAXED" || s == "__ATOMIC_ACQUIRE" ||
         s == "__ATOMIC_RELEASE" || s == "__ATOMIC_ACQ_REL" ||
         s == "__ATOMIC_SEQ_CST" || s == "__ATOMIC_CONSUME";
}

/// The non-seq_cst subset R3 demands justification for.
inline bool is_weak_order_ident(const std::string& s) {
  return s == "memory_order_relaxed" || s == "memory_order_acquire" ||
         s == "memory_order_release" || s == "memory_order_acq_rel" ||
         s == "__ATOMIC_RELAXED" || s == "__ATOMIC_ACQUIRE" ||
         s == "__ATOMIC_RELEASE" || s == "__ATOMIC_ACQ_REL";
}

// --- R1 -------------------------------------------------------------------

inline void run_r1(const source_file& f, const std::vector<token>& t,
                   const std::vector<region>& rs, std::vector<finding>& out) {
  static const std::set<std::string> rmw = {
      "fetch_add", "fetch_sub", "fetch_and",       "fetch_or",
      "fetch_xor", "exchange",  "test_and_set",    "compare_exchange_weak",
      "compare_exchange_strong"};
  for (std::size_t k = 0; k < t.size(); k++) {
    if (!in_region(rs, k) || t[k].kind == tok_kind::comment) continue;
    const std::string& x = t[k].text;
    if (t[k].kind == tok_kind::ident) {
      if (is_memory_order_ident(x)) {
        // flock::commit_value(raw.load(acquire)) is the sanctioned way to
        // fold a raw atomic read into the thunk's log — skip those.
        if (!stmt_contains(t, k, "commit_value"))
          add(out, f, "R1", t[k].line,
              "raw atomic operation (explicit " + x +
                  ") inside a critical-section lambda; use "
                  "mutable_/write_once/commit_value");
        continue;
      }
      if (rmw.count(x) != 0) {
        std::size_t p = prev_code(t, k);
        if (p != std::string::npos && t[p].kind == tok_kind::punct &&
            (t[p].text == "." || t[p].text == "->"))
          add(out, f, "R1", t[k].line,
              "raw atomic RMW `." + x +
                  "` inside a critical-section lambda; effects must be "
                  "idempotent — use mutable_::store/cam");
        continue;
      }
      if (x.rfind("__atomic_", 0) == 0) {
        add(out, f, "R1", t[k].line,
            "raw __atomic builtin inside a critical-section lambda");
        continue;
      }
      if (x == "volatile") {
        add(out, f, "R1", t[k].line,
            "volatile access inside a critical-section lambda (not a "
            "synchronization primitive, not logged)");
        continue;
      }
      if (x == "new" || x == "delete") {
        std::size_t p = prev_code(t, k);
        // `= delete` member suppression; also skips the (never valid in a
        // CS body anyway) `= new` initializer shape only for `delete`.
        if (x == "delete" && p != std::string::npos &&
            t[p].kind == tok_kind::punct && t[p].text == "=")
          continue;
        add(out, f, "R1", t[k].line,
            "raw `" + x +
                "` inside a critical-section lambda; replays would " +
                (x == "new" ? std::string("allocate again — use "
                              "flock::allocate/pool_new/array_new")
                            : std::string("double-free — use "
                              "flock::retire/pool_delete")));
        continue;
      }
    }
  }
}

// --- R2 -------------------------------------------------------------------

inline void run_r2(const source_file& f, const std::vector<token>& t,
                   const std::vector<region>& rs, std::vector<finding>& out) {
  static const std::set<std::string> banned_calls = {
      "rand",   "srand",        "rand_r",  "drand48", "lrand48",
      "random", "time",         "clock",   "gettimeofday",
      "clock_gettime",          "getenv",  "system",  "usleep",
      "nanosleep",              "sleep"};
  static const std::set<std::string> banned_anywhere = {
      "random_device", "sleep_for", "sleep_until", "mt19937", "mt19937_64"};
  for (std::size_t k = 0; k < t.size(); k++) {
    if (!in_region(rs, k) || t[k].kind != tok_kind::ident) continue;
    const std::string& x = t[k].text;
    if (banned_anywhere.count(x) != 0) {
      add(out, f, "R2", t[k].line,
          "non-idempotent `" + x +
              "` inside a critical-section lambda; replays would observe "
              "different values");
      continue;
    }
    if (banned_calls.count(x) != 0) {
      std::size_t p = prev_code(t, k);
      std::size_t nx = next_code(t, k + 1);
      bool member = p != std::string::npos && t[p].kind == tok_kind::punct &&
                    (t[p].text == "." || t[p].text == "->");
      bool call = nx < t.size() && t[nx].kind == tok_kind::punct &&
                  t[nx].text == "(";
      if (!member && call)
        add(out, f, "R2", t[k].line,
            "non-idempotent call `" + x +
                "()` inside a critical-section lambda");
      continue;
    }
    if (x == "now") {
      std::size_t p = prev_code(t, k);
      if (p != std::string::npos && t[p].kind == tok_kind::punct &&
          t[p].text == "::")
        add(out, f, "R2", t[k].line,
            "wall-clock read (`::now()`) inside a critical-section lambda");
      continue;
    }
    if (x == "static") {
      // `static const`/`static constexpr` locals are immutable and fine;
      // anything else is per-process mutable state shared across replays.
      std::size_t nx = next_code(t, k + 1);
      if (nx < t.size() && t[nx].kind == tok_kind::ident &&
          (t[nx].text == "const" || t[nx].text == "constexpr" ||
           t[nx].text == "constinit"))
        continue;
      add(out, f, "R2", t[k].line,
          "mutable `static` local inside a critical-section lambda");
      continue;
    }
  }
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

// --- R4 -------------------------------------------------------------------

struct point_decl {
  std::string file;
  int line;
  bool is_sched;
};

inline std::string unquote(const std::string& s) {
  if (s.size() >= 2 && s.front() == '"' && s.back() == '"')
    return s.substr(1, s.size() - 2);
  return s;
}

inline void run_r4(const std::vector<source_file>& files,
                   const std::vector<std::vector<token>>& toks,
                   std::vector<finding>& out) {
  static const std::regex well_formed(
      "[a-z][a-z0-9_]*(\\.[a-z0-9_]+)+");
  // name -> declarations (a name may legitimately mark the same protocol
  // window at several sites in ONE file, e.g. lock.install.post).
  std::map<std::string, std::vector<point_decl>> decls;
  struct armed_use {
    std::string name, file;
    int line;
  };
  std::vector<armed_use> armed;

  for (std::size_t fi = 0; fi < files.size(); fi++) {
    const std::vector<token>& t = toks[fi];
    for (std::size_t k = 0; k + 2 < t.size(); k++) {
      if (t[k].kind != tok_kind::ident) continue;
      const std::string& x = t[k].text;
      bool is_point = x == "FLOCK_FAULTPOINT" ||
                      x == "FLOCK_FAULTPOINT_ALLOC_FAIL" ||
                      x == "FLOCK_SCHEDPOINT";
      bool is_arm = x == "arm" || x == "hits";
      if (!is_point && !is_arm) continue;
      std::size_t paren = next_code(t, k + 1);
      if (paren >= t.size() || t[paren].text != "(") continue;
      std::size_t arg = next_code(t, paren + 1);
      if (arg >= t.size() || t[arg].kind != tok_kind::str)
        continue;  // macro definition site or a variable name — skip
      std::string name = unquote(t[arg].text);
      if (is_point) {
        if (!std::regex_match(name, well_formed))
          out.push_back({"R4", files[fi].path, t[k].line,
                         "fault point name \"" + name +
                             "\" is not well-formed (want dotted lower-case "
                             "segments, e.g. \"ht.grow.pre_publish\")",
                         normalize_ws(files[fi].line(t[k].line))});
        decls[name].push_back(
            {files[fi].path, t[k].line, x == "FLOCK_SCHEDPOINT"});
      } else {
        armed.push_back({name, files[fi].path, t[k].line});
      }
    }
  }

  for (const auto& [name, ds] : decls) {
    std::set<std::string> in_files;
    bool sched = false, fault = false;
    for (const point_decl& d : ds) {
      in_files.insert(d.file);
      (d.is_sched ? sched : fault) = true;
    }
    if (in_files.size() > 1) {
      const point_decl& d = ds.back();
      out.push_back({"R4", d.file, d.line,
                     "fault point \"" + name + "\" is declared in " +
                         std::to_string(in_files.size()) +
                         " files — one window, one owning file",
                     ""});
    }
    if (sched && fault) {
      const point_decl& d = ds.back();
      out.push_back({"R4", d.file, d.line,
                     "\"" + name +
                         "\" is used as both FLOCK_FAULTPOINT and "
                         "FLOCK_SCHEDPOINT — schedpoints have no fault "
                         "registry entry, so arming this name is ambiguous",
                     ""});
    }
  }

  for (const armed_use& a : armed) {
    auto it = decls.find(a.name);
    bool fault_exists = false;
    if (it != decls.end())
      for (const point_decl& d : it->second)
        if (!d.is_sched) fault_exists = true;
    if (!fault_exists) {
      std::string why =
          it == decls.end()
              ? "no such fault point exists anywhere — the plan never fires"
              : "the name only exists as a FLOCK_SCHEDPOINT, which has no "
                "fault registry entry — the plan never fires";
      // Find the file to grab a snippet from.
      std::string snip;
      for (const source_file& f : files)
        if (f.path == a.file) snip = normalize_ws(f.line(a.line));
      out.push_back({"R4", a.file, a.line,
                     "armed fault point \"" + a.name + "\": " + why, snip});
    }
  }
}

}  // namespace detail

/// Run all enabled rules over a file set. R1–R3 run per file, R4 over
/// the corpus. Findings come back sorted by (path, line, rule).
inline std::vector<finding> lint_files(const std::vector<source_file>& files,
                                       const lint_config& cfg = {}) {
  std::vector<finding> out;
  std::vector<std::vector<token>> toks;
  toks.reserve(files.size());
  for (const source_file& f : files) toks.push_back(lex(f));

  for (std::size_t i = 0; i < files.size(); i++) {
    const source_file& f = files[i];
    const std::vector<token>& t = toks[i];
    if (cfg.enabled("R1") || cfg.enabled("R2")) {
      std::vector<region> rs = cs_regions(t, cfg.entry_points);
      if (cfg.enabled("R1")) detail::run_r1(f, t, rs, out);
      if (cfg.enabled("R2")) detail::run_r2(f, t, rs, out);
    }
    if (cfg.enabled("R3") && cfg.r3_covers(f.path))
      detail::run_r3(f, t, out);
  }
  if (cfg.enabled("R4")) detail::run_r4(files, toks, out);

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
