// source_file.hpp — file model for flock-lint: path + content + line table.
//
// The lint library is deliberately filesystem-optional: rules operate on
// in-memory source_file objects so tests can drive the engine with embedded
// fixture snippets (tests/test_lint.cpp), and the CLI (flock_lint.cpp) is
// the only place that touches disk.
#pragma once

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace flock_lint {

struct source_file {
  std::string path;  // as reported in diagnostics (repo-relative in CI)
  std::string text;
  std::vector<std::string> lines;  // 1-based via line(n); split of `text`

  static source_file from_string(std::string p, std::string t) {
    source_file f;
    f.path = std::move(p);
    f.text = std::move(t);
    std::string cur;
    for (char c : f.text) {
      if (c == '\n') {
        f.lines.push_back(cur);
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
    if (!cur.empty()) f.lines.push_back(cur);
    return f;
  }

  static std::optional<source_file> load(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream ss;
    ss << in.rdbuf();
    return from_string(p, ss.str());
  }

  /// 1-based line text ("" past EOF).
  const std::string& line(int n) const {
    static const std::string empty;
    if (n < 1 || n > static_cast<int>(lines.size())) return empty;
    return lines[static_cast<std::size_t>(n - 1)];
  }
};

/// Whitespace-normalized form of a line: trimmed, inner runs collapsed to
/// one space (the snippet a finding prints under its diagnostic).
inline std::string normalize_ws(const std::string& s) {
  std::string out;
  bool in_space = false;
  for (char c : s) {
    if (c == ' ' || c == '\t' || c == '\r') {
      in_space = !out.empty();
    } else {
      if (in_space) out.push_back(' ');
      in_space = false;
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace flock_lint
