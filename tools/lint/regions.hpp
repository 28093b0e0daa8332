// regions.hpp — classifies critical-section (CS) lambda regions.
//
// A CS region is the body of a lambda passed (possibly not as the first
// argument) to one of the lock entry points: flock::try_lock,
// flock::strict_lock, flock::acquire<Strict> (a template argument list may
// sit between the name and the call), or with_lock. Code inside such a
// lambda is a thunk in the paper's sense — it may be replayed by helpers,
// so it must obey the idempotence discipline rules R1/R2 check.
//
// The classifier is lexical and intra-procedural: a helper function CALLED
// from a CS lambda is not classified (its body is not in the region). That
// is a documented limitation — the repo convention is that such helpers
// either live next to the CS and state their discipline (e.g.
// hashtable.hpp copy_chain) or are part of the sanctioned flock API.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace flock_lint {

struct region {
  std::size_t begin_tok;  // first token INSIDE the lambda body
  std::size_t end_tok;    // one past the last token inside the body
  int begin_line;
  int end_line;
  std::string entry;  // the entry-point identifier that owns the lambda
};

inline const std::set<std::string>& default_entry_points() {
  static const std::set<std::string> s = {"try_lock", "strict_lock",
                                          "with_lock", "acquire"};
  return s;
}

namespace detail {

/// With t[i] == "<" opening an explicit template argument list, return the
/// index one past its closing ">" (t.size() if unbalanced).
inline std::size_t skip_template_args(const std::vector<token>& t,
                                      std::size_t i) {
  int depth = 0;
  for (; i < t.size(); i++) {
    if (t[i].kind != tok_kind::punct) continue;
    if (t[i].text == "<") depth++;
    if (t[i].text == ">") depth--;
    if (t[i].text == ">>") depth -= 2;
    if (depth <= 0) return i + 1;
  }
  return t.size();
}

/// With t[i] == "[" of a candidate lambda-introducer, find the body and
/// append a region. Returns one past the body's closing "}" (or i+1 if the
/// shape is not a lambda).
inline std::size_t capture_lambda(const std::vector<token>& t, std::size_t i,
                                  const std::string& entry,
                                  std::vector<region>& out) {
  // Skip the capture list [...] (may nest brackets, e.g. [x = a[0]]).
  std::size_t j = i + 1;
  int depth = 1;
  while (j < t.size() && depth > 0) {
    if (t[j].kind == tok_kind::punct) {
      if (t[j].text == "[") depth++;
      if (t[j].text == "]") depth--;
    }
    j++;
  }
  j = next_code(t, j);
  // Optional parameter list.
  if (j < t.size() && t[j].kind == tok_kind::punct && t[j].text == "(") {
    int pd = 1;
    j++;
    while (j < t.size() && pd > 0) {
      if (t[j].kind == tok_kind::punct) {
        if (t[j].text == "(") pd++;
        if (t[j].text == ")") pd--;
      }
      j++;
    }
    j = next_code(t, j);
  }
  // Optional specifiers / trailing return type up to the body brace.
  while (j < t.size() && !(t[j].kind == tok_kind::punct && t[j].text == "{")) {
    // Only identifiers (mutable, noexcept, type names) and -> :: < > ( )
    // appear here; hitting ; , or ] means this was not a lambda after all.
    if (t[j].kind == tok_kind::punct &&
        (t[j].text == ";" || t[j].text == "," || t[j].text == "]"))
      return i + 1;
    j++;
  }
  if (j >= t.size()) return i + 1;
  std::size_t body_open = j;
  int bd = 1;
  j++;
  std::size_t body_begin = j;
  while (j < t.size() && bd > 0) {
    if (t[j].kind == tok_kind::punct) {
      if (t[j].text == "{") bd++;
      if (t[j].text == "}") bd--;
    }
    j++;
  }
  std::size_t body_end = (j > 0) ? j - 1 : 0;  // the closing "}"
  out.push_back({body_begin, body_end, t[body_open].line,
                 body_end < t.size() ? t[body_end].line : t.back().line,
                 entry});
  return j;
}

}  // namespace detail

/// Find all CS-lambda body regions in a token stream. Nested CS lambdas
/// (hand-over-hand locking) each produce their own region; the nesting
/// overlap is harmless because rules deduplicate findings per token.
inline std::vector<region> cs_regions(
    const std::vector<token>& t,
    const std::set<std::string>& entries = default_entry_points()) {
  std::vector<region> out;
  for (std::size_t i = 0; i < t.size(); i++) {
    if (t[i].kind != tok_kind::ident || entries.count(t[i].text) == 0)
      continue;
    // Require a call: next code token is "(". Rules out declarations of
    // the entry-point functions themselves ("bool try_lock(F&& f)") only
    // when followed by a type — cheap disambiguation: a call argument
    // list that contains a lambda is what we capture; a declaration
    // contains no lambda, so capturing nothing is the right outcome
    // either way.
    std::size_t call = next_code(t, i + 1);
    if (call < t.size() && t[call].kind == tok_kind::punct &&
        t[call].text == "<")
      call = next_code(t, detail::skip_template_args(t, call));
    if (call >= t.size() || t[call].kind != tok_kind::punct ||
        t[call].text != "(")
      continue;
    // Walk the balanced argument list; any lambda-introducer "[" directly
    // following "(" or "," (i.e. starting an argument) is a CS thunk.
    int depth = 1;
    std::size_t j = call + 1;
    while (j < t.size() && depth > 0) {
      if (t[j].kind == tok_kind::punct) {
        if (t[j].text == "(") depth++;
        if (t[j].text == ")") depth--;
        if (t[j].text == "[" && depth >= 1) {
          std::size_t prev = prev_code(t, j);
          if (prev != std::string::npos && t[prev].kind == tok_kind::punct &&
              (t[prev].text == "(" || t[prev].text == ",")) {
            j = detail::capture_lambda(t, j, t[i].text, out);
            continue;
          }
        }
      }
      j++;
    }
  }
  return out;
}

/// True if token index k falls inside any region.
inline bool in_region(const std::vector<region>& rs, std::size_t k) {
  for (const region& r : rs)
    if (k >= r.begin_tok && k < r.end_tok) return true;
  return false;
}

}  // namespace flock_lint
