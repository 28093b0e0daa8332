// lexer.hpp — minimal C++ tokenizer for flock-lint.
//
// This is not a compiler front end: it produces just enough structure for
// rule R3 — identifiers, punctuation, literals, and comments, each with a
// line number. Comments are KEPT as tokens because R3 (memory-order
// justification) looks for `// mo:` text; literals are whole tokens, so
// an order named inside a string (a test fixture) is not an order.
//
// Handled: //- and /* */-comments, string/char literals with escapes, raw
// strings R"delim(...)delim", digit separators, line continuations inside
// literals (by virtue of scanning), preprocessor lines (lexed as ordinary
// tokens — R3 does not care). Not handled (documented limitations, all
// irrelevant to this codebase): trigraphs, UD-literal suffixes beyond
// identifier chars.
#pragma once

#include <cctype>
#include <string>
#include <vector>

#include "source_file.hpp"

namespace flock_lint {

enum class tok_kind {
  ident,    // identifiers and keywords
  number,   // numeric literal
  str,      // string literal, text includes quotes (and R"..." payload)
  chr,      // char literal
  comment,  // // or /* */ comment, text includes the markers
  punct,    // everything else, one character per token
};

struct token {
  tok_kind kind;
  std::string text;
  int line;  // 1-based line of the token's first character
};

namespace detail {

inline bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
inline bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace detail

inline std::vector<token> lex(const source_file& f) {
  std::vector<token> out;
  const std::string& s = f.text;
  const std::size_t n = s.size();
  int line = 1;
  std::size_t i = 0;

  auto advance_lines = [&](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to; k++)
      if (s[k] == '\n') line++;
  };

  while (i < n) {
    char c = s[i];
    if (c == '\n') {
      line++;
      i++;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      i++;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && s[i + 1] == '/') {
      std::size_t j = i;
      while (j < n && s[j] != '\n') j++;
      out.push_back({tok_kind::comment, s.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (c == '/' && i + 1 < n && s[i + 1] == '*') {
      std::size_t j = i + 2;
      while (j + 1 < n && !(s[j] == '*' && s[j + 1] == '/')) j++;
      j = (j + 1 < n) ? j + 2 : n;
      out.push_back({tok_kind::comment, s.substr(i, j - i), line});
      advance_lines(i, j);
      i = j;
      continue;
    }
    // Raw strings: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && s[i + 1] == '"') {
      std::size_t d = i + 2;
      while (d < n && s[d] != '(') d++;
      std::string delim = ")" + s.substr(i + 2, d - (i + 2)) + "\"";
      std::size_t j = d < n ? s.find(delim, d) : std::string::npos;
      j = (j == std::string::npos) ? n : j + delim.size();
      out.push_back({tok_kind::str, s.substr(i, j - i), line});
      advance_lines(i, j);
      i = j;
      continue;
    }
    // String/char literals (with escape handling).
    if (c == '"' || c == '\'') {
      std::size_t j = i + 1;
      while (j < n && s[j] != c) {
        if (s[j] == '\\' && j + 1 < n) j++;
        j++;
      }
      j = (j < n) ? j + 1 : n;
      out.push_back({c == '"' ? tok_kind::str : tok_kind::chr,
                     s.substr(i, j - i), line});
      advance_lines(i, j);
      i = j;
      continue;
    }
    // Identifiers / keywords.
    if (detail::ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && detail::ident_char(s[j])) j++;
      out.push_back({tok_kind::ident, s.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Numbers (incl. hex, digit separators; good enough — rules never
    // inspect numeric values).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i + 1;
      while (j < n && (detail::ident_char(s[j]) || s[j] == '\'' ||
                       ((s[j] == '+' || s[j] == '-') &&
                        (s[j - 1] == 'e' || s[j - 1] == 'E' ||
                         s[j - 1] == 'p' || s[j - 1] == 'P'))))
        j++;
      out.push_back({tok_kind::number, s.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuation, one character per token: R3 only looks at ; { and }.
    out.push_back({tok_kind::punct, std::string(1, c), line});
    i++;
  }
  return out;
}

}  // namespace flock_lint
