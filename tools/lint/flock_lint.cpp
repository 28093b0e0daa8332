// flock_lint — static analyzer enforcing the flock idempotence &
// memory-discipline rules (R1–R3, see rules.hpp and ARCHITECTURE.md
// "Correctness tooling").
//
// Usage:
//   flock_lint [options] PATH...
//     PATH            file, or directory scanned recursively for
//                     .hpp/.h/.cpp/.cc (build*/ trees are skipped)
//   --baseline FILE   reviewed-escape list (baseline.hpp format); covered
//                     findings are suppressed, stale entries fail the run
//   --write-baseline FILE
//                     write current findings as baseline entries and exit 0
//   --rules R1,R3     run only the named rules
//   --list-rules      print each rule with its rationale and exit
//
// Exit status: 0 clean, 1 findings (or stale baseline entries), 2 usage
// or I/O error. Diagnostics are `path:line: [Rn] message` so terminals
// and editors link them.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "rules.hpp"

namespace fs = std::filesystem;
using namespace flock_lint;

namespace {

bool has_source_ext(const fs::path& p) {
  const std::string e = p.extension().string();
  return e == ".hpp" || e == ".h" || e == ".cpp" || e == ".cc";
}

bool skipped_dir(const fs::path& p) {
  const std::string name = p.filename().string();
  return name.rfind("build", 0) == 0 || name == ".git";
}

int collect(const std::string& root, std::vector<source_file>& out) {
  fs::path rp(root);
  std::error_code ec;
  if (fs::is_regular_file(rp, ec)) {
    auto f = source_file::load(root);
    if (!f) {
      std::fprintf(stderr, "flock_lint: cannot read %s\n", root.c_str());
      return 2;
    }
    out.push_back(std::move(*f));
    return 0;
  }
  if (!fs::is_directory(rp, ec)) {
    std::fprintf(stderr, "flock_lint: no such file or directory: %s\n",
                 root.c_str());
    return 2;
  }
  std::vector<std::string> paths;
  fs::recursive_directory_iterator it(rp, ec), end;
  for (; it != end; it.increment(ec)) {
    if (ec) break;
    if (it->is_directory() && skipped_dir(it->path())) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && has_source_ext(it->path()))
      paths.push_back(it->path().generic_string());
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& p : paths) {
    auto f = source_file::load(p);
    if (!f) {
      std::fprintf(stderr, "flock_lint: cannot read %s\n", p.c_str());
      return 2;
    }
    out.push_back(std::move(*f));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path, write_baseline_path;
  lint_config cfg;
  std::vector<std::string> roots;

  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    auto need_arg = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flock_lint: %s needs an argument\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--baseline") {
      baseline_path = need_arg();
    } else if (a == "--write-baseline") {
      write_baseline_path = need_arg();
    } else if (a == "--rules") {
      std::string list = need_arg();
      std::size_t pos = 0;
      while (pos < list.size()) {
        std::size_t c = list.find(',', pos);
        if (c == std::string::npos) c = list.size();
        if (c > pos) cfg.only_rules.insert(list.substr(pos, c - pos));
        pos = c + 1;
      }
    } else if (a == "--list-rules") {
      for (const rule_doc& d : rule_docs())
        std::printf("%s  %s\n    %s\n", d.id, d.title, d.rationale);
      return 0;
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "usage: flock_lint [--baseline FILE] [--write-baseline FILE]\n"
          "                  [--rules R1,..] [--list-rules] PATH...\n");
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "flock_lint: unknown option %s\n", a.c_str());
      return 2;
    } else {
      roots.push_back(a);
    }
  }
  if (roots.empty()) {
    std::fprintf(stderr, "flock_lint: no paths given (try --help)\n");
    return 2;
  }

  std::vector<source_file> files;
  for (const std::string& r : roots)
    if (int rc = collect(r, files); rc != 0) return rc;

  std::vector<finding> findings = lint_files(files, cfg);

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path);
    if (!out) {
      std::fprintf(stderr, "flock_lint: cannot write %s\n",
                   write_baseline_path.c_str());
      return 2;
    }
    out << baseline::serialize(findings);
    std::fprintf(stderr, "flock_lint: wrote %zu entr%s to %s\n",
                 findings.size(), findings.size() == 1 ? "y" : "ies",
                 write_baseline_path.c_str());
    return 0;
  }

  baseline bl;
  if (!baseline_path.empty()) {
    auto bf = source_file::load(baseline_path);
    if (!bf) {
      std::fprintf(stderr, "flock_lint: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::vector<std::string> errs;
    bl = baseline::parse(bf->text, &errs);
    for (const std::string& e : errs)
      std::fprintf(stderr, "flock_lint: %s\n", e.c_str());
    if (!errs.empty()) return 2;
  }

  int reported = 0, suppressed = 0;
  for (const finding& f : findings) {
    if (bl.matches(f)) {
      suppressed++;
      continue;
    }
    std::printf("%s:%d: [%s] %s\n", f.path.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
    if (!f.snippet.empty())
      std::printf("    %s\n", f.snippet.c_str());
    reported++;
  }

  std::vector<std::string> stale = bl.unused();
  for (const std::string& s : stale)
    std::printf("flock_lint: stale baseline entry (no matching finding — "
                "prune or re-review): %s\n",
                s.c_str());

  std::fprintf(stderr,
               "flock_lint: %d file%s, %d finding%s, %d baselined, %zu "
               "stale baseline entr%s\n",
               static_cast<int>(files.size()), files.size() == 1 ? "" : "s",
               reported, reported == 1 ? "" : "s", suppressed, stale.size(),
               stale.size() == 1 ? "y" : "ies");
  return (reported > 0 || !stale.empty()) ? 1 : 0;
}
