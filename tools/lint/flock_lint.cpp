// flock_lint — static analyzer enforcing rule R3: every weak memory
// order in the runtime, container and store layers carries a `// mo:`
// justification (see rules.hpp and ARCHITECTURE.md "Correctness
// tooling").
//
// Usage:
//   flock_lint [options] PATH...
//     PATH            file, or directory scanned recursively for
//                     .hpp/.h/.cpp/.cc (build*/ trees are skipped)
//   --list-rules      print the rule with its rationale and exit
//
// Exit status: 0 clean, 1 findings, 2 usage or I/O error. Diagnostics
// are `path:line: [R3] message` so terminals and editors link them.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

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
  std::vector<std::string> roots;

  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    if (a == "--list-rules") {
      for (const rule_doc& d : rule_docs())
        std::printf("%s  %s\n    %s\n", d.id, d.title, d.rationale);
      return 0;
    } else if (a == "--help" || a == "-h") {
      std::printf("usage: flock_lint [--list-rules] PATH...\n");
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

  std::vector<finding> findings = lint_files(files);
  for (const finding& f : findings) {
    std::printf("%s:%d: [%s] %s\n", f.path.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
    if (!f.snippet.empty())
      std::printf("    %s\n", f.snippet.c_str());
  }

  std::fprintf(stderr, "flock_lint: %d file%s, %zu finding%s\n",
               static_cast<int>(files.size()), files.size() == 1 ? "" : "s",
               findings.size(), findings.size() == 1 ? "" : "s");
  return findings.empty() ? 0 : 1;
}
