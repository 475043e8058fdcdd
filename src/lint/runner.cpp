#include "lint/runner.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace smt::lint {

namespace {

[[nodiscard]] bool is_cpp_source(const std::string& path) {
  const auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::string(suffix).size();
    return path.size() >= n &&
           path.compare(path.size() - n, n, suffix) == 0;
  };
  if (!ends_with(".cpp") && !ends_with(".hpp")) return false;
  return path.rfind("src/", 0) == 0 || path.rfind("bench/", 0) == 0;
}

}  // namespace

LintResult run_lint(const RuleRegistry& registry,
                    std::vector<InputFile> inputs) {
  std::sort(inputs.begin(), inputs.end(),
            [](const InputFile& a, const InputFile& b) {
              return a.path < b.path;
            });

  Corpus corpus;
  for (const InputFile& in : inputs) {
    if (is_cpp_source(in.path)) {
      corpus.sources.emplace_back(in.path, in.content);
    }
  }

  LintResult result;
  result.files_scanned = static_cast<int>(corpus.sources.size());
  result.rules_run = static_cast<int>(registry.rules().size());

  std::vector<Finding>& findings = result.findings;
  for (const auto& rule : registry.rules()) {
    for (const SourceFile& f : corpus.sources) rule->check(f, findings);
    rule->finish(corpus, findings);
  }
  std::sort(findings.begin(), findings.end(), finding_less);
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return !finding_less(a, b) &&
                                      !finding_less(b, a);
                             }),
                 findings.end());
  return result;
}

std::vector<InputFile> load_repo_inputs(const std::string& root) {
  namespace fs = std::filesystem;
  const fs::path base(root);
  if (!fs::is_directory(base / "src")) {
    throw std::runtime_error("not a repo root (no src/ directory): " +
                             root);
  }

  const auto slurp = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      throw std::runtime_error("unreadable input: " + p.string());
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };

  std::vector<InputFile> inputs;
  for (const char* dir : {"src", "bench"}) {
    const fs::path top = base / dir;
    if (!fs::is_directory(top)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(top)) {
      if (!entry.is_regular_file()) continue;
      const std::string rel =
          fs::relative(entry.path(), base).generic_string();
      if (!is_cpp_source(rel)) continue;
      inputs.push_back({rel, slurp(entry.path())});
    }
  }
  // run_lint sorts; directory iteration order never leaks into output.
  return inputs;
}

void write_text(std::ostream& os, const LintResult& result) {
  for (const Finding& f : result.findings) {
    os << f.path << ':' << f.line << ':' << f.col << ": error: "
       << f.message << " [" << f.rule_id << "]\n";
  }
  const std::string tallies = std::to_string(result.files_scanned) +
                              " files, " + std::to_string(result.rules_run) +
                              " rules";
  if (result.findings.empty()) {
    os << "smtlint: OK (" << tallies << ")\n";
  } else {
    os << "smtlint: " << result.findings.size() << " finding"
       << (result.findings.size() == 1 ? "" : "s") << " (" << tallies
       << ")\n";
  }
}

}  // namespace smt::lint
