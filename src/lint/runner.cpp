#include "lint/runner.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

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

std::vector<BaselineEntry> parse_baseline(const std::string& text) {
  std::vector<BaselineEntry> entries;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t begin = line.find_first_not_of(" \t");
    if (begin == std::string::npos || line[begin] == '#') continue;
    // "<rule-id> <path>:<line>"
    const std::size_t sp = line.find(' ', begin);
    const std::size_t colon = line.rfind(':');
    if (sp == std::string::npos || colon == std::string::npos ||
        colon < sp) {
      throw std::runtime_error(
          "baseline line " + std::to_string(lineno) +
          ": expected \"<rule-id> <path>:<line>\", got: " + line);
    }
    BaselineEntry e;
    e.source_line = lineno;
    e.rule_id = line.substr(begin, sp - begin);
    e.path = line.substr(sp + 1, colon - sp - 1);
    try {
      e.line = std::stoi(line.substr(colon + 1));
    } catch (const std::exception&) {
      throw std::runtime_error("baseline line " + std::to_string(lineno) +
                               ": bad line number in: " + line);
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

LintResult run_lint(const RuleRegistry& registry,
                    std::vector<InputFile> inputs,
                    const LintOptions& options) {
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

  const auto selected = [&](std::string_view id) {
    if (options.only_rules.empty()) return true;
    return std::find(options.only_rules.begin(), options.only_rules.end(),
                     std::string(id)) != options.only_rules.end();
  };
  for (const std::string& id : options.only_rules) {
    if (!registry.has(id)) {
      throw std::runtime_error("unknown rule id: " + id +
                               " (see --list-rules)");
    }
  }

  LintResult result;
  result.files_scanned = static_cast<int>(corpus.sources.size());

  std::vector<Finding> raw;
  for (const auto& rule : registry.rules()) {
    if (!selected(rule->id())) continue;
    ++result.rules_run;
    for (const SourceFile& f : corpus.sources) rule->check(f, raw);
    rule->finish(corpus, raw);
  }

  // NOLINT suppression: a finding anchored in a lexed source can be
  // silenced on its line.
  std::vector<Finding> kept;
  for (Finding& f : raw) {
    const SourceFile* src = corpus.source(f.path);
    if (src != nullptr && src->is_suppressed(f.line, f.rule_id)) {
      ++result.suppressed;
    } else {
      kept.push_back(std::move(f));
    }
  }

  // Baseline: exact (rule, path, line) matches drop out; every entry
  // must still match something or it is itself a finding.
  const std::vector<BaselineEntry> baseline =
      parse_baseline(options.baseline);
  std::vector<bool> used(baseline.size(), false);
  std::vector<Finding> survivors;
  for (Finding& f : kept) {
    bool matched = false;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      const BaselineEntry& e = baseline[i];
      if (e.rule_id == f.rule_id && e.path == f.path && e.line == f.line) {
        used[i] = true;
        matched = true;
      }
    }
    if (matched) {
      ++result.baselined;
    } else {
      survivors.push_back(std::move(f));
    }
  }
  if (selected("baseline-stale")) {
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      if (used[i]) continue;
      survivors.push_back(
          {"baseline-stale", options.baseline_path, baseline[i].source_line,
           1,
           "baseline entry matches no finding (" + baseline[i].rule_id +
               " " + baseline[i].path + ":" +
               std::to_string(baseline[i].line) + ") — delete it"});
    }
  }

  std::sort(survivors.begin(), survivors.end(), finding_less);
  survivors.erase(std::unique(survivors.begin(), survivors.end(),
                              [](const Finding& a, const Finding& b) {
                                return !finding_less(a, b) &&
                                       !finding_less(b, a);
                              }),
                  survivors.end());
  result.findings = std::move(survivors);
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

}  // namespace smt::lint
