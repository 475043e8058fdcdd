// smtlint driver: corpus loading, rule execution and the text report.
//
// The runner is deliberately a pure function from inputs to a
// LintResult — file discovery is separated into load_repo_inputs() so
// tests feed synthetic snippets through exactly the code path the CLI
// uses, and scripts/check_lint.sh can byte-compare two runs. A finding
// cannot be suppressed or grandfathered: it gets fixed.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "lint/rule.hpp"

namespace smt::lint {

/// One analyzer input: a repo-relative path (forward slashes) plus its
/// content. C++ sources (.cpp/.hpp under src/ or bench/) are lexed;
/// anything else is ignored.
struct InputFile {
  std::string path;
  std::string content;
};

struct LintResult {
  /// Every finding, deterministically ordered.
  std::vector<Finding> findings;
  int files_scanned = 0;
  int rules_run = 0;
};

/// Parse + run the whole catalog. Inputs may arrive in any order; the
/// runner sorts by path so output is independent of discovery order.
[[nodiscard]] LintResult run_lint(const RuleRegistry& registry,
                                  std::vector<InputFile> inputs);

/// Read the analyzer's repo inputs from disk: the src/** and bench/**
/// C++ sources. Throws
/// std::runtime_error when `root` does not look like the repo (no src/).
[[nodiscard]] std::vector<InputFile> load_repo_inputs(
    const std::string& root);

/// One "path:line:col: error: message [rule-id]" line per finding,
/// followed by a summary line ("smtlint: OK ..." or "smtlint: N
/// finding(s) ..."). Byte-deterministic: no timestamps, hostnames or
/// absolute paths.
void write_text(std::ostream& os, const LintResult& result);

}  // namespace smt::lint
