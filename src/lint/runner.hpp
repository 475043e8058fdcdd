// smtlint driver: corpus loading, rule execution, NOLINT suppression
// and baseline application.
//
// The runner is deliberately a pure function from (inputs, options) to
// a LintResult — file discovery is separated into load_repo_inputs() so
// tests feed synthetic snippets through exactly the code path the CLI
// uses, and scripts/check_smtlint.sh can byte-compare two runs.
#pragma once

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

struct LintOptions {
  /// Run only these rule ids (empty = all registered rules).
  std::vector<std::string> only_rules;
  /// Baseline file content ("" = empty baseline). Grandfathered
  /// findings listed here are reported in the summary but do not fail
  /// the run; entries matching nothing become baseline-stale findings.
  std::string baseline;
  /// Path the baseline was read from, for anchoring baseline-stale.
  std::string baseline_path = ".smtlint-baseline";
};

struct LintResult {
  /// Surviving findings, deterministically ordered.
  std::vector<Finding> findings;
  int files_scanned = 0;
  int rules_run = 0;
  int suppressed = 0;  ///< dropped by NOLINT / NOLINTNEXTLINE
  int baselined = 0;   ///< dropped by a baseline entry
};

/// Parse + run. Inputs may arrive in any order; the runner sorts by
/// path so output is independent of discovery order.
[[nodiscard]] LintResult run_lint(const RuleRegistry& registry,
                                  std::vector<InputFile> inputs,
                                  const LintOptions& options);

/// Read the analyzer's repo inputs from disk: the src/** and bench/**
/// C++ sources. Throws
/// std::runtime_error when `root` does not look like the repo (no src/).
[[nodiscard]] std::vector<InputFile> load_repo_inputs(
    const std::string& root);

/// One baseline entry: "<rule-id> <path>:<line>".
struct BaselineEntry {
  int source_line = 0;  ///< line in the baseline file itself
  std::string rule_id;
  std::string path;
  int line = 0;
};

/// Parse baseline text ('#' comments and blank lines ignored).
/// Malformed lines throw std::runtime_error with the line number.
[[nodiscard]] std::vector<BaselineEntry> parse_baseline(
    const std::string& text);

}  // namespace smt::lint
