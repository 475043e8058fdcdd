// Rule engine contract for smtlint.
//
// A Rule encodes one project invariant as a machine check. Rules are
// registered with stable kebab-case ids — the id is the `[rule-id]` tag
// in text output, so it must never change once shipped.
// DESIGN.md §16 is the catalog; every id there has a firing negative
// test in tests/test_lint.cpp.
//
// Two shapes of rule:
//   - per-file: check() is called once per lexed SourceFile;
//   - cross-file: finish() is called once after every file has been
//     lexed, with the whole Corpus of lexed sources — the direct-include
//     symbol index lives here.
//
// Findings are plain data; the runner owns ordering and rendering, so
// rules stay one-concern. There is no suppression: a finding is fixed.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lint/source_file.hpp"

namespace smt::lint {

struct Finding {
  std::string rule_id;
  std::string path;
  int line = 1;
  int col = 1;
  std::string message;
};

/// Stable ordering for deterministic output: by location, then rule,
/// then message (two rules may fire on one line).
[[nodiscard]] bool finding_less(const Finding& a, const Finding& b) noexcept;

/// Everything the analyzer read, keyed by repo-relative path.
struct Corpus {
  /// Lexed C++ sources (src/**, bench/**) in path order.
  std::vector<SourceFile> sources;

  [[nodiscard]] const SourceFile* source(const std::string& path) const;
};

class Rule {
 public:
  virtual ~Rule() = default;

  [[nodiscard]] virtual std::string_view id() const noexcept = 0;
  /// One-line description for --list-rules.
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;

  /// Per-file check; default no-op for cross-file rules.
  virtual void check(const SourceFile& file,
                     std::vector<Finding>& out) const {
    (void)file;
    (void)out;
  }

  /// Cross-file check, run once after all files are lexed.
  virtual void finish(const Corpus& corpus,
                      std::vector<Finding>& out) const {
    (void)corpus;
    (void)out;
  }
};

class RuleRegistry {
 public:
  void add(std::unique_ptr<Rule> rule);

  [[nodiscard]] const std::vector<std::unique_ptr<Rule>>& rules()
      const noexcept {
    return rules_;
  }

 private:
  std::vector<std::unique_ptr<Rule>> rules_;  ///< sorted by id
};

/// The built-in rule set (DESIGN.md §16 catalog), sorted by id.
[[nodiscard]] RuleRegistry builtin_rules();

// --- shared path-scope helpers (repo-relative, forward slashes) -----------

/// Library code: src/** minus the CLI drivers in src/tools/.
[[nodiscard]] bool is_library_path(const std::string& path);
[[nodiscard]] bool is_tools_path(const std::string& path);
[[nodiscard]] bool is_bench_path(const std::string& path);
[[nodiscard]] bool is_header_path(const std::string& path);
/// src-relative include target for a path under src/ ("src/obs/x.hpp"
/// -> "obs/x.hpp"); empty when the path is not under src/.
[[nodiscard]] std::string include_target_of(const std::string& path);

}  // namespace smt::lint
