// smtlint: the repo's own static analyzer (DESIGN.md §16).
//
// A deterministic, dependency-free C++ checker that encodes this
// codebase's determinism and hygiene invariants as machine-checked
// rules: a real lexer strips comments, string literals and preprocessor
// text before any pattern runs, so — unlike the grep gate it replaces —
// `// never call srand()` is not a violation and `srand(7)` always is.
//
//   smtlint                         analyze the repo rooted at .
//   smtlint --root ../repo          analyze another checkout
//   smtlint --format sarif          SARIF 2.1.0 instead of text
//   smtlint --output report.sarif   write to a file ("-" = stdout)
//   smtlint --baseline FILE         grandfathered findings (default
//                                   <root>/.smtlint-baseline if present)
//   smtlint --rule id[,id...]       run a subset of the catalog
//   smtlint --list-rules            print the rule catalog and exit
//
// Suppress one finding with a NOLINT comment naming the rule id on its
// line (or NOLINTNEXTLINE above it). Both formats are byte-deterministic:
// scripts/check_smtlint.sh asserts two runs compare equal.
//
// Exit codes (common/exit_codes.hpp): 0 clean, 4 findings (the
// kExitCheck convention: the run completed, the checker recorded
// violations), 2 usage error, 3 config error (bad root, unreadable
// baseline, unknown rule id).

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "lint/report.hpp"
#include "lint/rule.hpp"
#include "lint/runner.hpp"

namespace {

constexpr const char* kUsage =
    R"(usage: smtlint [options]

options:
  --root DIR       repo root to analyze (default "."; must contain src/)
  --format FMT     output format: text (default) | sarif
  --output PATH    write the report to PATH instead of stdout ("-" = stdout)
  --baseline PATH  baseline file of grandfathered findings
                   (default: <root>/.smtlint-baseline when present)
  --rule ID[,ID]   run only the named rules (comma-separated list)
  --list-rules     print the rule catalog (id + description) and exit
  --help           this text

Scope: src/** and bench/** C++ sources. Suppress a single finding with
// NOLINT(rule-id) on its line or // NOLINTNEXTLINE(rule-id) above it;
grandfather it with a "<rule-id> <path>:<line>" baseline entry. Output
is byte-deterministic.

exit codes: 0 clean, 4 findings, 2 usage error, 3 config error.
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace smt;
  try {
    const CliArgs args(argc, argv,
                       {"root", "format", "output", "baseline", "rule",
                        "list-rules", "help"},
                       /*flag_keys=*/{"list-rules", "help"});
    if (args.has("help")) {
      std::cout << kUsage;
      return kExitOk;
    }

    const lint::RuleRegistry registry = lint::builtin_rules();
    if (args.has("list-rules")) {
      for (const auto& rule : registry.rules()) {
        std::cout << rule->id() << "\n    " << rule->description() << "\n";
      }
      return kExitOk;
    }

    const std::string format = args.get_or("format", "text");
    if (format != "text" && format != "sarif") {
      throw UsageError("--format must be text or sarif, got " + format);
    }

    const std::string root = args.get_or("root", ".");
    lint::LintOptions options;
    if (args.has("rule")) {
      options.only_rules = split_list(args.get_or("rule", ""));
      if (options.only_rules.empty()) {
        throw UsageError("--rule needs at least one rule id");
      }
    }

    std::string baseline_path = args.get_or("baseline", "");
    if (baseline_path.empty()) {
      const std::string implicit = root + "/.smtlint-baseline";
      if (std::ifstream probe(implicit); probe.good()) {
        baseline_path = implicit;
      }
    } else if (!std::ifstream(baseline_path).good()) {
      throw ConfigError("--baseline file unreadable: " + baseline_path);
    }
    if (!baseline_path.empty()) {
      std::ifstream in(baseline_path);
      std::ostringstream ss;
      ss << in.rdbuf();
      options.baseline = ss.str();
      options.baseline_path = ".smtlint-baseline";
    }

    std::vector<lint::InputFile> inputs;
    try {
      inputs = lint::load_repo_inputs(root);
    } catch (const std::exception& e) {
      throw ConfigError(e.what());
    }

    lint::LintResult result;
    try {
      result = lint::run_lint(registry, std::move(inputs), options);
    } catch (const std::exception& e) {
      // Unknown --rule id or malformed baseline text.
      throw ConfigError(e.what());
    }

    std::ostringstream report;
    if (format == "sarif") {
      lint::write_sarif(report, result, registry);
    } else {
      lint::write_text(report, result);
    }

    const std::string output = args.get_or("output", "-");
    if (output == "-") {
      std::cout << report.str();
    } else {
      std::ofstream out(output, std::ios::binary);
      if (!out) throw ConfigError("cannot write --output " + output);
      out << report.str();
    }

    return result.findings.empty() ? kExitOk : kExitCheck;
  } catch (const smt::UsageError& e) {
    std::cerr << "smtlint: " << e.what() << "\n" << kUsage;
    return smt::kExitUsage;
  } catch (const smt::ConfigError& e) {
    std::cerr << "smtlint: " << e.what() << "\n";
    return smt::kExitConfig;
  } catch (const std::exception& e) {
    std::cerr << "smtlint: internal error: " << e.what() << "\n";
    throw;
  }
}
