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
//   smtlint --list-rules            print the rule catalog and exit
//
// A finding cannot be suppressed: it gets fixed. Output is
// byte-deterministic; scripts/check_lint.sh asserts two runs compare
// equal.
//
// Exit codes (common/exit_codes.hpp): 0 clean, 4 findings (the
// kExitCheck convention: the run completed, the checker recorded
// violations), 2 usage error, 3 config error (bad root).

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "lint/rule.hpp"
#include "lint/runner.hpp"

namespace {

const smt::CliTable kCli = {
    "usage: smtlint [options]\n\n",
    {},
    {{"root", "DIR", smt::kAllModes,
      "repo root to analyze (default \".\"; must contain src/)"},
     {"list-rules", "", smt::kAllModes,
      "print the rule catalog (id + description) and exit"},
     {"help", "", smt::kAllModes, "this text"}},
    R"(
Scope: src/** and bench/** C++ sources. Every finding fails the run;
fix it, there is no suppression. Output is byte-deterministic.

exit codes: 0 clean, 4 findings, 2 usage error, 3 config error.
)"};

}  // namespace

int main(int argc, char** argv) {
  using namespace smt;
  try {
    const CliArgs args(argc, argv, kCli);
    if (!args.positional().empty()) {
      throw UsageError("unexpected argument: " + args.positional().front());
    }
    if (args.has("help")) {
      write_help(std::cout, kCli);
      return kExitOk;
    }

    const lint::RuleRegistry registry = lint::builtin_rules();
    if (args.has("list-rules")) {
      for (const auto& rule : registry.rules()) {
        std::cout << rule->id() << "\n    " << rule->description() << "\n";
      }
      return kExitOk;
    }

    std::vector<lint::InputFile> inputs;
    try {
      inputs = lint::load_repo_inputs(args.get_or("root", "."));
    } catch (const std::exception& e) {
      throw ConfigError(e.what());
    }

    const lint::LintResult result =
        lint::run_lint(registry, std::move(inputs));
    lint::write_text(std::cout, result);
    return result.findings.empty() ? kExitOk : kExitCheck;
  } catch (const smt::UsageError& e) {
    std::cerr << "smtlint: " << e.what() << "\n";
    write_help(std::cerr, kCli);
    return smt::kExitUsage;
  } catch (const smt::ConfigError& e) {
    std::cerr << "smtlint: " << e.what() << "\n";
    return smt::kExitConfig;
  } catch (const std::exception& e) {
    std::cerr << "smtlint: internal error: " << e.what() << "\n";
    throw;
  }
}
