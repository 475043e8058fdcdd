// Process exit codes of the command-line tools.
//
// Centralised so the scripts under scripts/ and the CI workflow can match
// on stable numbers; documented in each tool's --help. Codes 2/3 mirror
// the UsageError/ConfigError split of common/cli.hpp; 1 is left to
// uncaught crashes so a wrapper can tell "rejected input" from "tool
// bug".
#pragma once

namespace smt {

inline constexpr int kExitOk = 0;
/// Unknown or malformed option (common::UsageError).
inline constexpr int kExitUsage = 2;
/// Syntactically valid option with an invalid value (common::ConfigError).
inline constexpr int kExitConfig = 3;
/// The run completed but the invariant checker recorded violations
/// (src/check; enabled with --check or SMT_CHECK=1).
inline constexpr int kExitCheck = 4;

}  // namespace smt
