// Minimal command-line option parser for the tools and examples.
//
// Supports --key=value, --key value, and bare --flag forms; collects
// positional arguments; reports unknown keys. No external dependencies,
// value-semantic, and strict (throws on malformed input) so tools fail
// loudly instead of silently ignoring a typo'd option.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace smt {

/// Malformed command line: unknown option, or a value that does not parse
/// as the requested type. Tools map this to exit code 2 (usage error),
/// distinct from semantically invalid configurations (exit code 3) —
/// scripts can tell a typo from an out-of-range parameter.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// A structurally valid option with a semantically invalid value
/// (out-of-range thread count, non-positive threshold, unknown mix name).
/// Tools map this to exit code 3.
struct ConfigError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

class CliArgs {
 public:
  /// Parse argv. `known_keys` lists every accepted --key; an argument
  /// with an unknown key throws std::invalid_argument. Keys also listed
  /// in `flag_keys` take no value, so "--flag positional" keeps the
  /// positional argument (otherwise "--key value" consumes it).
  CliArgs(int argc, const char* const* argv,
          std::vector<std::string> known_keys,
          std::vector<std::string> flag_keys = {});

  [[nodiscard]] bool has(const std::string& key) const;

  /// Value of --key; empty for bare flags; nullopt when absent.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  [[nodiscard]] std::string get_or(const std::string& key,
                                   std::string fallback) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  [[nodiscard]] const std::string& program_name() const noexcept {
    return program_;
  }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// All of `text` as a base-10 unsigned integer; nullopt for an empty
/// token, a sign, trailing characters or a value above 2^64-1 (strtoull
/// would wrap "-1" to 2^64-1).
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text);

/// All of `text` as a finite decimal number; nullopt for an empty token,
/// trailing characters, nan, inf or a magnitude that overflows a double.
[[nodiscard]] std::optional<double> parse_double(std::string_view text);

/// Split a comma-separated list ("gzip,mcf,swim") into tokens; empty
/// tokens are dropped.
[[nodiscard]] std::vector<std::string> split_list(const std::string& csv);

}  // namespace smt
