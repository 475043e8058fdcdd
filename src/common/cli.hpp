// Minimal command-line option parser for the tools and examples.
//
// Supports --key=value, --key value, and bare --flag forms; collects
// positional arguments. Each tool declares its options once, in a table
// that also says which of the tool's modes each applies to. No external
// dependencies, value-semantic, and strict (throws on an unknown,
// repeated or out-of-mode option and on malformed input) so tools fail
// loudly instead of silently ignoring an option.
#pragma once

#include <cstdint>
#include <iosfwd>
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

/// An option row's `modes` when it applies whatever the tool's mode.
inline constexpr unsigned kAllModes = ~0U;

/// One row of a tool's option table. Parsing, the mode and dependency
/// checks and the option lines of --help all derive from the rows, so
/// each option is declared once.
struct CliOption {
  std::string name;   ///< "mix" for --mix
  std::string value;  ///< value placeholder in --help; empty for a bare flag
  unsigned modes = kAllModes;  ///< bitmask of the modes it applies to
  std::string help;            ///< --help text, word-wrapped when printed
  /// One of these must come too; a "!x" entry is met by --x's absence
  /// (--prof needs a sink: --stats-json, --prof-folded or no --csv).
  std::vector<std::string> needs = {};
  std::vector<std::string> excludes = {};  ///< none of these may come too
  bool output_neutral = false;  ///< by design changes no output (--jobs)
};

/// A tool's options, the names of its modes (mode bit `1 << i` is
/// `modes[i]`, as it reads in "--x does not apply to <name>"), and the
/// prose its --help prints before and after the option lines.
struct CliTable {
  std::string head;
  std::vector<std::string> modes;
  std::vector<CliOption> options;
  std::string tail;
};

class CliArgs {
 public:
  /// Parse argv against `table`. An unknown key, a key given twice or a
  /// flag row (empty `value`) given a value throws UsageError. A flag
  /// takes no value, so "--flag positional" keeps the positional argument
  /// (otherwise "--key value" consumes it).
  CliArgs(int argc, const char* const* argv, CliTable table);

  /// The table's checks for a run in mode bit `mode`: every supplied
  /// option must apply to the mode, come with one of its `needs` and
  /// with none of its `excludes`. Throws UsageError naming the option.
  void check_mode(unsigned mode) const;

  [[nodiscard]] bool has(const std::string& key) const;

  /// Value of --key; empty for bare flags; nullopt when absent.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  [[nodiscard]] std::string get_or(const std::string& key,
                                   std::string fallback) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  [[nodiscard]] const CliOption* row(const std::string& key) const;

  CliTable table_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// A tool's --help: the head, then the rows in table order under a
/// heading that names their modes wherever the modes change, each with
/// its dependencies spelled out, then the tail.
void write_help(std::ostream& out, const CliTable& table);

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
