#include "common/cli.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace smt {

namespace {

/// "--a", "--a or --b", ... ("!c" reads "no --c").
std::string spell(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += " or ";
    out += n.starts_with('!') ? "no --" + n.substr(1) : "--" + n;
  }
  return out;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv, CliTable table)
    : table_(std::move(table)) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    const std::string key = arg.substr(2, eq == std::string::npos
                                              ? std::string::npos
                                              : eq - 2);
    const CliOption* opt = row(key);
    if (opt == nullptr) throw UsageError("unknown option --" + key);
    std::string value;
    if (eq != std::string::npos) {
      if (opt->value.empty()) throw UsageError("--" + key + " takes no value");
      value = arg.substr(eq + 1);
    } else if (!opt->value.empty() && i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      // --key value form: consume the next token unless it is an option.
      value = argv[++i];
    }
    if (!values_.emplace(key, value).second) {
      throw UsageError("--" + key + " is given twice");
    }
  }
}

const CliOption* CliArgs::row(const std::string& key) const {
  for (const CliOption& o : table_.options) {
    if (o.name == key) return &o;
  }
  return nullptr;
}

void CliArgs::check_mode(unsigned mode) const {
  const std::string& mode_name =
      table_.modes.at(static_cast<std::size_t>(std::countr_zero(mode)));
  for (const auto& [key, value] : values_) {
    const CliOption& o = *row(key);
    if ((o.modes & mode) == 0) {
      throw UsageError("--" + key + " does not apply to " + mode_name);
    }
    if (!o.needs.empty() &&
        std::none_of(o.needs.begin(), o.needs.end(),
                     [this](const std::string& k) {
                       return k.starts_with('!') ? !has(k.substr(1)) : has(k);
                     })) {
      throw UsageError("--" + key + " needs " + spell(o.needs));
    }
    for (const std::string& k : o.excludes) {
      if (has(k)) {
        throw UsageError("--" + key + " cannot be combined with --" + k);
      }
    }
  }
}

void write_help(std::ostream& out, const CliTable& table) {
  const auto spelling = [](const CliOption& o) {
    return "--" + o.name + (o.value.empty() ? "" : " " + o.value);
  };
  std::size_t col = 0;  // two-space indent, widest spelling, two spaces
  for (const CliOption& o : table.options) {
    col = std::max(col, spelling(o).size() + 4);
  }
  const unsigned every = (1U << table.modes.size()) - 1U;
  unsigned group = 0;  // no row applies to no mode
  out << table.head;
  for (const CliOption& o : table.options) {
    if (o.modes != group) {
      out << (group == 0 ? "options" : "\noptions");
      group = o.modes;
      const char* sep = " for ";
      for (std::size_t m = 0; m < table.modes.size(); ++m) {
        if ((group & every) == every || (group & (1U << m)) == 0) continue;
        out << std::exchange(sep, ", ") << table.modes[m];
      }
      out << ":\n";
    }
    std::string text = o.help;
    if (!o.needs.empty()) text += " (needs " + spell(o.needs) + ")";
    if (!o.excludes.empty()) text += " (not with " + spell(o.excludes) + ")";
    // Each word goes in with its leading space; a line holding a word
    // wraps before one that would pass column 79.
    std::string line = "  " + spelling(o);
    line.resize(col - 1, ' ');
    std::istringstream words(text);
    for (std::string w; words >> w;) {
      if (line.size() >= col && line.size() + 1 + w.size() > 79) {
        out << line << '\n';
        line.assign(col - 1, ' ');
      }
      line += ' ' + w;
    }
    out << line << '\n';
  }
  out << table.tail;
}

bool CliArgs::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::optional<std::string> CliArgs::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_or(const std::string& key,
                            std::string fallback) const {
  const auto v = get(key);
  return v.has_value() ? *v : std::move(fallback);
}

std::uint64_t CliArgs::get_u64(const std::string& key,
                               std::uint64_t fallback) const {
  const auto v = get(key);
  if (!v.has_value()) return fallback;
  const std::optional<std::uint64_t> out = parse_u64(*v);
  if (!out.has_value()) {
    throw UsageError("--" + key + " expects an unsigned integer, got '" + *v +
                     "'");
  }
  return *out;
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t out = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return out;
}

std::optional<double> parse_double(std::string_view text) {
  double out = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc{} || ptr != end || !std::isfinite(out)) {
    return std::nullopt;
  }
  return out;
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const auto comma = csv.find(',', start);
    const std::string token =
        csv.substr(start, comma == std::string::npos ? std::string::npos
                                                     : comma - start);
    if (!token.empty()) out.push_back(token);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace smt
