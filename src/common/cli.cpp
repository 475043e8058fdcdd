#include "common/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace smt {

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::vector<std::string> known_keys,
                 std::vector<std::string> flag_keys) {
  if (argc > 0) program_ = argv[0];
  auto known = [&known_keys](const std::string& k) {
    return std::find(known_keys.begin(), known_keys.end(), k) !=
           known_keys.end();
  };
  auto is_flag = [&flag_keys](const std::string& k) {
    return std::find(flag_keys.begin(), flag_keys.end(), k) !=
           flag_keys.end();
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string key;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      key = arg.substr(2, eq - 2);
      value = arg.substr(eq + 1);
    } else {
      key = arg.substr(2);
      // --key value form: consume the next token when this key takes a
      // value and the token is not itself an option.
      if (!is_flag(key) && i + 1 < argc &&
          std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
    }
    if (!known(key)) {
      throw UsageError("unknown option --" + key);
    }
    values_[key] = value;
  }
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

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v.has_value()) return fallback;
  const std::optional<double> out = parse_double(*v);
  if (!out.has_value()) {
    throw UsageError("--" + key + " expects a finite number, got '" + *v +
                     "'");
  }
  return *out;
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v.has_value()) return fallback;
  if (v->empty() || *v == "1" || *v == "true" || *v == "yes" || *v == "on") {
    return true;
  }
  if (*v == "0" || *v == "false" || *v == "no" || *v == "off") return false;
  throw UsageError("--" + key + " expects a boolean, got '" + *v +
                              "'");
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
