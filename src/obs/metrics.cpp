#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace smt::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

void MetricsRegistry::put(std::string_view name, Value v) {
  for (auto& e : entries_) {
    if (e.first == name) {
      e.second = std::move(v);
      return;
    }
  }
  entries_.emplace_back(std::string(name), std::move(v));
}

bool MetricsRegistry::erase(std::string_view name) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->first == name) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

std::optional<MetricsRegistry::Value> MetricsRegistry::find(
    std::string_view name) const {
  for (const auto& e : entries_) {
    if (e.first == name) return e.second;
  }
  return std::nullopt;
}

namespace {

void write_value(std::ostream& os, const MetricsRegistry::Value& v) {
  if (const auto* u = std::get_if<std::uint64_t>(&v)) {
    os << *u;
  } else if (const auto* i = std::get_if<std::int64_t>(&v)) {
    os << *i;
  } else if (const auto* d = std::get_if<double>(&v)) {
    if (!std::isfinite(*d)) {
      os << "null";  // NaN / inf are not JSON; absent beats a fake zero
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", *d);
      os << buf;
    }
  } else {
    os << '"' << json_escape(std::get<std::string>(v)) << '"';
  }
}

using Entries = std::vector<std::pair<std::string, MetricsRegistry::Value>>;

void indent_to(std::ostream& os, int depth) {
  for (int i = 0; i < depth; ++i) os << "  ";
}

/// Write entries [lo, hi) — all sharing the first `prefix` characters of
/// their names — as one JSON object, recursing on dotted segments.
void write_group(std::ostream& os, const Entries& es, std::size_t lo,
                 std::size_t hi, std::size_t prefix, int depth) {
  os << "{\n";
  std::size_t i = lo;
  bool first = true;
  while (i < hi) {
    const std::string& full = es[i].first;
    const std::string_view rest =
        std::string_view(full).substr(std::min(prefix, full.size()));
    const std::size_t dot = rest.find('.');
    if (!first) os << ",\n";
    first = false;
    indent_to(os, depth + 1);
    if (dot == std::string_view::npos) {
      os << '"' << json_escape(rest) << "\":";
      write_value(os, es[i].second);
      ++i;
    } else {
      const std::string_view seg = rest.substr(0, dot);
      // Extend over every entry sharing this segment (sorted ⇒ contiguous).
      std::size_t j = i;
      while (j < hi) {
        const std::string& other = es[j].first;
        const std::string_view orest =
            std::string_view(other).substr(std::min(prefix, other.size()));
        if (orest.size() <= seg.size() ||
            orest.substr(0, seg.size()) != seg || orest[seg.size()] != '.') {
          break;
        }
        ++j;
      }
      os << '"' << json_escape(seg) << "\":";
      write_group(os, es, i, j, prefix + seg.size() + 1, depth + 1);
      i = j;
    }
  }
  os << '\n';
  indent_to(os, depth);
  os << '}';
}

}  // namespace

void MetricsRegistry::write_json(std::ostream& os) const {
  Entries sorted = entries_;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  write_group(os, sorted, 0, sorted.size(), 0, 0);
  os << '\n';
}

}  // namespace smt::obs
