// MetricsRegistry: the machine-readable end-of-run export.
//
// Every subsystem (pipeline, detector thread, audit log, profiler)
// exports its named counters into one registry; the registry serializes
// to a nested JSON document (--stats-json). Names are dotted paths —
// "adts.switches", "threads.3.stalls.icache_miss" — and the writer
// rebuilds the hierarchy from the dots, so exporters stay one flat
// set() call per counter and the JSON stays structured for tooling.
//
// Values are typed (u64 / i64 / double / string). Doubles that
// are NaN or infinite serialize as null: an empty accumulator must not
// masquerade as a real zero in exported metrics (see
// RunningStat::min()/max()).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace smt::obs {

class MetricsRegistry {
 public:
  using Value =
      std::variant<std::uint64_t, std::int64_t, double, std::string>;

  void set(std::string_view name, std::uint64_t v) { put(name, Value{v}); }
  void set(std::string_view name, std::int64_t v) { put(name, Value{v}); }
  void set(std::string_view name, double v) { put(name, Value{v}); }
  void set(std::string_view name, std::string_view v) {
    put(name, Value{std::string(v)});
  }
  // Disambiguate common integer literals / narrower counters.
  void set(std::string_view name, std::uint32_t v) {
    put(name, Value{static_cast<std::uint64_t>(v)});
  }
  void set(std::string_view name, std::int32_t v) {
    put(name, Value{static_cast<std::int64_t>(v)});
  }
  void set(std::string_view name, const char* v) {
    put(name, Value{std::string(v)});
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// Look up a value by its full dotted name; nullopt when absent.
  [[nodiscard]] std::optional<Value> find(std::string_view name) const;

  /// Remove the entry with this exact dotted name; returns whether one
  /// existed. Used by golden-digest tests to drop build/host provenance
  /// keys (the same set run_bench_suite.sh strips) before hashing.
  bool erase(std::string_view name);

  /// Serialize as nested JSON (keys sorted lexicographically so sibling
  /// groups are contiguous; repeated set() keeps the last value).
  void write_json(std::ostream& os) const;

 private:
  void put(std::string_view name, Value v);

  std::vector<std::pair<std::string, Value>> entries_;
};

/// JSON string escaping for keys and string values.
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace smt::obs
