// TraceSink: low-overhead event recorder with pluggable serializers.
//
// Recording is a bounds-checked copy into a fixed-capacity ring buffer
// (no allocation after construction; oldest events drop first when the
// ring wraps, with a drop counter so truncation is never silent).
// Serialization happens only when write() is called, to one of three
// backends:
//
//   * CSV   — one flat table, one header, every event kind in the same
//             schema (the trace-analysis format),
//   * JSONL — one self-describing JSON object per line (machine-
//             readable; byte-deterministic for a given run),
//   * Chrome trace-event JSON — loads directly in Perfetto or
//             chrome://tracing: policy timeline as duration events,
//             per-thread IPC as counter tracks, switches and invariant
//             violations as instants.
//
// The sink is observation-only: nothing in the simulator reads it back,
// so attaching one can never perturb a run. Components that instrument
// themselves hold a TraceSink* that is nullptr when tracing is off; the
// null check inlines to nothing, which is the zero-overhead-when-
// disabled contract.
//
// Decoding: TraceEvent stores enum *codes* (policy, heuristic, invariant
// class) because obs sits below the policy/core layers. Writers accept a
// TraceDecoder of name callbacks — sim::trace_decoder() supplies the
// real names; with the default (empty) decoder codes print numerically.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace_event.hpp"

namespace smt::obs {

enum class TraceFormat : std::uint8_t { kCsv, kJsonl, kChrome };

[[nodiscard]] std::string_view name(TraceFormat f) noexcept;
/// Parse "csv" | "jsonl" | "chrome"; nullopt on anything else.
[[nodiscard]] std::optional<TraceFormat> parse_trace_format(
    std::string_view s) noexcept;

/// Enum-code → display-name callbacks for the writers. Any member may be
/// null, in which case the raw code is printed.
struct TraceDecoder {
  std::string_view (*policy)(std::uint8_t code) = nullptr;
  std::string_view (*heuristic)(std::uint8_t code) = nullptr;
  /// Decode a check::InvariantClass code on kInvariant events.
  std::string_view (*invariant)(std::uint8_t code) = nullptr;
};

/// Build/run provenance stamped as the first line of every trace (and
/// mirrored under run.* in --stats-json). All values serialize as JSON
/// strings so 64-bit seeds survive tools that parse numbers as doubles.
struct RunInfo {
  std::string tool;      ///< producing binary, e.g. "smtsim"
  std::string version;   ///< project version
  std::string git_sha;   ///< commit the binary was built from ("unknown"
                         ///< outside a git checkout)
  std::string compiler;  ///< compiler id + version
  std::string flags;     ///< build type + compile flags
  std::uint64_t seed = 0;           ///< workload seed of this run
  std::uint64_t config_digest = 0;  ///< FNV-1a over the resolved SimConfig
  // Host provenance (common/host_info.hpp): BENCH documents and traces
  // from different machines are only comparable when stamped with what
  // they ran on.
  std::string host_cpu;        ///< /proc/cpuinfo model name, or "unknown"
  unsigned host_cores = 0;     ///< online host cores
  std::size_t smt_jobs = 0;    ///< resolved SMT_JOBS (par::default_jobs)
};

class TraceSink {
 public:
  /// `capacity` = maximum buffered events; the ring keeps the newest.
  explicit TraceSink(std::size_t capacity = kDefaultCapacity);

  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  void record(const TraceEvent& e);

  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events lost to ring wrap-around since construction / clear().
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

  /// Buffered events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  void clear();

  /// Provenance emitted as the first line of write() output. Unset sinks
  /// write no header, preserving the pre-provenance format exactly.
  void set_run_info(RunInfo info) { run_info_ = std::move(info); }
  [[nodiscard]] const std::optional<RunInfo>& run_info() const noexcept {
    return run_info_;
  }

  /// Serialize every buffered event (oldest first) to `os`.
  void write(std::ostream& os, TraceFormat format,
             const TraceDecoder& dec = {}) const;

  // Backends, usable directly on any event sequence. `info` (when
  // non-null) prepends the build_info header line.
  static void write_csv(std::ostream& os, const std::vector<TraceEvent>& evs,
                        const TraceDecoder& dec = {},
                        const RunInfo* info = nullptr);
  static void write_jsonl(std::ostream& os, const std::vector<TraceEvent>& evs,
                          const TraceDecoder& dec = {},
                          const RunInfo* info = nullptr);
  static void write_chrome(std::ostream& os, const std::vector<TraceEvent>& evs,
                           const TraceDecoder& dec = {},
                           const RunInfo* info = nullptr);

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< index of the oldest event once wrapped
  bool wrapped_ = false;
  std::uint64_t dropped_ = 0;
  std::optional<RunInfo> run_info_;
  std::vector<TraceEvent> events_;  ///< ring storage
};

}  // namespace smt::obs
