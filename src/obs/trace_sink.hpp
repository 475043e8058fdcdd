// TraceSink: low-overhead event recorder.
//
// Recording is a bounds-checked copy into a fixed-capacity ring buffer
// (no allocation after construction; oldest events drop first when the
// ring wraps, with a drop counter so truncation is never silent).
// Serialization happens only when write() is called. The trace has one
// on-disk format, JSONL: a build_info provenance line, then one
// self-describing JSON object per event, numeric codes, keys and names
// from obs/trace_schema.hpp, byte-deterministic for a given run.
// obs/trace_read.hpp reads it back. write_chrome() turns any event
// sequence into Chrome trace-event JSON for Perfetto or chrome://tracing
// (policy timeline as duration events, per-thread IPC as counter
// tracks, switches and invariant violations as instants); `smttrace
// chrome` runs it on a JSONL trace.
//
// The sink is observation-only: nothing in the simulator reads it back,
// so attaching one can never perturb a run. Components that instrument
// themselves hold a TraceSink* that is nullptr when tracing is off; the
// null check inlines to nothing, which is the zero-overhead-when-
// disabled contract.
//
// Decoding: TraceEvent stores enum *codes* (policy, heuristic, invariant
// class) because obs sits below the policy/core layers. write_chrome()
// takes a TraceDecoder of name callbacks for its labels —
// sim::trace_decoder() supplies the real names; with the default (empty)
// decoder codes print numerically.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace_event.hpp"
#include "obs/trace_schema.hpp"

namespace smt::obs {

/// Enum-code → display-name callbacks for write_chrome(). Any member may
/// be null, in which case the raw code is printed.
struct TraceDecoder {
  std::string_view (*policy)(std::uint8_t code) = nullptr;
  std::string_view (*heuristic)(std::uint8_t code) = nullptr;
  /// Decode a check::InvariantClass code on kInvariant events.
  std::string_view (*invariant)(std::uint8_t code) = nullptr;
};

/// Build/run provenance stamped as the first line of every trace (and
/// mirrored under run.* in --stats-json). All values serialize as JSON
/// strings so 64-bit seeds survive tools that parse numbers as doubles;
/// the keys are kBuildInfoKeys, in field order.
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
  std::size_t smt_jobs = 0;    ///< resolved SMT_JOBS (smt_jobs_from_env)
};

/// RunInfo's values as the build_info line spells them, in kBuildInfoKeys
/// order ("0x%016llx" digest, decimal numbers).
[[nodiscard]] std::array<std::string, kBuildInfoKeys.size()> build_info_values(
    const RunInfo& info);
/// The inverse of build_info_values(); an empty number reads as 0.
/// nullopt when a number is malformed or out of range.
[[nodiscard]] std::optional<RunInfo> run_info_from_values(
    const std::array<std::string, kBuildInfoKeys.size()>& values);

class TraceSink {
 public:
  /// `capacity` = maximum buffered events; the ring keeps the newest.
  explicit TraceSink(std::size_t capacity = kDefaultCapacity);

  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  void record(const TraceEvent& e);

  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  /// Events lost to ring wrap-around since construction / clear().
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

  /// Buffered events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  void clear();

  /// Provenance emitted as the first line of write() output. Unset sinks
  /// write no header.
  void set_run_info(RunInfo info) { run_info_ = std::move(info); }

  /// Write every buffered event (oldest first) to `os` as the JSONL trace.
  void write(std::ostream& os) const;

  // Serializers, usable directly on any event sequence. `info` (when
  // non-null) prepends the build_info header line / instant.
  static void write_jsonl(std::ostream& os, const std::vector<TraceEvent>& evs,
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
