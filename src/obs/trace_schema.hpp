// The trace schema, declared once.
//
// Every name a JSONL trace spells lives in the tables below: the event
// kinds, the fetch-stall and commit-slot (CPI) cause names, the pipe
// stages and terminals, the keys of an event line and the keys of the
// build_info provenance line. The writer (TraceSink::write_jsonl), the
// reader (read_trace), the name() functions of EventKind / StallCause /
// CpiCause / PipeStage / PipeTerminal and `smttrace schema`
// all read these tables, and scripts/check_observability.sh validates
// real traces against the document `smttrace schema` prints. Renaming an
// entry here therefore renames it everywhere at once; the schema digest
// pinned in tests/test_trace_read.cpp makes such a rename a deliberate
// act.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string_view>

namespace smt::obs {

enum class EventKind : std::uint8_t {
  kQuantum,        ///< machine-level quantum summary row
  kThreadQuantum,  ///< per-thread quantum snapshot
  kInvariant,      ///< invariant checker detected a violation (src/check)
  kPipeview,       ///< sampled instruction's full pipeline lifecycle
  kSwitchAudit,    ///< provenance + post-hoc label for an applied switch
  kCpiStack,       ///< per-thread quantum CPI stack (commit-slot account)
};

/// The "event" value of each kind, indexed by EventKind.
inline constexpr std::array<std::string_view, 6> kEventKindNames = {
    "quantum",  "thread_quantum", "invariant",
    "pipeview", "switch_audit",   "cpi_stack"};

/// The "event" value of a retired kind that older traces still carry: a
/// second row per switch beside its switch_audit row. read_trace skips
/// it, so a trace written before its removal still reads and diffs.
inline constexpr std::string_view kRetiredPolicySwitchEvent = "policy_switch";

/// StallCause names (obs/stall.hpp), indexed by StallCause: the keys of
/// an event line's "stalls" object and of the machine.stalls.* stats.
inline constexpr std::array<std::string_view, 7> kStallCauseNames = {
    "policy_throttle", "icache_miss",     "rob_full",
    "dispatch_backpressure", "squash_recovery", "fetch_blackout",
    "fragmentation"};

/// CpiCause names (obs/cpi_stack.hpp), indexed by CpiCause: the keys of
/// a cpi_stack line's "cpi" object and of the threads.N.cpi.* stats.
inline constexpr std::array<std::string_view, 8> kCpiCauseNames = {
    "committed",     "rob_empty",       "dep_wait",        "mem_latency",
    "fu_contention", "structural_full", "squash_recovery", "switch_overhead"};

/// PipeStage names (obs/trace_event.hpp), indexed by PipeStage: the
/// meaning of each slot of a pipeview line's "stages" array.
inline constexpr std::array<std::string_view, 7> kPipeStageNames = {
    "decode", "rename",    "dispatch", "issue",
    "execute", "writeback", "retire"};

/// PipeTerminal names (obs/trace_event.hpp), indexed by code − 1: the
/// "code" of a pipeview line.
inline constexpr std::array<std::string_view, 4> kPipeTerminalNames = {
    "commit", "squash_mispredict", "squash_syscall", "squash_swap"};

static_assert(static_cast<std::size_t>(EventKind::kCpiStack) + 1 ==
              kEventKindNames.size());

/// Name of `i` in `names`, or "unknown" for a code outside the table.
template <std::size_t N>
[[nodiscard]] constexpr std::string_view name_at(
    const std::array<std::string_view, N>& names, std::size_t i) noexcept {
  return i < N ? names[i] : std::string_view("unknown");
}

[[nodiscard]] constexpr std::string_view name(EventKind k) noexcept {
  return name_at(kEventKindNames, static_cast<std::size_t>(k));
}

/// The keys of one JSONL event line, in write order.
enum class TraceKey : std::uint8_t {
  kEvent,
  kQuantum,
  kCycle,
  kTid,
  kSpan,
  kPolicyBefore,
  kPolicyAfter,
  kCode,
  kMask,
  kValue,
  kIpc,
  kFetchShare,
  kMispredictRate,
  kL1dMissRate,
  kL1iMissRate,
  kStalls,   ///< object: StallCause name -> slots
  kStages,   ///< array: PipeStage deltas (pipeview lines)
  kCpi,      ///< object: CpiCause name -> slots (cpi_stack lines)
  kContend,  ///< array: fu_contention slots by holder tid (cpi_stack)
};

struct TraceKeySpec {
  std::string_view key;
  /// The only kind whose lines carry the key; nullopt = every event line.
  std::optional<EventKind> only = std::nullopt;
};

/// Indexed by TraceKey.
inline constexpr std::array<TraceKeySpec, 19> kTraceKeys = {{
    {"event"}, {"quantum"}, {"cycle"}, {"tid"}, {"span"}, {"policy_before"},
    {"policy_after"}, {"code"}, {"mask"}, {"value"}, {"ipc"},
    {"fetch_share"}, {"mispredict_rate"}, {"l1d_miss_rate"},
    {"l1i_miss_rate"}, {"stalls"}, {"stages", EventKind::kPipeview},
    {"cpi", EventKind::kCpiStack}, {"contend", EventKind::kCpiStack}}};

static_assert(static_cast<std::size_t>(TraceKey::kContend) + 1 ==
              kTraceKeys.size());

[[nodiscard]] constexpr std::string_view key(TraceKey k) noexcept {
  return kTraceKeys[static_cast<std::size_t>(k)].key;
}

[[nodiscard]] constexpr bool carries(const TraceKeySpec& k,
                                     EventKind kind) noexcept {
  return !k.only.has_value() || *k.only == kind;
}

/// The "event" value of the provenance line that opens every trace.
inline constexpr std::string_view kBuildInfoEvent = "build_info";

/// The provenance keys after "event", in write order (RunInfo's fields,
/// obs/trace_sink.hpp). Every value is a JSON string.
inline constexpr std::array<std::string_view, 10> kBuildInfoKeys = {
    "tool",          "version",  "git_sha",    "compiler", "flags", "seed",
    "config_digest", "host_cpu", "host_cores", "smt_jobs"};

/// The whole schema as one JSON object (`smttrace schema`): kind and
/// cause names, event keys with the kind that restricts them (null =
/// every line), the build_info keys, the pipe stages that index a
/// "stages" array and the length of a "contend" array.
void write_schema(std::ostream& os);

}  // namespace smt::obs
