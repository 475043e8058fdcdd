// The one trace-event record the sink buffers and the JSONL trace holds
// (one line per event; the key and name tables are obs/trace_schema.hpp).
//
// TraceEvent is a flat, fixed-size POD so the TraceSink ring buffer never
// allocates per event and a sink attached to a hot simulation costs one
// struct copy per record. Kind-specific meaning of the generic fields:
//
//   kind            tid    fields used
//   --------------  -----  ------------------------------------------------
//   kQuantum        -1     span (cycles), value (committed), ipc,
//                          policy_after (active policy), stalls
//   kThreadQuantum  >= 0   span, value (committed), ipc, fetch_share,
//                          mispredict_rate, l1d/l1i_miss_rate, stalls
//   kInvariant      any    code (check::InvariantClass), value (offending
//                          quantity: mismatch mask, excess delta, ...)
//   kPipeview       >= 0   cycle (fetch cycle), value (instruction seq),
//                          span (retire delta), code (PipeTerminal),
//                          mask (PipeFlag bits), stage_delta (per-stage
//                          cycle offsets from fetch; 0 = never reached)
//   kSwitchAudit    -1     quantum (the decision's), cycle (apply cycle),
//                          span (apply − decided), policy_before →
//                          policy_after, code (heuristic),
//                          value (SwitchLabel), mask (AuditFlag bits),
//                          fetch_share (IPC before), ipc (IPC after; null
//                          while unscored), mispredict_rate / l1d_miss_rate
//                          (decision-time machine mispredicts / L1 misses
//                          per cycle), l1i_miss_rate (condition magnitude)
//   kCpiStack       >= 0   span (cycles), value (commit_width), ipc,
//                          cpi, stalls, contend
//
// The slot arrays (stalls, cpi, contend) carry slot ledgers, and the
// codec at the end of this file is the one place that decides which
// ledger each kind's arrays hold.
//
// Rates are per cycle over the event's span, matching the convention of
// pipeline::QuantumRates; fetch_share is the fraction of *all* fetch
// slots (fetch_width × span) the thread's fetched instructions consumed.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/cpi_stack.hpp"
#include "obs/stall.hpp"
#include "obs/trace_schema.hpp"

namespace smt::obs {

/// Pipeview stage slots (TraceEvent::stage_delta indices). The fetch cycle
/// is the event's `cycle`; every slot holds the cycle offset from fetch at
/// which the instruction entered that stage, 0 meaning "never reached"
/// (every real post-fetch stage sits at delta >= 1 because the front end
/// is at least one cycle deep). `kRetire` duplicates `span` so a pipeview
/// row is self-contained.
enum class PipeStage : std::uint8_t {
  kDecode = 0,    ///< entered the decode portion of the front end
  kRename,        ///< rename complete (dispatch-ready)
  kDispatch,      ///< entered an issue queue
  kIssue,         ///< selected by the scheduler, left the queue
  kExecute,       ///< functional unit occupied (same cycle as issue)
  kWriteback,     ///< result written back / completion handled
  kRetire,        ///< committed or squashed (see PipeTerminal)
};
inline constexpr std::size_t kNumPipeStages = kPipeStageNames.size();
static_assert(static_cast<std::size_t>(PipeStage::kRetire) + 1 ==
              kNumPipeStages);

[[nodiscard]] constexpr std::string_view name(PipeStage s) noexcept {
  return name_at(kPipeStageNames, static_cast<std::size_t>(s));
}

/// How a sampled instruction left the window (TraceEvent::code of a
/// kPipeview event). In-flight instructions at the end of a run are never
/// emitted, so every pipeview row carries exactly one terminal.
enum class PipeTerminal : std::uint8_t {
  kCommit = 1,            ///< retired architecturally
  kSquashMispredict = 2,  ///< flushed by a branch-mispredict recovery
  kSquashSyscall = 3,     ///< flushed by a syscall drain
  kSquashSwap = 4,        ///< discarded by a job swap (no replay)
};

static_assert(static_cast<std::size_t>(PipeTerminal::kSquashSwap) ==
              kPipeTerminalNames.size());

[[nodiscard]] constexpr std::string_view name(PipeTerminal t) noexcept {
  // Codes start at 1; code 0 wraps past the table to "unknown".
  return name_at(kPipeTerminalNames, static_cast<std::size_t>(t) - 1);
}

/// kPipeview payload bits (TraceEvent::mask).
enum PipeFlag : std::uint8_t {
  kPipeWrongPath = 1,    ///< fetched down a mispredicted path
  kPipeMispredicted = 2, ///< the instruction itself mispredicted
};

/// "wrong_path|mispredicted"-style names of the set PipeFlag bits; empty
/// when none is set (each caller renders the empty case its own way).
[[nodiscard]] inline std::string pipe_flag_names(std::uint8_t mask) {
  std::string out;
  if ((mask & kPipeWrongPath) != 0) out += "wrong_path";
  if ((mask & kPipeMispredicted) != 0) {
    if (!out.empty()) out += '|';
    out += "mispredicted";
  }
  return out;
}

struct TraceEvent {
  EventKind kind = EventKind::kQuantum;
  std::uint64_t cycle = 0;    ///< cycle the event was recorded
  std::uint64_t quantum = 0;  ///< scheduling-quantum index (cycle / quantum)
  std::int32_t tid = -1;      ///< thread scope; -1 = machine scope
  std::uint64_t span = 0;     ///< cycles covered (quantum rows, audits, ...)
  std::uint8_t policy_before = 0;  ///< policy::FetchPolicy code
  std::uint8_t policy_after = 0;   ///< policy::FetchPolicy code
  std::uint8_t code = 0;  ///< kind-specific: heuristic / terminal / class
  std::uint8_t mask = 0;  ///< kind-specific flag bits (pipeview, audit)
  std::uint64_t value = 0;          ///< kind-specific count (committed, ...)
  double ipc = 0.0;
  double fetch_share = 0.0;
  double mispredict_rate = 0.0;
  double l1d_miss_rate = 0.0;
  double l1i_miss_rate = 0.0;
  /// By StallCause, over the span: lost fetch slots on kQuantum (the
  /// machine's) and kThreadQuantum (the thread's) rows, and on kCpiStack
  /// rows the stack's rob_empty_by, which are commit slots. Read and
  /// write it through the row codec below.
  std::array<std::uint64_t, kNumStallCauses> stalls{};
  /// kPipeview only: per-stage cycle offsets from the fetch cycle,
  /// indexed by PipeStage; 0 = the stage was never reached.
  std::array<std::uint32_t, kNumPipeStages> stage_delta{};
  /// kCpiStack only: commit slots charged over the span, by CpiCause.
  std::array<std::uint64_t, kNumCpiCauses> cpi{};
  /// kCpiStack only: kFuContention slots by the co-runner that held the
  /// contended resource (index = holder tid).
  std::array<std::uint64_t, kCpiMaxThreads> contend{};
};

// --- Row codec: slot ledgers in and out of trace rows -------------------

/// Writes a fetch-slot ledger into a kQuantum or kThreadQuantum row.
inline void encode_row(const StallBreakdown& s, TraceEvent& e) noexcept {
  e.stalls = s.slots;
}

/// Writes a commit-slot stack into a kCpiStack row.
inline void encode_row(const CpiStack& s, TraceEvent& e) noexcept {
  e.cpi = s.slots;
  e.stalls = s.rob_empty_by.slots;
  e.contend = s.contend.slots;
}

/// The lost fetch slots a row carries: empty on every kind but kQuantum
/// and kThreadQuantum (a kCpiStack row's stalls are commit slots).
[[nodiscard]] inline StallBreakdown decode_fetch_stalls(
    const TraceEvent& e) noexcept {
  StallBreakdown s;
  if (e.kind == EventKind::kQuantum || e.kind == EventKind::kThreadQuantum) {
    s.slots = e.stalls;
  }
  return s;
}

/// The commit-slot stack a row carries: empty on every kind but
/// kCpiStack. Its budget is value (commit_width) × span.
[[nodiscard]] inline CpiStack decode_cpi_stack(const TraceEvent& e) noexcept {
  CpiStack s;
  if (e.kind == EventKind::kCpiStack) {
    s.slots = e.cpi;
    s.rob_empty_by.slots = e.stalls;
    s.contend.slots = e.contend;
  }
  return s;
}

}  // namespace smt::obs
