// Stall-cause taxonomy for fetch-slot attribution.
//
// The paper's evidence is built from *where IPC is lost*: a thread that
// fetches fewer instructions than its slot share is being held back by
// something, and the fetch policies exist precisely to move that loss
// onto the threads that can afford it. StallBreakdown gives every lost
// fetch slot exactly one cause, so the per-quantum telemetry can say
// not just "thread 3 stalled 40% of the time" but *why* — and so the
// accounting is conservative: every cycle,
//
//   charged stall slots + fetched instructions + DT slots == fetch width.
//
// tests/test_stall_attribution.cpp enforces the conservation law per
// cycle and over whole runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "obs/slot_ledger.hpp"
#include "obs/trace_schema.hpp"

namespace smt::obs {

/// Why a fetch slot went unused. One cause per lost slot.
enum class StallCause : std::uint8_t {
  /// Thread was fetch-ready but the active policy ranked it below the
  /// threads that got the slots (or the 2-thread fetch limit cut it off).
  /// This is the ICOUNT-style throttle working as designed.
  kPolicyThrottle,
  /// Fetch is stalled waiting on an L1I miss (includes the cycle the
  /// miss is detected, which spends the thread's fetch port).
  kIcacheMiss,
  /// The thread's reorder window is full: commit is the bottleneck.
  kRobFull,
  /// The front-end buffer is full: dispatch is backed up on IQ / LSQ /
  /// renaming-register exhaustion behind this thread.
  kDispatchBackpressure,
  /// Recovery stall after a squash: mispredict penalty, BTB-miss bubble
  /// or syscall-flush drain.
  kSquashRecovery,
  /// The thread-control flag is blocking fetch (Pipeline::block_fetch):
  /// ADTS clogging-thread suspension or a policy-switch penalty window.
  kFetchBlackout,
  /// Machine-level slack nobody could use: cache-block fragmentation or
  /// a predicted-taken branch ended every eligible thread's fetch group
  /// while slots remained. Charged to the machine, not a thread.
  kFragmentation,
};

inline constexpr std::size_t kNumStallCauses = kStallCauseNames.size();
static_assert(static_cast<std::size_t>(StallCause::kFragmentation) + 1 ==
              kNumStallCauses);

[[nodiscard]] constexpr std::string_view name(StallCause c) noexcept {
  return name_at(kStallCauseNames, static_cast<std::size_t>(c));
}

/// Lost-fetch-slot counters, one bucket per cause.
using StallBreakdown = SlotLedger<StallCause, kNumStallCauses>;

}  // namespace smt::obs
