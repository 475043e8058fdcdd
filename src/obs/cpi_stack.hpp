// Top-down CPI-stack taxonomy for commit-slot attribution.
//
// PR 2's StallBreakdown explains lost FETCH slots; everything downstream
// of fetch stayed a black box. This module closes the loop with the
// classic top-down decomposition: every cycle, every thread owns
// commit_width commit slots, and every slot is charged to exactly one
// cause — it either committed an instruction or it names the specific
// reason it could not. Because commit is in-order, the head of the
// thread's window decides the charge for all of that thread's lost
// slots in the cycle (whatever blocks the head blocks everything behind
// it), which is what makes single-cause attribution sound.
//
// The conservation law mirrors PR 2's fetch law and is enforced per
// cycle and per run by tests/test_cpi_stack.cpp and scripts/check_cpi.sh:
//
//   sum over causes == commit_width × cycles_accounted   (per thread)
//
// Two refinements carry the paper's scheduling questions specifically:
//   - kRobEmpty is sub-attributed by the *fetch-side* StallCause that
//     starved the window (rob_empty_by), back-propagating PR 2's
//     attribution to where it finally costs retirement slots;
//   - kFuContention records WHICH co-runner held the issue/commit
//     bandwidth (contend[holder_tid]) — the symbiosis signal SYNPA-style
//     allocators (ROADMAP items 4/5) need.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "obs/slot_ledger.hpp"
#include "obs/stall.hpp"
#include "obs/trace_schema.hpp"

namespace smt::obs {

/// Why a commit slot retired nothing. One cause per lost slot; the
/// in-order head of the window decides.
enum class CpiCause : std::uint8_t {
  /// The slot retired an instruction. The "base" component of the stack.
  kCommitted,
  /// The thread's window is empty: the front end starved retirement.
  /// Sub-attributed by fetch-side StallCause in rob_empty_by.
  kRobEmpty,
  /// The head instruction waits on a register operand produced by a
  /// non-memory instruction (or a short-latency load still in flight).
  kDepWait,
  /// The head instruction is (or waits on) a load with an outstanding
  /// long-latency memory access — the paper's clogging signature.
  kMemLatency,
  /// The head was ready/done but a co-runner consumed the shared issue
  /// bandwidth, FU, memory port or commit slot this cycle. The holder
  /// thread is recorded in CpiStack::contend — the symbiosis signal.
  kFuContention,
  /// The head sits in the front-end buffer behind a structural-full
  /// condition: IQ/LSQ/rename exhaustion blocks dispatch.
  kStructuralFull,
  /// Squash recovery: the head is refilling through the front-end delay
  /// after a mispredict/BTB-miss/syscall flush emptied the back end.
  kSquashRecovery,
  /// Switch machinery blocked the thread: a fetch_blackout stall
  /// (clogging-thread suspension or a policy-switch penalty window), or
  /// the fetch drain after a job swap.
  kSwitchOverhead,
};

inline constexpr std::size_t kNumCpiCauses = kCpiCauseNames.size();
static_assert(static_cast<std::size_t>(CpiCause::kSwitchOverhead) + 1 ==
              kNumCpiCauses);

/// Upper bound on hardware threads a CPI stack tracks contention
/// against (matches the pipeline's 8-thread ceiling).
inline constexpr std::size_t kCpiMaxThreads = 8;

[[nodiscard]] constexpr std::string_view name(CpiCause c) noexcept {
  return name_at(kCpiCauseNames, static_cast<std::size_t>(c));
}

/// One thread's commit-slot account: slot counters per cause, the
/// fetch-side sub-attribution of kRobEmpty, and the per-holder
/// contention matrix row for kFuContention.
struct CpiStack : SlotLedger<CpiCause, kNumCpiCauses> {
  /// kRobEmpty slots broken down by the fetch StallCause that starved
  /// the window. Invariant: total() == slots[kRobEmpty].
  StallBreakdown rob_empty_by;
  /// kFuContention slots broken down by which co-runner held the
  /// resource. Invariant: total() == slots[kFuContention].
  SlotLedger<std::size_t, kCpiMaxThreads> contend;

  /// The arithmetic acts on all three parts.
  CpiStack& operator+=(const CpiStack& o) noexcept;
  CpiStack& operator-=(const CpiStack& o) noexcept;
  [[nodiscard]] friend CpiStack operator-(CpiStack a,
                                          const CpiStack& b) noexcept {
    return a -= b;
  }
  bool operator==(const CpiStack&) const = default;
};

/// Slots the stack fails to account for against a commit_width × cycles
/// budget: 0 iff the conservation law holds. Also 0 only if the two
/// sub-attribution invariants (rob_empty_by, contend) hold.
[[nodiscard]] std::uint64_t conservation_gap(const CpiStack& s,
                                             std::uint64_t commit_width,
                                             std::uint64_t cycles) noexcept;

}  // namespace smt::obs
