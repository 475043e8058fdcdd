// Microarchitectural invariant checker.
//
// The paper's headline numbers (ADTS recovering ~25-27 % over fixed
// ICOUNT) are IPC ratios, and an IPC ratio is only as trustworthy as the
// cycle-level accounting underneath it: a silently broken conservation
// law in fetch, rename or commit corrupts every result without failing a
// single functional test. PR 2 proved one such law (stall-slot
// attribution) per cycle; this subsystem generalises that into a
// pluggable runtime checker that an end-to-end run can keep enabled.
//
// Five invariant classes (InvariantClass), checked after every Simulator
// step and every leap over quiet cycles:
//
//   * resource conservation — every occupancy counter (icount / brcount /
//     ldcount / memcount / L1D outstanding / front-end count), the shared
//     LSQ, both rename files and both IQ capacities recomputed from the
//     windows and compared with the incrementally maintained values
//     (Pipeline::audit_resources).
//   * slot conservation — the fetch-slot ledger balances absolutely:
//     fetched + fetch_slots_idle == cycles × fetch_width, and
//     charged_stall_slots + dt_slots_used == fetch_slots_idle.
//   * commit order — the machine retires ≤ commit_width per cycle, the
//     global retirement counter equals the sum of per-thread retirements,
//     and each thread's window-head seq advances by exactly its committed
//     delta (in-order commit: a thread cannot retire around its head).
//   * counter monotonicity — every free-running event total of every
//     thread (pipeline::EventCounts) never shrinks, and grows by at most
//     its hard per-cycle ceiling (commit, fetch or issue width, or one
//     event per cycle) times the cycles since the previous call.
//   * policy switches — the fetch policy never changes while ADTS cannot
//     act (disabled or suspended); with ADTS on, switches may land on any
//     cycle because Policy_Switch applies when the DT's work drains.
//
// The checker is a pure observer: it reads the pipeline through a const
// reference, keeps its own baselines, and never mutates simulated
// state — a checked run is bit-identical to an unchecked one (enforced by
// tests/test_observer_contract.cpp). Violations are recorded here,
// surfaced as kInvariant trace events by the Simulator, and turned into
// exit code kExitCheck by smtsim.
//
// Adding a pass: see DESIGN.md §11.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "pipeline/counters.hpp"
#include "pipeline/pipeline.hpp"
#include "policy/fetch_policy.hpp"

namespace smt::check {

/// Whether checking is active. kAuto defers to the SMT_CHECK environment
/// variable so a CMake option (and CI) can default-enable checking for
/// every test-constructed Simulator without code changes.
enum class CheckMode : std::uint8_t { kAuto, kOn, kOff };

/// Resolve a CheckMode: kOn/kOff pass through; kAuto reads SMT_CHECK
/// ("1" / "on" / "true" enable, anything else — including unset — off).
[[nodiscard]] bool check_enabled(CheckMode m) noexcept;

enum class InvariantClass : std::uint8_t {
  kResourceConservation,
  kSlotConservation,
  kCommitOrder,
  kCounterMonotone,
  kPolicySwitch,
};
inline constexpr std::size_t kNumInvariantClasses = 5;

[[nodiscard]] std::string_view name(InvariantClass c) noexcept;
/// TraceDecoder-compatible namer (TraceEvent::code -> class name).
[[nodiscard]] std::string_view invariant_class_name(std::uint8_t code) noexcept;

/// One recorded violation. `detail` is a static string literal.
struct Violation {
  InvariantClass cls = InvariantClass::kResourceConservation;
  std::uint64_t cycle = 0;
  std::int32_t tid = -1;  ///< offending thread; -1 = machine-wide
  std::uint64_t value = 0;  ///< offending quantity (mask, delta, sample)
  const char* detail = "";
};

class InvariantChecker {
 public:
  /// Violations recorded with full context; counting never stops.
  static constexpr std::size_t kMaxRecorded = 64;

  /// Baseline every delta against the current state. Called implicitly by
  /// the first on_cycle; call explicitly to re-arm after external
  /// manipulation the checker should not attribute to the machine.
  void arm(const pipeline::Pipeline& pipe);

  /// Run every pass. Call once per Simulator step or leap, after all
  /// mutations (pipeline, detector tick). Multi-cycle spans (a leap, or
  /// cycles advanced outside the checked loop) are handled: the per-span
  /// laws stretch over the span, the absolute laws don't care.
  /// Returns the number of violations newly *recorded* this call.
  std::size_t on_cycle(const pipeline::Pipeline& pipe, bool adts_enabled);

  [[nodiscard]] bool ok() const noexcept { return total_ == 0; }
  [[nodiscard]] std::uint64_t violation_count() const noexcept {
    return total_;
  }
  [[nodiscard]] std::uint64_t count(InvariantClass c) const noexcept {
    return per_class_[static_cast<std::size_t>(c)];
  }
  /// Recorded violations, oldest first (capped at kMaxRecorded).
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return log_;
  }

  /// Per-class summary + the recorded violations. No output when ok().
  void write_report(std::ostream& os) const;

 private:
  void report(InvariantClass cls, std::uint64_t cycle, std::int32_t tid,
              std::uint64_t value, const char* detail);

  /// Per-thread delta baselines from the previous on_cycle.
  struct ThreadBase {
    pipeline::EventCounts events;
    std::uint64_t head_seq = 0;
  };

  bool armed_ = false;
  std::uint64_t prev_cycle_ = 0;
  std::uint64_t prev_committed_ = 0;
  policy::FetchPolicy prev_policy_ = policy::FetchPolicy::kIcount;
  std::vector<ThreadBase> threads_;

  std::uint64_t total_ = 0;
  std::array<std::uint64_t, kNumInvariantClasses> per_class_{};
  std::vector<Violation> log_;
};

}  // namespace smt::check
