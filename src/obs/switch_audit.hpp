// Switch-audit provenance: one record per *applied* ADTS policy switch.
//
// The paper's Figure 7 argument is a switch-quality story — every switch
// is classified benign or malignant one quantum after it lands. That
// classifier used to live twice (inside the detector and re-derived by
// the Fig. 7 bench); this header is now the single definition shared by
// the runtime audit, the benches and the tests:
//
//   benign    — IPC over the quantum after the switch exceeds the IPC
//               that triggered the decision (strict; ties are malignant,
//               matching the paper's "did the switch help" reading)
//   malignant — it did not
//   neutral   — the switch was applied but the run ended before the
//               scoring quantum completed (never counted in rates)
//
// A SwitchAudit additionally carries the full decision context: the
// heuristic, the machine counter rates and condition evaluations that
// drove the decision, and the decided→applied cycle pair (non-zero
// span = the decision waited for DT work to drain).
//
// obs sits below core/, so heuristic and policy identities are stored as
// raw codes here and named by the caller's decoder when serialized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"

namespace smt::obs {

/// Post-hoc quality label of an applied switch.
enum class SwitchLabel : std::uint8_t {
  kNeutral = 0,    ///< applied, never scored (run ended first)
  kBenign = 1,     ///< IPC rose over the following quantum
  kMalignant = 2,  ///< IPC held or fell over the following quantum
};

[[nodiscard]] constexpr std::string_view name(SwitchLabel l) noexcept {
  switch (l) {
    case SwitchLabel::kNeutral: return "neutral";
    case SwitchLabel::kBenign: return "benign";
    case SwitchLabel::kMalignant: return "malignant";
  }
  return "unknown";
}

/// The one benign/malignant definition (ties are malignant).
[[nodiscard]] constexpr SwitchLabel classify_switch(double ipc_before,
                                                    double ipc_after) noexcept {
  return ipc_after > ipc_before ? SwitchLabel::kBenign
                                : SwitchLabel::kMalignant;
}

/// Probability of a benign switch given scored counts — the quantity
/// plotted in Figure 7c/7d. Zero when nothing was scored.
[[nodiscard]] constexpr double benign_probability(
    std::uint64_t benign, std::uint64_t malignant) noexcept {
  const std::uint64_t scored = benign + malignant;
  return scored != 0 ? static_cast<double>(benign) /
                           static_cast<double>(scored)
                     : 0.0;
}

/// kSwitchAudit payload bits (TraceEvent::mask).
enum AuditFlag : std::uint8_t {
  kAuditReversed = 1,  ///< decision reversed an earlier switch (history)
  kAuditInstant = 4,   ///< applied at the boundary (no DT drain wait)
  kAuditCondMem = 8,   ///< memory condition held at decision time
  kAuditCondBr = 16,   ///< branch condition held at decision time
};

[[nodiscard]] std::string audit_flag_names(std::uint8_t mask);

/// Everything known about one applied policy switch.
struct SwitchAudit {
  std::uint8_t heuristic = 0;      ///< core::HeuristicType code
  std::uint8_t policy_before = 0;  ///< policy::FetchPolicy code
  std::uint8_t policy_after = 0;   ///< policy::FetchPolicy code
  std::uint8_t flags = 0;          ///< AuditFlag bits
  std::uint64_t quantum = 0;       ///< quantum index of the decision
  std::uint64_t decided_cycle = 0;
  std::uint64_t applied_cycle = 0;
  std::uint64_t scored_cycle = 0;  ///< 0 while unscored

  // Decision inputs: the quantum rates the heuristic saw (machine-pooled,
  // per cycle) and the condition magnitude it compared.
  double ipc_before = 0.0;  ///< IPC_last that triggered the decision
  double ipc_prev = 0.0;    ///< IPC of the quantum before that
  double br_rate = 0.0;     ///< conditional branches per cycle
  double mispredict_rate = 0.0;
  double l1_miss_rate = 0.0;
  double lsq_full_rate = 0.0;
  double cond_value = 0.0;  ///< heuristic condition magnitude

  // Outcome, filled at the end of the following quantum.
  double ipc_after = 0.0;  ///< meaningless until scored
  SwitchLabel label = SwitchLabel::kNeutral;
  bool scored = false;
};

/// Serialize one audit record into the flat trace schema (see the field
/// table in trace_event.hpp).
[[nodiscard]] TraceEvent to_trace_event(const SwitchAudit& a);

/// Append-only audit trail with a hard cap: once full, further switches
/// are counted in dropped() but not recorded, so a pathological run
/// cannot grow memory without bound.
class SwitchAuditLog {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  explicit SwitchAuditLog(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Record an applied switch; returns its index, or npos when the log
  /// is full (the switch is then only counted in dropped()).
  std::size_t push(const SwitchAudit& a) {
    if (entries_.size() >= capacity_) {
      ++dropped_;
      return npos;
    }
    entries_.push_back(a);
    return entries_.size() - 1;
  }

  /// Score entry `idx` (no-op for npos). Sets label, outcome IPC and the
  /// scoring cycle; the classifier is the shared one above.
  void score(std::size_t idx, double ipc_after, std::uint64_t cycle) {
    if (idx == npos || idx >= entries_.size()) return;
    SwitchAudit& a = entries_[idx];
    a.ipc_after = ipc_after;
    a.scored_cycle = cycle;
    a.label = classify_switch(a.ipc_before, ipc_after);
    a.scored = true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] const std::vector<SwitchAudit>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] const SwitchAudit& operator[](std::size_t i) const {
    return entries_[i];
  }

  [[nodiscard]] std::uint64_t count(SwitchLabel l) const noexcept {
    std::uint64_t n = 0;
    for (const SwitchAudit& a : entries_) n += (a.label == l) ? 1 : 0;
    return n;
  }

  void clear() {
    entries_.clear();
    dropped_ = 0;
  }

  /// Export audit.* aggregates: totals by label, overall benign rate and
  /// per-heuristic scored counts / benign rate. `heuristic_name` decodes
  /// heuristic codes (nullptr → numeric keys).
  void export_metrics(MetricsRegistry& reg, const std::string& prefix,
                      std::string_view (*heuristic_name)(std::uint8_t)) const;

 private:
  std::vector<SwitchAudit> entries_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
};

}  // namespace smt::obs
