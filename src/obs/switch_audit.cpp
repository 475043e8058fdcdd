#include "obs/switch_audit.hpp"

#include <array>
#include <limits>
#include <map>

namespace smt::obs {

std::string audit_flag_names(std::uint8_t mask) {
  static constexpr std::array<std::pair<std::uint8_t, std::string_view>, 4>
      kBits{{{kAuditReversed, "reversed"},
             {kAuditInstant, "instant"},
             {kAuditCondMem, "cond_mem"},
             {kAuditCondBr, "cond_br"}}};
  std::string out;
  for (const auto& [bit, label] : kBits) {
    if ((mask & bit) == 0) continue;
    if (!out.empty()) out += '|';
    out += label;
  }
  return out.empty() ? "-" : out;
}

TraceEvent to_trace_event(const SwitchAudit& a) {
  TraceEvent e;
  e.kind = EventKind::kSwitchAudit;
  e.cycle = a.applied_cycle;
  e.quantum = a.quantum;
  e.tid = -1;
  e.span = a.applied_cycle - a.decided_cycle;
  e.policy_before = a.policy_before;
  e.policy_after = a.policy_after;
  e.code = a.heuristic;
  e.mask = a.flags;
  e.value = static_cast<std::uint64_t>(a.label);
  // ipc carries the outcome; NaN (→ null in JSONL) while unscored keeps
  // "no data yet" distinct from a real 0.0 IPC quantum.
  e.ipc = a.scored ? a.ipc_after
                   : std::numeric_limits<double>::quiet_NaN();
  e.fetch_share = a.ipc_before;
  e.mispredict_rate = a.mispredict_rate;
  e.l1d_miss_rate = a.l1_miss_rate;
  e.l1i_miss_rate = a.cond_value;
  return e;
}

void SwitchAuditLog::export_metrics(
    MetricsRegistry& reg, const std::string& prefix,
    std::string_view (*heuristic_name)(std::uint8_t)) const {
  struct HeuristicTally {
    std::uint64_t benign = 0;
    std::uint64_t malignant = 0;
    std::uint64_t neutral = 0;
  };
  std::uint64_t benign = 0;
  std::uint64_t malignant = 0;
  std::uint64_t neutral = 0;
  std::map<std::uint8_t, HeuristicTally> by_heuristic;
  for (const SwitchAudit& a : entries_) {
    HeuristicTally& t = by_heuristic[a.heuristic];
    switch (a.label) {
      case SwitchLabel::kBenign: ++benign; ++t.benign; break;
      case SwitchLabel::kMalignant: ++malignant; ++t.malignant; break;
      case SwitchLabel::kNeutral: ++neutral; ++t.neutral; break;
    }
  }
  reg.set(prefix + "records", static_cast<std::uint64_t>(entries_.size()));
  reg.set(prefix + "dropped", dropped_);
  reg.set(prefix + "benign", benign);
  reg.set(prefix + "malignant", malignant);
  reg.set(prefix + "neutral", neutral);
  reg.set(prefix + "benign_rate", benign_probability(benign, malignant));
  for (const auto& [code, t] : by_heuristic) {
    const std::string key =
        prefix + "by_heuristic." +
        (heuristic_name != nullptr ? std::string(heuristic_name(code))
                                   : std::to_string(code)) +
        '.';
    reg.set(key + "benign", t.benign);
    reg.set(key + "malignant", t.malignant);
    reg.set(key + "neutral", t.neutral);
    reg.set(key + "benign_rate", benign_probability(t.benign, t.malignant));
  }
}

}  // namespace smt::obs
