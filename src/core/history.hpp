// Switching-history buffer (paper §4.3.2, Type 4 heuristic).
//
// For every policy-switch event the detector thread records the incumbent
// policy and the value of the condition it consulted; once the following
// quantum's IPC is known, the event is scored as a positive outcome
// (throughput rose) or a negative one. Type 4 consults the per-state
// counters before switching: if negatives dominate, it takes the opposite
// transition. (The paper's finding, reproduced by `paper fig7_switching`,
// is that this is *not* worth it: policy/condition outcomes show no
// usable temporal correlation.)
#pragma once

#include <array>
#include <cstdint>

#include "policy/fetch_policy.hpp"

namespace smt::core {

struct SwitchOutcomeCounts {
  std::uint32_t poscnt = 0;
  std::uint32_t negcnt = 0;
};

class SwitchHistory {
 public:
  /// Record the outcome of a completed switch from `incumbent` under
  /// condition value `cond`.
  void record(policy::FetchPolicy incumbent, bool cond, bool positive);

  [[nodiscard]] const SwitchOutcomeCounts& counts(policy::FetchPolicy incumbent,
                                                  bool cond) const;

  /// Should the regular transition be taken? True when positive outcomes
  /// strictly outnumber negative ones so far, or when there is no history
  /// yet (paper: "if poscnt is greater, then a regular switching is
  /// made; otherwise, the opposite direction will be chosen" — we treat
  /// the empty state as regular).
  [[nodiscard]] bool regular_transition(policy::FetchPolicy incumbent,
                                        bool cond) const;

  void clear();

 private:
  [[nodiscard]] static std::size_t index(policy::FetchPolicy p, bool cond);

  std::array<SwitchOutcomeCounts,
             static_cast<std::size_t>(policy::kNumFetchPolicies) * 2>
      counts_{};
};

}  // namespace smt::core
