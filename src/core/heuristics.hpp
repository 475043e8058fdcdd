// Fetch-policy determination heuristics (paper §4.3).
//
// Once the detector thread recognises a low-throughput quantum
// (IPC_last < threshold), one of these heuristics picks the fetch policy
// for the next quantum:
//
//   Type 1  — fixed toggle ICOUNT ⇄ BRCOUNT; no status indicators read.
//   Type 2  — fixed cycle ICOUNT → L1MISSCOUNT → BRCOUNT → ICOUNT.
//   Type 3  — condition-driven FSM over {ICOUNT, BRCOUNT, L1MISSCOUNT}
//             using COND_MEM (L1 miss rate / LSQ-full rate) and COND_BR
//             (mispredict rate / conditional-branch rate).
//   Type 3′ — Type 3 plus the throughput-gradient rule: never switch
//             while IPC is already improving.
//   Type 4  — Type 3′ plus the switching-history buffer: if past switches
//             from this (incumbent, condition) state were net-negative,
//             take the opposite transition.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/history.hpp"
#include "pipeline/counters.hpp"
#include "policy/fetch_policy.hpp"

namespace smt::core {

enum class HeuristicType : std::uint8_t {
  kType1,
  kType2,
  kType3,
  kType3Prime,
  kType4,
};

inline constexpr int kNumHeuristics = 5;

[[nodiscard]] std::string_view name(HeuristicType h) noexcept;
/// The spelling `smtsim --heuristic` and grid files share: 1, 2, 3, 3p
/// (or 3'), 4. Throws smt::ConfigError for anything else.
[[nodiscard]] HeuristicType parse_heuristic(std::string_view s);
[[nodiscard]] const std::vector<HeuristicType>& all_heuristics();

/// Machine-wide per-cycle rate thresholds for the Type 3/4 conditions.
///
/// The paper determines these "by simulation: we ran eight-thread
/// simulation ... with our 13 different mixes and ended up with an
/// average value for each metric" (§4.3.2), and notes that "to be more
/// effective, the threshold values should be updated to reflect newly
/// found information" by profiling. We ran the same calibration on this
/// simulator. The *means* land strikingly close to the paper's for two
/// metrics (paper: L1 miss 0.19/cyc, mispredict 0.02/cyc; here: 0.184 and
/// 0.0195) — but a mean-level threshold is exceeded by roughly half of
/// all quanta, which leaves COND_BR/COND_MEM permanently asserted on
/// branchy/memory mixes and strips them of discriminating power. The
/// shipped defaults are therefore the 75th percentile of the per-quantum
/// machine-wide rate distributions over the 13 mixes (the "profiled
/// update" the paper prescribes): a condition now flags a genuinely
/// abnormal quantum. `paper ablation_conditions` sweeps scale factors
/// around these values.
struct ConditionThresholds {
  double l1_miss_per_cycle = 0.25;
  double lsq_full_per_cycle = 0.051;
  double mispredict_per_cycle = 0.028;
  double cond_branch_per_cycle = 0.21;
};

/// The two composite conditions of the Type 3 FSM.
struct SystemConditions {
  bool cond_mem = false;  ///< memory imbalance suspected
  bool cond_br = false;   ///< control imbalance suspected
};

/// Evaluate COND_MEM / COND_BR from machine-wide quantum rates (the sum of
/// per-thread rates, which is what pooled hardware counters would show).
[[nodiscard]] SystemConditions evaluate_conditions(
    const pipeline::QuantumRates& machine_rates,
    const ConditionThresholds& thresholds) noexcept;

/// A policy-switch decision.
struct Decision {
  policy::FetchPolicy next = policy::FetchPolicy::kIcount;
  /// Value of the condition consulted for the incumbent state — the
  /// history key for Type 4 outcome recording.
  bool cond_value = false;
  /// Type 4 inverted the regular Type-3 transition.
  bool reversed = false;
};

/// Pick the next fetch policy after a low-throughput quantum. Returns
/// nullopt when the heuristic elects not to switch (Type 3's "nothing
/// stands out, stay", or the Type 3′/4 positive-gradient rule).
///
/// `history` is consulted (not modified) for Type 4 and may be null for
/// the other types. `ipc_prev` is the IPC of the quantum before last
/// (gradient reference).
[[nodiscard]] std::optional<Decision> determine_next_policy(
    HeuristicType h, policy::FetchPolicy incumbent,
    const SystemConditions& conds, double ipc_last, double ipc_prev,
    const SwitchHistory* history);

}  // namespace smt::core
