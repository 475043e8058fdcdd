#include "core/heuristics.hpp"

#include <string>

#include "common/cli.hpp"
#include "pipeline/counters.hpp"
#include "policy/fetch_policy.hpp"

namespace smt::core {

using policy::FetchPolicy;

std::string_view name(HeuristicType h) noexcept {
  switch (h) {
    case HeuristicType::kType1: return "Type1";
    case HeuristicType::kType2: return "Type2";
    case HeuristicType::kType3: return "Type3";
    case HeuristicType::kType3Prime: return "Type3'";
    case HeuristicType::kType4: return "Type4";
  }
  return "?";
}

HeuristicType parse_heuristic(std::string_view s) {
  if (s == "1") return HeuristicType::kType1;
  if (s == "2") return HeuristicType::kType2;
  if (s == "3") return HeuristicType::kType3;
  if (s == "3p" || s == "3'") return HeuristicType::kType3Prime;
  if (s == "4") return HeuristicType::kType4;
  throw ConfigError("heuristic must be one of 1|2|3|3p|4, got '" +
                    std::string(s) + "'");
}

const std::vector<HeuristicType>& all_heuristics() {
  static const std::vector<HeuristicType> hs = {
      HeuristicType::kType1, HeuristicType::kType2, HeuristicType::kType3,
      HeuristicType::kType3Prime, HeuristicType::kType4};
  return hs;
}

SystemConditions evaluate_conditions(
    const pipeline::QuantumRates& machine_rates,
    const ConditionThresholds& t) noexcept {
  SystemConditions c;
  c.cond_mem = machine_rates.l1_misses_per_cycle > t.l1_miss_per_cycle ||
               machine_rates.lsq_full_per_cycle > t.lsq_full_per_cycle;
  c.cond_br = machine_rates.mispredicts_per_cycle > t.mispredict_per_cycle ||
              machine_rates.cond_branches_per_cycle > t.cond_branch_per_cycle;
  return c;
}

namespace {

/// The regular Type-3 FSM transition (Figure 6) and the condition bit it
/// consults from the incumbent state. Also used by Type 4, which may
/// invert it.
Decision type3_transition(FetchPolicy incumbent, const SystemConditions& c) {
  Decision d;
  switch (incumbent) {
    case FetchPolicy::kBrcount:
      // BRCOUNT failed ⇒ imbalance is not about branches. If memory
      // pressure is visible go to L1MISSCOUNT, else fall back to the
      // best-on-average ICOUNT.
      d.cond_value = c.cond_mem;
      d.next = c.cond_mem ? FetchPolicy::kL1MissCount : FetchPolicy::kIcount;
      break;
    case FetchPolicy::kL1MissCount:
      d.cond_value = c.cond_br;
      d.next = c.cond_br ? FetchPolicy::kBrcount : FetchPolicy::kIcount;
      break;
    case FetchPolicy::kIcount:
    default:
      // From ICOUNT: address whichever problem the conditions point at.
      // Figure 6 leaves the precedence unspecified when both conditions
      // hold; memory pressure takes it here, because an outstanding-miss
      // clog holds shared resources for a full memory latency (the most
      // expensive imbalance), whereas wrong-path waste self-limits at
      // branch resolution. Neither condition visible → stay on the
      // best-on-average ICOUNT.
      if (c.cond_mem) {
        d.cond_value = false;  // history key: the memory-side transition
        d.next = FetchPolicy::kL1MissCount;
      } else if (c.cond_br) {
        d.cond_value = true;
        d.next = FetchPolicy::kBrcount;
      } else {
        d.cond_value = false;
        d.next = FetchPolicy::kIcount;
      }
      break;
  }
  return d;
}

/// The "opposite direction" transition Type 4 takes when history says the
/// regular one has been losing (paper §4.3.2's example: ICOUNT with
/// COND_BR true would regularly go to BRCOUNT; reversed it goes to
/// L1MISSCOUNT).
FetchPolicy opposite_of(FetchPolicy incumbent, FetchPolicy regular_next) {
  // The FSM has three states; the opposite is the third one (neither the
  // incumbent nor the regular choice). When the regular choice is to stay
  // put there is nothing to reverse.
  const FetchPolicy states[3] = {FetchPolicy::kIcount, FetchPolicy::kBrcount,
                                 FetchPolicy::kL1MissCount};
  for (FetchPolicy s : states) {
    if (s != incumbent && s != regular_next) return s;
  }
  return regular_next;
}

}  // namespace

std::optional<Decision> determine_next_policy(HeuristicType h,
                                              FetchPolicy incumbent,
                                              const SystemConditions& conds,
                                              double ipc_last, double ipc_prev,
                                              const SwitchHistory* history) {
  switch (h) {
    case HeuristicType::kType1: {
      Decision d;
      d.next = incumbent == FetchPolicy::kIcount ? FetchPolicy::kBrcount
                                                 : FetchPolicy::kIcount;
      return d;
    }
    case HeuristicType::kType2: {
      Decision d;
      switch (incumbent) {
        case FetchPolicy::kIcount: d.next = FetchPolicy::kL1MissCount; break;
        case FetchPolicy::kL1MissCount: d.next = FetchPolicy::kBrcount; break;
        case FetchPolicy::kBrcount:
        default: d.next = FetchPolicy::kIcount; break;
      }
      return d;
    }
    case HeuristicType::kType3: {
      const Decision d = type3_transition(incumbent, conds);
      if (d.next == incumbent) return std::nullopt;
      return d;
    }
    case HeuristicType::kType3Prime: {
      if (ipc_last > ipc_prev) return std::nullopt;  // already improving
      const Decision d = type3_transition(incumbent, conds);
      if (d.next == incumbent) return std::nullopt;
      return d;
    }
    case HeuristicType::kType4: {
      if (ipc_last > ipc_prev) return std::nullopt;
      Decision d = type3_transition(incumbent, conds);
      if (d.next == incumbent) return std::nullopt;
      if (history != nullptr &&
          !history->regular_transition(incumbent, d.cond_value)) {
        d.next = opposite_of(incumbent, d.next);
        d.reversed = true;
        if (d.next == incumbent) return std::nullopt;
      }
      return d;
    }
  }
  return std::nullopt;
}

}  // namespace smt::core
