// The ten fetch policies of Table 1.
//
// Every policy is a priority ordering over the per-thread hardware status
// counters: each cycle the thread selection unit (TSU) sorts the runnable
// threads by the policy's key (lower key = higher fetch priority) and
// fetches from the top two (ICOUNT.2.8). Keeping policies as pure key
// functions mirrors the paper's hardware split — fixed counters + fixed
// TSU, programmable priority array in between — and is what lets the
// detector thread swap policies with a single register write.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "pipeline/counters.hpp"

namespace smt::policy {

/// Table 1 of the paper.
enum class FetchPolicy : std::uint8_t {
  kIcount,        ///< fewest instructions in decode/rename/IQ (Tullsen's best)
  kBrcount,       ///< fewest unresolved branches in the pipeline
  kLdcount,       ///< fewest loads in the pipeline
  kMemcount,      ///< fewest memory accesses in the pipeline
  kL1MissCount,   ///< fewest outstanding L1 (I+D) misses
  kL1IMissCount,  ///< fewest outstanding L1 I-cache misses
  kL1DMissCount,  ///< fewest outstanding L1 D-cache misses
  kAccIpc,        ///< highest accumulated IPC first
  kStallCount,    ///< fewest fetch stalls since the later of the quantum
                  ///< and load marks; with no detector to set quantum
                  ///< marks (a fixed policy), that is since load
  kRoundRobin,    ///< rotate priority each cycle
};

inline constexpr int kNumFetchPolicies = 10;

[[nodiscard]] std::string_view name(FetchPolicy p) noexcept;

/// Parse a policy name (as printed by name()); throws std::out_of_range.
[[nodiscard]] FetchPolicy parse_policy(std::string_view s);

/// All ten policies in enum order.
[[nodiscard]] const std::vector<FetchPolicy>& all_policies();

/// Priority key of thread `tid` under `p`; lower = fetch first.
/// `cycle` feeds the round-robin rotation and ACCIPC's cycles since
/// load. Keys are comparable only within one cycle and one policy.
[[nodiscard]] double priority_key(FetchPolicy p,
                                  const pipeline::ThreadCounters& c,
                                  std::uint32_t tid, std::uint32_t num_threads,
                                  std::uint64_t cycle) noexcept;

}  // namespace smt::policy
