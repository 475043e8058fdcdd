// Oracle-scheduled execution: the greedy per-quantum reference ADTS is
// compared with. It is not an upper bound: picking each quantum's best
// policy can leave the machine worse placed for the next quantum, and on
// some mixes the whole run commits less than fixed ICOUNT.
//
// The paper motivates ADTS by showing "a single fixed thread scheduling
// policy presents much room (some 30%) for improvement compared to an
// oracle-scheduled case". The oracle is realisable here because the
// Simulator is value-semantic: each scheduling quantum is executed once
// under every candidate policy from an identical snapshot, and the run
// continues from the best outcome. This is a true per-quantum oracle —
// it even benefits from lookahead effects no hardware could have.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "policy/fetch_policy.hpp"
#include "sim/simulator.hpp"

namespace smt::sim {

/// The three states of the ADTS Type-3 FSM: ICOUNT, BRCOUNT, L1MISSCOUNT.
[[nodiscard]] std::vector<policy::FetchPolicy> type3_policies();

struct OracleConfig {
  std::uint64_t quantum_cycles = 8192;
  /// Policies the oracle may pick from each quantum. Default: the three
  /// states of the ADTS Type-3 FSM; assign policy::all_policies() for
  /// the full ten-policy oracle. (Built out of line: a braced list here
  /// trips GCC 12's -Wmaybe-uninitialized wherever two configs are
  /// default-constructed and one is reassigned.)
  std::vector<policy::FetchPolicy> candidates = type3_policies();
};

struct OracleResult {
  std::uint64_t cycles = 0;
  std::uint64_t committed = 0;
  std::uint64_t switches = 0;  ///< quanta where the best policy changed
  std::array<std::uint64_t, policy::kNumFetchPolicies> quanta_per_policy{};

  [[nodiscard]] double ipc() const noexcept {
    return cycles ? static_cast<double>(committed) / static_cast<double>(cycles)
                  : 0.0;
  }
};

/// Run `quanta` scheduling quanta from the state of `base`, choosing the
/// per-quantum-best candidate policy. `base` is taken by value (the run
/// consumes a snapshot; the caller's simulator is unchanged).
///
/// `jobs` fans the per-quantum candidate trials across a worker pool
/// (src/par/); each worker keeps at most two trials alive, the running
/// one and its best. Ties break on the first candidate index, so the
/// result is bit-identical for every jobs value; jobs <= 1 runs inline.
[[nodiscard]] OracleResult run_oracle(Simulator base, std::uint64_t quanta,
                                      const OracleConfig& cfg,
                                      std::size_t jobs = 1);

}  // namespace smt::sim
