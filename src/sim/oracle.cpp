#include "sim/oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "par/thread_pool.hpp"
#include "policy/fetch_policy.hpp"

namespace smt::sim {

namespace {

/// Outcome of one candidate-policy trial: the instructions it committed
/// over the quantum and the machine state it ended in (moved into `base`
/// if this candidate wins, so no state is ever re-simulated or cloned
/// speculatively).
struct Trial {
  std::uint64_t committed = 0;
  Simulator sim;
};

}  // namespace

std::vector<policy::FetchPolicy> type3_policies() {
  return {policy::FetchPolicy::kIcount, policy::FetchPolicy::kBrcount,
          policy::FetchPolicy::kL1MissCount};
}

OracleResult run_oracle(Simulator base, std::uint64_t quanta,
                        const OracleConfig& cfg, std::size_t jobs) {
  if (cfg.candidates.empty()) {
    throw std::invalid_argument("OracleConfig: no candidate policies");
  }
  if (base.adts_enabled()) {
    throw std::invalid_argument(
        "run_oracle: disable ADTS in the base simulator (the oracle "
        "replaces the detector thread)");
  }

  OracleResult result;
  policy::FetchPolicy last = base.pipeline().policy();

  // Candidate trials are independent (each clones `base`), so they fan
  // out across the pool. Selection below is a serial reduction in
  // candidate order, so the result is identical for any worker count.
  par::ThreadPool pool(std::min<std::size_t>(jobs, cfg.candidates.size()));

  for (std::uint64_t q = 0; q < quanta; ++q) {
    const std::uint64_t committed_before = base.committed();

    std::vector<Trial> trials = par::parallel_map(
        pool, cfg.candidates.size(), [&base, &cfg, committed_before](
                                         std::size_t i) {
          Simulator trial = base;
          trial.pipeline().set_policy(cfg.candidates[i]);
          trial.run(cfg.quantum_cycles);
          return Trial{trial.committed() - committed_before,
                       std::move(trial)};
        });

    // First-index tie-break: the earliest candidate with the strictly
    // best committed count wins, exactly as the serial loop decided.
    std::size_t best = 0;
    for (std::size_t i = 1; i < trials.size(); ++i) {
      if (trials[i].committed > trials[best].committed) best = i;
    }
    const policy::FetchPolicy best_policy = cfg.candidates[best];

    base = std::move(trials[best].sim);
    result.cycles += cfg.quantum_cycles;
    result.committed += trials[best].committed;
    result.quanta_per_policy[static_cast<std::size_t>(best_policy)] += 1;
    if (best_policy != last) ++result.switches;
    last = best_policy;
  }
  return result;
}

}  // namespace smt::sim
