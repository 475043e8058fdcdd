#include "sim/oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "par/thread_pool.hpp"
#include "policy/fetch_policy.hpp"

namespace smt::sim {

namespace {

/// One worker's share of a quantum's trials: candidates lane, lane +
/// lanes, ... A lane holds at most two simulators, the trial being run
/// and its best so far (which a better trial swaps out), and only one if
/// it has a single candidate. They stay allocated across quanta, so
/// later trials copy into buffers that are already there.
struct Lane {
  std::optional<Simulator> running;
  std::optional<Simulator> best;
  std::size_t best_index = 0;
  std::uint64_t best_committed = 0;

  void run(const Simulator& base, const OracleConfig& cfg, std::size_t first,
           std::size_t stride) {
    // The last quantum's best (a finished trial, or the old base if it
    // won) is a spare now; a lane of one candidate keeps only that one.
    if (!running) std::swap(running, best);
    const std::uint64_t committed_before = base.committed();
    for (std::size_t i = first; i < cfg.candidates.size(); i += stride) {
      if (running) {
        *running = base;  // reuses the buffers of an earlier trial
      } else {
        running.emplace(base);
      }
      running->pipeline().set_policy(cfg.candidates[i]);
      running->run(cfg.quantum_cycles);
      const std::uint64_t committed = running->committed() - committed_before;
      // Strictly better only: within a lane indices rise, so the earliest
      // candidate keeps a tie.
      if (i == first || committed > best_committed) {
        std::swap(running, best);
        best_index = i;
        best_committed = committed;
      }
    }
  }
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

  // Candidate trials are independent (each copies `base`), so each
  // worker runs a strided share of them. The winner is then reduced
  // over the lanes by committed count and, on a tie, the lower candidate
  // index: the first-index tie-break of a serial loop over all
  // candidates, so the result is identical for any worker count.
  // Every lane has at least one candidate: workers <= candidates.
  par::ThreadPool pool(std::min<std::size_t>(jobs, cfg.candidates.size()));
  std::vector<Lane> lanes(std::max<std::size_t>(pool.workers(), 1));

  for (std::uint64_t q = 0; q < quanta; ++q) {
    par::parallel_for(pool, lanes.size(), [&](std::size_t l) {
      lanes[l].run(base, cfg, l, lanes.size());
    });

    Lane* win = &lanes.front();
    for (Lane& lane : lanes) {
      if (lane.best_committed > win->best_committed ||
          (lane.best_committed == win->best_committed &&
           lane.best_index < win->best_index)) {
        win = &lane;
      }
    }
    const policy::FetchPolicy best_policy = cfg.candidates[win->best_index];

    // The old base becomes the winning lane's spare buffer.
    std::swap(base, *win->best);
    result.cycles += cfg.quantum_cycles;
    result.committed += win->best_committed;
    result.quanta_per_policy[static_cast<std::size_t>(best_policy)] += 1;
    if (best_policy != last) ++result.switches;
    last = best_policy;
  }
  return result;
}

}  // namespace smt::sim
