// Shared experiment plumbing for the benchmark harnesses.
//
// Every figure/table bench runs the same kinds of configurations; this
// module centralises them so a bench is just "sweep, collect, print".
// The SMT_BENCH_SCALE environment variable ("quick" | "default" | "full")
// trades runtime for statistical quality without touching bench code.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/heuristics.hpp"
#include "policy/fetch_policy.hpp"
#include "sim/oracle.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"
#include "workload/mix.hpp"

namespace smt::sim {

struct ExperimentScale {
  SamplingPlan plan{};
  /// Quanta per oracle run (oracle is ~|candidates|× the cost per quantum).
  std::uint64_t oracle_quanta = 12;
  std::uint32_t oracle_intervals = 1;
  std::uint64_t base_seed = 2003;  ///< IPPS 2003
  /// Worker threads for the embarrassingly parallel sweeps (src/par/).
  /// Results are bit-identical for any value; 1 = serial.
  std::size_t jobs = 1;

  /// Read SMT_BENCH_SCALE and SMT_JOBS from the environment.
  [[nodiscard]] static ExperimentScale from_env();
};

/// The paper's threshold sweep: m = 1..5 (IPC units).
[[nodiscard]] std::vector<double> threshold_sweep();

/// IPC of a fixed policy on a mix.
[[nodiscard]] SampleResult run_fixed(const workload::Mix& mix,
                                     policy::FetchPolicy policy,
                                     std::size_t threads,
                                     const ExperimentScale& scale);

/// Full ADTS run (detector thread + heuristic) on a mix.
[[nodiscard]] SampleResult run_adts(const workload::Mix& mix,
                                    core::HeuristicType heuristic,
                                    double ipc_threshold, std::size_t threads,
                                    const ExperimentScale& scale,
                                    const core::AdtsConfig* overrides = nullptr);

/// Oracle upper bound on a mix (averaged over scale.oracle_intervals).
[[nodiscard]] OracleResult run_oracle_on_mix(const workload::Mix& mix,
                                             std::size_t threads,
                                             const ExperimentScale& scale,
                                             const OracleConfig& ocfg);

/// Names of the mixes to sweep at this scale (all 13 at default/full, a
/// representative 5 at quick).
[[nodiscard]] std::vector<std::string> mixes_for_scale(
    const ExperimentScale& scale);

// ---------------------------------------------------------------------------
// The Figure 7 / Figure 8 sweep: heuristic type × IPC threshold, averaged
// over the mixes. Both figures plot views of the same grid, so the sweep
// is shared.
// ---------------------------------------------------------------------------

struct SweepCell {
  double ipc = 0.0;           ///< mean aggregate IPC over mixes
  double switches = 0.0;      ///< mean switch count per run (Fig. 7a/b)
  double benign_prob = 0.0;   ///< pooled P(benign switch) (Fig. 7c/d)
  double low_quanta_frac = 0.0;
};

struct SweepGrid {
  std::vector<double> thresholds;            ///< m = 1..5
  std::vector<core::HeuristicType> types;    ///< Type 1, 2, 3, 3', 4
  std::vector<std::string> mixes;
  /// cell(type_index, threshold_index)
  std::vector<SweepCell> cells;
  double icount_baseline_ipc = 0.0;  ///< fixed-ICOUNT mean over same mixes

  [[nodiscard]] const SweepCell& cell(std::size_t type_idx,
                                      std::size_t thr_idx) const {
    return cells[type_idx * thresholds.size() + thr_idx];
  }
};

/// Run the full (type × threshold × mix) grid at `threads` contexts.
/// Individual runs fan out over scale.jobs workers; the grid is
/// bit-identical for any jobs value.
[[nodiscard]] SweepGrid run_fig78_sweep(const ExperimentScale& scale,
                                        std::size_t threads = 8);

}  // namespace smt::sim
