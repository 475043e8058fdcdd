// Shared experiment plumbing for the paper tables (bench/paper.cpp): a
// table names its variants, runs each on every mix as one pooled
// (variant x mix) sweep, and prints each variant's one reduction.
// The SMT_BENCH_SCALE environment variable ("quick" | "default" | "full")
// trades runtime for statistical quality without touching table code.
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

/// Names of all 13 evaluation mixes, in their stable order.
[[nodiscard]] std::vector<std::string> all_mix_names();

struct ExperimentScale {
  SamplingPlan plan{};
  /// Quanta per oracle run (oracle is ~|candidates|× the cost per quantum).
  std::uint64_t oracle_quanta = 12;
  std::uint32_t oracle_intervals = 1;
  std::uint64_t base_seed = 2003;  ///< IPPS 2003
  /// Worker threads for the embarrassingly parallel sweeps (src/par/).
  /// Results are bit-identical for any value; 1 = serial.
  std::size_t jobs = 1;
  /// Names of the mixes to sweep: all 13 unless the scale narrows them.
  std::vector<std::string> mixes = all_mix_names();

  /// Read SMT_BENCH_SCALE and SMT_JOBS from the environment. The quick
  /// scale sweeps a representative 5 mixes.
  [[nodiscard]] static ExperimentScale from_env();
};

/// The paper's threshold sweep: m = 1..5 (IPC units).
[[nodiscard]] std::vector<double> threshold_sweep();

/// The configuration run_fixed samples.
[[nodiscard]] SimConfig fixed_config(const workload::Mix& mix,
                                     policy::FetchPolicy policy,
                                     std::size_t threads,
                                     const ExperimentScale& scale);

/// The configuration run_adts samples; `overrides` replaces the default
/// AdtsConfig before the heuristic and threshold are set.
[[nodiscard]] SimConfig adts_config(const workload::Mix& mix,
                                    core::HeuristicType heuristic,
                                    double ipc_threshold, std::size_t threads,
                                    const ExperimentScale& scale,
                                    const core::AdtsConfig* overrides = nullptr);

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

/// The greedy per-quantum oracle on a mix (averaged over
/// scale.oracle_intervals); a reference, not an upper bound.
[[nodiscard]] OracleResult run_oracle_on_mix(const workload::Mix& mix,
                                             std::size_t threads,
                                             const ExperimentScale& scale,
                                             const OracleConfig& ocfg);

/// One variant reduced over a sweep's mixes, in mix order.
struct SweepCell {
  double ipc = 0.0;           ///< mean aggregate IPC over mixes
  double switches = 0.0;      ///< mean switch count per run (Fig. 7a/b)
  double benign_prob = 0.0;   ///< pooled P(benign switch) (Fig. 7c/d)
  double low_quanta_frac = 0.0;
  double dt_skipped = 0.0;    ///< mean switches skipped per run (DT starved)
};

struct MixSweep {
  std::vector<std::string> mixes;
  /// Variant-major, mix-fastest: run(v, k) is runs[v * mixes.size() + k].
  std::vector<SampleResult> runs;

  [[nodiscard]] const SampleResult& run(std::size_t variant,
                                        std::size_t mix) const {
    return runs[variant * mixes.size() + mix];
  }
  [[nodiscard]] SweepCell summary(std::size_t variant) const;
};

/// Sample every config under scale.plan over one pool of scale.jobs
/// workers. result[i] belongs to configs[i], so the results are
/// bit-identical for any jobs value.
[[nodiscard]] std::vector<SampleResult> run_configs(
    const std::vector<SimConfig>& configs, const ExperimentScale& scale);

/// Sample config(v, mix) for every variant v < variants and every mix of
/// scale.mixes, as one run_configs fan-out.
template <typename ConfigFn>
[[nodiscard]] MixSweep run_mix_sweep(std::size_t variants,
                                     const ConfigFn& config,
                                     const ExperimentScale& scale) {
  std::vector<SimConfig> configs;
  for (std::size_t v = 0; v < variants; ++v) {
    for (const std::string& m : scale.mixes) {
      configs.push_back(config(v, workload::mix(m)));
    }
  }
  return {scale.mixes, run_configs(configs, scale)};
}

// ---------------------------------------------------------------------------
// The Figure 7 / Figure 8 sweep: heuristic type x IPC threshold, averaged
// over the mixes. Both figures plot views of the same grid, so the sweep
// is shared.
// ---------------------------------------------------------------------------

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

/// Run the fixed-ICOUNT baseline and the full (type x threshold) grid
/// over scale.mixes at `threads` contexts, as one run_mix_sweep.
[[nodiscard]] SweepGrid run_fig78_sweep(const ExperimentScale& scale,
                                        std::size_t threads = 8);

}  // namespace smt::sim
