#include "sim/experiment.hpp"

#include <cstdlib>
#include <string_view>

#include "common/host_info.hpp"
#include "core/detector.hpp"
#include "core/heuristics.hpp"
#include "obs/switch_audit.hpp"
#include "par/thread_pool.hpp"
#include "policy/fetch_policy.hpp"
#include "workload/mix.hpp"

namespace smt::sim {

std::vector<std::string> all_mix_names() {
  std::vector<std::string> names;
  for (const auto& m : workload::all_mixes()) names.push_back(m.name);
  return names;
}

ExperimentScale ExperimentScale::from_env() {
  ExperimentScale s;
  s.jobs = smt_jobs_from_env();
  const char* env = std::getenv("SMT_BENCH_SCALE");
  const std::string_view mode = env ? env : "default";
  if (mode == "quick") {
    s.plan.intervals = 1;
    s.plan.warmup_cycles = 8 * 1024;
    s.plan.measure_cycles = 64 * 1024;  // 8 quanta
    s.oracle_quanta = 6;
    s.oracle_intervals = 1;
    s.mixes = {"ctrl8", "mem8", "ilp8", "bal1", "var1"};
  } else if (mode == "full") {
    s.plan.intervals = 4;
    s.plan.warmup_cycles = 32 * 1024;
    s.plan.measure_cycles = 384 * 1024;  // 48 quanta
    s.oracle_quanta = 24;
    s.oracle_intervals = 2;
  }
  return s;
}

std::vector<double> threshold_sweep() { return {1.0, 2.0, 3.0, 4.0, 5.0}; }

SimConfig fixed_config(const workload::Mix& mix, policy::FetchPolicy policy,
                       std::size_t threads, const ExperimentScale& scale) {
  SimConfig cfg = make_config(mix, threads, scale.base_seed);
  cfg.fixed_policy = policy;
  cfg.use_adts = false;
  return cfg;
}

SimConfig adts_config(const workload::Mix& mix, core::HeuristicType heuristic,
                      double ipc_threshold, std::size_t threads,
                      const ExperimentScale& scale,
                      const core::AdtsConfig* overrides) {
  SimConfig cfg = make_config(mix, threads, scale.base_seed);
  cfg.use_adts = true;
  if (overrides != nullptr) cfg.adts = *overrides;
  cfg.adts.heuristic = heuristic;
  cfg.adts.ipc_threshold = ipc_threshold;
  return cfg;
}

SampleResult run_fixed(const workload::Mix& mix, policy::FetchPolicy policy,
                       std::size_t threads, const ExperimentScale& scale) {
  return run_sampled(fixed_config(mix, policy, threads, scale), scale.plan);
}

SampleResult run_adts(const workload::Mix& mix, core::HeuristicType heuristic,
                      double ipc_threshold, std::size_t threads,
                      const ExperimentScale& scale,
                      const core::AdtsConfig* overrides) {
  return run_sampled(
      adts_config(mix, heuristic, ipc_threshold, threads, scale, overrides),
      scale.plan);
}

OracleResult run_oracle_on_mix(const workload::Mix& mix, std::size_t threads,
                               const ExperimentScale& scale,
                               const OracleConfig& ocfg) {
  OracleResult agg;
  for (std::uint32_t i = 0; i < scale.oracle_intervals; ++i) {
    SimConfig cfg = make_config(mix, threads, scale.base_seed);
    cfg.workload_seed = interval_seed(scale.base_seed, i);
    Simulator sim(cfg);
    sim.run(scale.plan.warmup_cycles);
    const OracleResult r =
        run_oracle(sim, scale.oracle_quanta, ocfg, scale.jobs);
    agg.cycles += r.cycles;
    agg.committed += r.committed;
    agg.switches += r.switches;
    for (std::size_t p = 0; p < agg.quanta_per_policy.size(); ++p) {
      agg.quanta_per_policy[p] += r.quanta_per_policy[p];
    }
  }
  return agg;
}

SweepCell MixSweep::summary(std::size_t variant) const {
  std::vector<double> ipcs;
  double switches = 0.0;
  double skipped = 0.0;
  std::uint64_t benign = 0;
  std::uint64_t malignant = 0;
  std::uint64_t low = 0;
  std::uint64_t quanta = 0;
  for (std::size_t k = 0; k < mixes.size(); ++k) {
    const SampleResult& r = run(variant, k);
    ipcs.push_back(r.ipc());
    switches += static_cast<double>(r.switches);
    skipped += static_cast<double>(r.switches_skipped_dt_busy);
    benign += r.benign_switches;
    malignant += r.malignant_switches;
    low += r.low_throughput_quanta;
    quanta += r.quanta;
  }
  const double n = static_cast<double>(mixes.size());
  SweepCell c;
  c.ipc = mean(ipcs);
  c.switches = switches / n;
  c.dt_skipped = skipped / n;
  c.benign_prob = obs::benign_probability(benign, malignant);
  c.low_quanta_frac =
      quanta ? static_cast<double>(low) / static_cast<double>(quanta) : 0.0;
  return c;
}

std::vector<SampleResult> run_configs(const std::vector<SimConfig>& configs,
                                      const ExperimentScale& scale) {
  // Every run is independent; parallel_map returns them in submission
  // order, and all reduction happens afterwards on the caller's thread.
  par::ThreadPool pool(scale.jobs);
  return par::parallel_map(pool, configs.size(), [&](std::size_t i) {
    return run_sampled(configs[i], scale.plan);
  });
}

SweepGrid run_fig78_sweep(const ExperimentScale& scale, std::size_t threads) {
  SweepGrid grid;
  grid.thresholds = threshold_sweep();
  grid.types = core::all_heuristics();
  grid.mixes = scale.mixes;
  const std::size_t n_thr = grid.thresholds.size();

  // Variant 0 is the fixed-ICOUNT baseline; variant 1 + ti * n_thr + mi
  // is heuristic type ti at threshold mi, so the cells come out in
  // cell() order.
  const std::size_t n_cells = grid.types.size() * n_thr;
  const MixSweep sweep = run_mix_sweep(
      1 + n_cells,
      [&](std::size_t v, const workload::Mix& mix) {
        if (v == 0) {
          return fixed_config(mix, policy::FetchPolicy::kIcount, threads,
                              scale);
        }
        return adts_config(mix, grid.types[(v - 1) / n_thr],
                           grid.thresholds[(v - 1) % n_thr], threads, scale);
      },
      scale);
  grid.icount_baseline_ipc = sweep.summary(0).ipc;
  for (std::size_t v = 1; v <= n_cells; ++v) {
    grid.cells.push_back(sweep.summary(v));
  }
  return grid;
}

}  // namespace smt::sim
