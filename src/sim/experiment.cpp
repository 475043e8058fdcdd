#include "sim/experiment.hpp"

#include <cstdlib>
#include <string_view>

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
  s.jobs = par::default_jobs();
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

SampleResult run_fixed(const workload::Mix& mix, policy::FetchPolicy policy,
                       std::size_t threads, const ExperimentScale& scale) {
  SimConfig cfg = make_config(mix, threads, scale.base_seed);
  cfg.fixed_policy = policy;
  cfg.use_adts = false;
  return run_sampled(cfg, scale.plan);
}

SampleResult run_adts(const workload::Mix& mix, core::HeuristicType heuristic,
                      double ipc_threshold, std::size_t threads,
                      const ExperimentScale& scale,
                      const core::AdtsConfig* overrides) {
  SimConfig cfg = make_config(mix, threads, scale.base_seed);
  cfg.use_adts = true;
  if (overrides != nullptr) cfg.adts = *overrides;
  cfg.adts.heuristic = heuristic;
  cfg.adts.ipc_threshold = ipc_threshold;
  return run_sampled(cfg, scale.plan);
}

OracleResult run_oracle_on_mix(const workload::Mix& mix, std::size_t threads,
                               const ExperimentScale& scale,
                               const OracleConfig& ocfg) {
  OracleResult agg;
  for (std::uint32_t i = 0; i < scale.oracle_intervals; ++i) {
    SimConfig cfg = make_config(mix, threads, scale.base_seed);
    cfg.workload_seed =
        mix64(scale.base_seed ^ (0x1417ull + i * 0x9e37ull));
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

SweepGrid run_fig78_sweep(const ExperimentScale& scale, std::size_t threads) {
  SweepGrid grid;
  grid.thresholds = threshold_sweep();
  grid.types = core::all_heuristics();
  grid.mixes = scale.mixes;
  grid.cells.resize(grid.types.size() * grid.thresholds.size());

  // Every run in the grid is independent, so the whole
  // (baseline ∪ type × threshold) × mix task set fans out across one
  // pool; the per-cell reductions below consume results in the same
  // order the serial loops did, so the grid is bit-identical for any
  // scale.jobs.
  par::ThreadPool pool(scale.jobs);
  const std::size_t n_thr = grid.thresholds.size();
  const std::size_t n_mix = grid.mixes.size();

  // Fixed-ICOUNT baseline over the same mixes.
  {
    const std::vector<double> ipcs =
        par::parallel_map(pool, n_mix, [&](std::size_t k) {
          return run_fixed(workload::mix(grid.mixes[k]),
                           policy::FetchPolicy::kIcount, threads, scale)
              .ipc();
        });
    grid.icount_baseline_ipc = mean(ipcs);
  }

  // One task per (type, threshold, mix) run, flattened mix-fastest so a
  // cell's results sit contiguously in submission order.
  const std::vector<SampleResult> runs =
      par::parallel_map(pool, grid.types.size() * n_thr * n_mix,
                        [&](std::size_t idx) {
                          const std::size_t ti = idx / (n_thr * n_mix);
                          const std::size_t mi = (idx / n_mix) % n_thr;
                          const std::size_t k = idx % n_mix;
                          return run_adts(workload::mix(grid.mixes[k]),
                                          grid.types[ti], grid.thresholds[mi],
                                          threads, scale);
                        });

  for (std::size_t ti = 0; ti < grid.types.size(); ++ti) {
    for (std::size_t mi = 0; mi < n_thr; ++mi) {
      std::vector<double> ipcs;
      double switches = 0.0;
      std::uint64_t benign = 0;
      std::uint64_t malignant = 0;
      std::uint64_t low = 0;
      std::uint64_t quanta = 0;
      for (std::size_t k = 0; k < n_mix; ++k) {
        const SampleResult& r = runs[(ti * n_thr + mi) * n_mix + k];
        ipcs.push_back(r.ipc());
        switches += static_cast<double>(r.switches);
        benign += r.benign_switches;
        malignant += r.malignant_switches;
        low += r.low_throughput_quanta;
        quanta += r.quanta;
      }
      SweepCell& c = grid.cells[ti * n_thr + mi];
      c.ipc = mean(ipcs);
      c.switches = switches / static_cast<double>(n_mix);
      c.benign_prob = obs::benign_probability(benign, malignant);
      c.low_quanta_frac =
          quanta ? static_cast<double>(low) / static_cast<double>(quanta)
                 : 0.0;
    }
  }
  return grid;
}

}  // namespace smt::sim
