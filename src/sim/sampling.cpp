#include "sim/sampling.hpp"

#include "common/rng.hpp"
#include "core/detector.hpp"

namespace smt::sim {

std::uint64_t interval_seed(std::uint64_t base, std::uint32_t i) noexcept {
  return mix64(base ^ (0x1417ull + i * 0x9e37ull));
}

SampleResult run_sampled(const SimConfig& cfg, const SamplingPlan& plan) {
  SampleResult agg;
  for (std::uint32_t i = 0; i < plan.intervals; ++i) {
    SimConfig icfg = cfg;
    icfg.workload_seed = interval_seed(cfg.workload_seed, i);
    Simulator sim(icfg);

    // Warm caches/predictor under the fixed policy; the detector thread
    // (when enabled) starts observing only from the measurement window,
    // so cold-start transients cannot trigger spurious policy switches.
    sim.set_adts_active(false);
    sim.run(plan.warmup_cycles);
    sim.set_adts_active(icfg.use_adts);

    const std::uint64_t committed0 = sim.committed();
    const core::AdtsStats adts0 = sim.detector().stats();

    sim.run(plan.measure_cycles);

    const std::uint64_t committed = sim.committed() - committed0;
    const core::AdtsStats& adts1 = sim.detector().stats();

    agg.cycles += plan.measure_cycles;
    agg.committed += committed;
    agg.interval_ipc.add(static_cast<double>(committed) /
                         static_cast<double>(plan.measure_cycles));

    agg.quanta += adts1.quanta() - adts0.quanta();
    agg.low_throughput_quanta +=
        adts1.low_throughput_quanta - adts0.low_throughput_quanta;
    agg.switches += adts1.switches - adts0.switches;
    agg.benign_switches += adts1.benign_switches - adts0.benign_switches;
    agg.malignant_switches +=
        adts1.malignant_switches - adts0.malignant_switches;
    agg.switches_skipped_dt_busy +=
        adts1.switches_skipped_dt_busy - adts0.switches_skipped_dt_busy;
  }
  return agg;
}

}  // namespace smt::sim
