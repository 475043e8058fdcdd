// Multi-interval sampling driver.
//
// The paper cannot run SPEC to completion, so it simulates "a million
// cycles in ten randomly chosen different intervals" via fast-forward.
// The synthetic workloads have no fixed length, so the equivalent here is
// N intervals, each a fresh simulator at a decorrelated workload seed
// (a different random point of the programs' phase space), with a cache/
// predictor warm-up period excluded from measurement.
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "core/detector.hpp"
#include "sim/simulator.hpp"

namespace smt::sim {

struct SamplingPlan {
  std::uint32_t intervals = 2;
  std::uint64_t warmup_cycles = 32 * 1024;    ///< 4 quanta of warm-up
  std::uint64_t measure_cycles = 192 * 1024;  ///< 24 quanta measured
};

/// Aggregated measurements over all intervals.
struct SampleResult {
  std::uint64_t cycles = 0;
  std::uint64_t committed = 0;
  RunningStat interval_ipc;  ///< distribution across intervals

  // ADTS accumulators (zero when ADTS was disabled).
  std::uint64_t quanta = 0;
  std::uint64_t low_throughput_quanta = 0;
  std::uint64_t switches = 0;
  std::uint64_t benign_switches = 0;
  std::uint64_t malignant_switches = 0;
  std::uint64_t switches_skipped_dt_busy = 0;

  // Always 0; kept only because perfbench/driver.cpp hashes them.
  std::uint64_t switches_dropped_fault = 0;
  std::uint64_t switches_stale = 0;
  std::uint64_t guard_anomalies = 0;
  std::uint64_t guard_reverts = 0;
  std::uint64_t guard_vetoes = 0;

  [[nodiscard]] double ipc() const noexcept {
    return cycles ? static_cast<double>(committed) / static_cast<double>(cycles)
                  : 0.0;
  }
  [[nodiscard]] double benign_fraction() const noexcept {
    return obs::benign_probability(benign_switches, malignant_switches);
  }
  /// Switches per million measured cycles (scale-independent frequency).
  [[nodiscard]] double switches_per_mcycle() const noexcept {
    return cycles ? 1e6 * static_cast<double>(switches) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
};

/// Workload seed of sampling interval `i` under base seed `base`, so the
/// intervals sample decorrelated stretches of the workloads. Every driver
/// that samples intervals uses it; the oracle and its fixed baseline
/// depend on measuring the same intervals.
[[nodiscard]] std::uint64_t interval_seed(std::uint64_t base,
                                          std::uint32_t i) noexcept;

/// Run the plan for a configuration. Interval i uses workload seed
/// interval_seed(cfg.workload_seed, i).
[[nodiscard]] SampleResult run_sampled(const SimConfig& cfg,
                                       const SamplingPlan& plan);

}  // namespace smt::sim
