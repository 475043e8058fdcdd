// Unit tests: experiment plumbing (sim/experiment.hpp).
#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/experiment.hpp"

namespace smt::sim {
namespace {

/// RAII environment-variable override.
class ScopedEnv {
 public:
  ScopedEnv(const char* key, const char* value) : key_(key) {
    const char* old = std::getenv(key);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      ::setenv(key, value, 1);
    } else {
      ::unsetenv(key);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(key_, saved_.c_str(), 1);
    } else {
      ::unsetenv(key_);
    }
  }

 private:
  const char* key_;
  std::string saved_;
  bool had_ = false;
};

TEST(Experiment, DefaultScale) {
  ScopedEnv env("SMT_BENCH_SCALE", nullptr);
  const ExperimentScale s = ExperimentScale::from_env();
  EXPECT_EQ(s.plan.intervals, 2u);
  EXPECT_GT(s.oracle_quanta, 0u);
}

TEST(Experiment, QuickScaleShrinksPlan) {
  ScopedEnv env("SMT_BENCH_SCALE", "quick");
  const ExperimentScale s = ExperimentScale::from_env();
  EXPECT_EQ(s.plan.intervals, 1u);
  EXPECT_LT(s.plan.measure_cycles, 100u * 1024u);
}

TEST(Experiment, FullScaleGrowsPlan) {
  ScopedEnv env("SMT_BENCH_SCALE", "full");
  const ExperimentScale s = ExperimentScale::from_env();
  EXPECT_GE(s.plan.intervals, 4u);
}

TEST(Experiment, ThresholdSweepMatchesPaper) {
  const auto ts = threshold_sweep();
  ASSERT_EQ(ts.size(), 5u) << "the paper sweeps m = 1..5";
  EXPECT_DOUBLE_EQ(ts.front(), 1.0);
  EXPECT_DOUBLE_EQ(ts.back(), 5.0);
}

TEST(Experiment, MixesForScaleQuickIsSubset) {
  ScopedEnv env("SMT_BENCH_SCALE", "quick");
  const ExperimentScale s = ExperimentScale::from_env();
  EXPECT_LT(s.mixes.size(), 13u);
  EXPECT_FALSE(s.mixes.empty());
}

TEST(Experiment, MixesForScaleDefaultIsAllThirteen) {
  ScopedEnv env("SMT_BENCH_SCALE", nullptr);
  const ExperimentScale s = ExperimentScale::from_env();
  EXPECT_EQ(s.mixes.size(), 13u);
  // A default-constructed scale sweeps the same 13 mixes.
  EXPECT_EQ(ExperimentScale{}.mixes, s.mixes);
}

TEST(Experiment, RunFixedProducesThroughput) {
  ScopedEnv env("SMT_BENCH_SCALE", "quick");
  ExperimentScale s = ExperimentScale::from_env();
  s.plan.warmup_cycles = 2048;
  s.plan.measure_cycles = 8192;
  const SampleResult r = run_fixed(workload::mix("ilp8"),
                                   policy::FetchPolicy::kIcount, 8, s);
  EXPECT_GT(r.ipc(), 0.5);
  EXPECT_EQ(r.switches, 0u) << "fixed runs never switch";
}

TEST(Experiment, RunAdtsRespectsOverrides) {
  ScopedEnv env("SMT_BENCH_SCALE", "quick");
  ExperimentScale s = ExperimentScale::from_env();
  s.plan.warmup_cycles = 2048;
  s.plan.measure_cycles = 4 * 8192;
  core::AdtsConfig overrides;
  overrides.quantum_cycles = 2048;
  overrides.instant_switch = true;
  const SampleResult r =
      run_adts(workload::mix("mem8"), core::HeuristicType::kType2,
               /*ipc_threshold=*/100.0, 8, s, &overrides);
  EXPECT_GT(r.quanta, 0u);
  EXPECT_GT(r.switches, 0u);
}

TEST(Experiment, RunOracleOnMixAggregates) {
  ScopedEnv env("SMT_BENCH_SCALE", "quick");
  ExperimentScale s = ExperimentScale::from_env();
  s.plan.warmup_cycles = 2048;
  s.oracle_quanta = 2;
  s.oracle_intervals = 2;
  OracleConfig ocfg;
  ocfg.quantum_cycles = 2048;
  const OracleResult r = run_oracle_on_mix(workload::mix("bal3"), 8, s, ocfg);
  EXPECT_EQ(r.cycles, 2u * 2u * 2048u);
  EXPECT_GT(r.committed, 0u);
}

}  // namespace
}  // namespace smt::sim
