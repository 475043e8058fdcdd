// Unit tests: the detector thread (core/detector.hpp).
#include <gtest/gtest.h>

#include "core/detector.hpp"
#include "workload/app_profile.hpp"

namespace smt::core {
namespace {

pipeline::Pipeline make_pipe(std::initializer_list<const char*> apps,
                             std::uint64_t seed = 1) {
  std::vector<workload::ThreadProgram> ps;
  std::uint32_t tid = 0;
  for (const char* a : apps) {
    ps.emplace_back(workload::profile(a), tid++, seed);
  }
  return pipeline::Pipeline(pipeline::PipelineConfig{}, std::move(ps));
}

AdtsConfig quick_cfg() {
  AdtsConfig cfg;
  cfg.quantum_cycles = 1024;  // short quanta for fast tests
  return cfg;
}

void run_with_detector(pipeline::Pipeline& pipe, DetectorThread& dt,
                       std::uint64_t cycles) {
  for (std::uint64_t i = 0; i < cycles; ++i) {
    pipe.step();
    dt.tick(pipe);
  }
}

TEST(Detector, CountsQuanta) {
  pipeline::Pipeline pipe = make_pipe({"gzip", "mcf"});
  AdtsConfig cfg = quick_cfg();
  DetectorThread dt(cfg);
  run_with_detector(pipe, dt, 10 * 1024);
  EXPECT_EQ(dt.stats().quanta, 10u);
}

TEST(Detector, RejectsZeroQuantum) {
  AdtsConfig cfg;
  cfg.quantum_cycles = 0;
  EXPECT_THROW(DetectorThread{cfg}, std::invalid_argument);
}

TEST(Detector, HighThresholdTriggersLowThroughputEveryQuantum) {
  pipeline::Pipeline pipe = make_pipe({"mcf", "art"});
  AdtsConfig cfg = quick_cfg();
  cfg.ipc_threshold = 100.0;  // unreachable
  DetectorThread dt(cfg);
  run_with_detector(pipe, dt, 8 * 1024);
  EXPECT_EQ(dt.stats().low_throughput_quanta, dt.stats().quanta);
}

TEST(Detector, ZeroThresholdNeverTriggers) {
  pipeline::Pipeline pipe = make_pipe({"gzip", "crafty"});
  AdtsConfig cfg = quick_cfg();
  cfg.ipc_threshold = 0.0;
  DetectorThread dt(cfg);
  run_with_detector(pipe, dt, 8 * 1024);
  EXPECT_EQ(dt.stats().low_throughput_quanta, 0u);
  EXPECT_EQ(dt.stats().switches, 0u);
}

TEST(Detector, Type1SwitchesOnLowThroughput) {
  pipeline::Pipeline pipe = make_pipe({"mcf", "art"});
  AdtsConfig cfg = quick_cfg();
  cfg.ipc_threshold = 100.0;
  cfg.heuristic = HeuristicType::kType1;
  cfg.instant_switch = true;
  DetectorThread dt(cfg);
  run_with_detector(pipe, dt, 4 * 1024);
  EXPECT_GT(dt.stats().switches, 0u);
  // Type 1 toggles ICOUNT ⇄ BRCOUNT; after an odd number of boundary
  // switches the policy is one of the two.
  const auto pol = pipe.policy();
  EXPECT_TRUE(pol == policy::FetchPolicy::kIcount ||
              pol == policy::FetchPolicy::kBrcount);
}

TEST(Detector, InstantSwitchAppliesAtBoundary) {
  pipeline::Pipeline pipe = make_pipe({"mcf", "art"});
  AdtsConfig cfg = quick_cfg();
  cfg.ipc_threshold = 100.0;
  cfg.heuristic = HeuristicType::kType2;
  cfg.instant_switch = true;
  DetectorThread dt(cfg);
  run_with_detector(pipe, dt, 1024);
  EXPECT_EQ(pipe.policy(), policy::FetchPolicy::kL1MissCount)
      << "Type 2 from ICOUNT goes to L1MISSCOUNT at the first boundary";
}

TEST(Detector, DtCostDelaysSwitchUntilWorkDrains) {
  pipeline::Pipeline pipe = make_pipe({"mcf", "art"});
  AdtsConfig cfg = quick_cfg();
  cfg.ipc_threshold = 100.0;
  cfg.heuristic = HeuristicType::kType2;
  cfg.instant_switch = false;
  cfg.dt_check_instrs = 4;
  cfg.dt_decide_instrs = 64;
  DetectorThread dt(cfg);
  run_with_detector(pipe, dt, 1024);  // boundary reached, work queued
  EXPECT_EQ(pipe.policy(), policy::FetchPolicy::kIcount)
      << "switch must not be visible at the boundary itself";
  run_with_detector(pipe, dt, 512);  // idle slots drain the DT work
  EXPECT_EQ(pipe.policy(), policy::FetchPolicy::kL1MissCount);
  EXPECT_EQ(dt.stats().switches, 1u);
}

TEST(Detector, SaturatedPipelineSkipsSwitches) {
  pipeline::Pipeline pipe = make_pipe(
      {"gzip", "crafty", "eon", "bzip2", "sixtrack", "mesa", "wupwise",
       "gap"});
  AdtsConfig cfg = quick_cfg();
  cfg.ipc_threshold = 100.0;       // always low per the detector
  cfg.dt_check_instrs = 1u << 20;  // absurd cost: DT can never finish
  cfg.dt_decide_instrs = 1u << 20;
  DetectorThread dt(cfg);
  run_with_detector(pipe, dt, 8 * 1024);
  EXPECT_EQ(dt.stats().switches, 0u);
  EXPECT_GT(dt.stats().switches_skipped_dt_busy, 0u);
}

TEST(Detector, ScoresSwitchOutcomes) {
  pipeline::Pipeline pipe = make_pipe({"gcc", "mcf", "parser", "art"});
  AdtsConfig cfg = quick_cfg();
  cfg.ipc_threshold = 100.0;
  cfg.heuristic = HeuristicType::kType2;
  cfg.instant_switch = true;
  DetectorThread dt(cfg);
  run_with_detector(pipe, dt, 20 * 1024);
  // Every applied switch is scored one quantum later; only the most
  // recent one may still be pending at run end.
  const std::uint64_t scored =
      dt.stats().benign_switches + dt.stats().malignant_switches;
  EXPECT_GE(scored + 1, dt.stats().switches);
  EXPECT_LE(scored, dt.stats().switches);
  EXPECT_GE(dt.stats().benign_fraction(), 0.0);
  EXPECT_LE(dt.stats().benign_fraction(), 1.0);
}

TEST(Detector, QuantaPerPolicySumToQuanta) {
  pipeline::Pipeline pipe = make_pipe({"gcc", "mcf"});
  AdtsConfig cfg = quick_cfg();
  cfg.ipc_threshold = 2.0;
  cfg.instant_switch = true;
  DetectorThread dt(cfg);
  run_with_detector(pipe, dt, 12 * 1024);
  std::uint64_t sum = 0;
  for (const auto q : dt.stats().quanta_per_policy) sum += q;
  EXPECT_EQ(sum, dt.stats().quanta);
}

TEST(Detector, IdentifiesCloggingThread) {
  // One pathological thread (unpredictable, memory-hungry) next to a tame
  // one: when the machine reports low throughput, the detector should
  // eventually flag a clogger at a modest share threshold.
  workload::AppProfile bad = workload::profile("art");
  bad.mix.load = 0.5;
  std::vector<workload::ThreadProgram> ps;
  ps.emplace_back(bad, 0, 1);
  ps.emplace_back(workload::profile("gzip"), 1, 1);
  pipeline::Pipeline pipe(pipeline::PipelineConfig{}, std::move(ps));

  AdtsConfig cfg = quick_cfg();
  cfg.ipc_threshold = 100.0;
  cfg.clog_icount_share = 0.65;
  DetectorThread dt(cfg);
  run_with_detector(pipe, dt, 30 * 1024);
  EXPECT_GT(dt.stats().clog_flags, 0u);
}

TEST(Detector, ClogControlBlocksFetch) {
  workload::AppProfile bad = workload::profile("art");
  bad.mix.load = 0.5;
  std::vector<workload::ThreadProgram> ps;
  ps.emplace_back(bad, 0, 1);
  ps.emplace_back(workload::profile("gzip"), 1, 1);
  pipeline::Pipeline pipe(pipeline::PipelineConfig{}, std::move(ps));

  AdtsConfig cfg = quick_cfg();
  cfg.ipc_threshold = 100.0;
  cfg.clog_icount_share = 0.65;
  cfg.enable_clog_control = true;
  cfg.clog_block_cycles = 256;
  DetectorThread dt(cfg);
  run_with_detector(pipe, dt, 30 * 1024);
  EXPECT_GT(dt.stats().clog_flags, 0u);
  EXPECT_GT(pipe.committed_total(), 0u);
}

TEST(Detector, ResetsQuantumCountersEachBoundary) {
  pipeline::Pipeline pipe = make_pipe({"gzip", "gcc"});
  AdtsConfig cfg = quick_cfg();
  DetectorThread dt(cfg);
  run_with_detector(pipe, dt, 1024);  // exactly one boundary
  // The boundary set the quantum mark, so the quantum window restarts
  // from zero while the totals run on.
  const pipeline::ThreadCounters& c = pipe.counters(0);
  EXPECT_EQ(c.quantum_mark.cycle, 1024u);
  EXPECT_EQ(c.since_quantum().committed, 0u);
  EXPECT_GT(c.total.committed, 0u);
}

TEST(Detector, Type4RecordsHistory) {
  pipeline::Pipeline pipe = make_pipe({"gcc", "parser", "mcf", "art"});
  AdtsConfig cfg = quick_cfg();
  cfg.ipc_threshold = 100.0;
  cfg.heuristic = HeuristicType::kType4;
  cfg.instant_switch = true;
  DetectorThread dt(cfg);
  run_with_detector(pipe, dt, 40 * 1024);
  // After many scored switches, at least one history cell is populated.
  std::uint32_t total = 0;
  for (policy::FetchPolicy p : policy::all_policies()) {
    for (bool c : {false, true}) {
      total += dt.history().counts(p, c).poscnt +
               dt.history().counts(p, c).negcnt;
    }
  }
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace smt::core
