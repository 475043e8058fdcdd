// Unit tests: simulator facade (sim/simulator.hpp).
#include <gtest/gtest.h>

#include "core/heuristics.hpp"
#include "obs/switch_audit.hpp"
#include "sim/simulator.hpp"
#include "workload/mix.hpp"

namespace smt::sim {
namespace {

TEST(Simulator, MakeConfigPullsMixApps) {
  const SimConfig cfg = make_config(workload::mix("int8"), 8, 7);
  EXPECT_EQ(cfg.apps.size(), 8u);
  EXPECT_EQ(cfg.workload_seed, 7u);
}

TEST(Simulator, MakeConfigSubset) {
  const SimConfig cfg = make_config(workload::mix("int8"), 4, 7);
  EXPECT_EQ(cfg.apps.size(), 4u);
}

TEST(Simulator, RunAdvancesClock) {
  Simulator s(make_config(workload::mix("bal1"), 4, 1));
  EXPECT_EQ(s.now(), 0u);
  s.run(1234);
  EXPECT_EQ(s.now(), 1234u);
}

TEST(Simulator, FixedPolicyIsApplied) {
  SimConfig cfg = make_config(workload::mix("bal1"), 4, 1);
  cfg.fixed_policy = policy::FetchPolicy::kMemcount;
  Simulator s(cfg);
  EXPECT_EQ(s.pipeline().policy(), policy::FetchPolicy::kMemcount);
}

TEST(Simulator, AdtsDisabledMeansNoQuantumProcessing) {
  SimConfig cfg = make_config(workload::mix("bal1"), 4, 1);
  cfg.use_adts = false;
  Simulator s(cfg);
  s.run(3 * 8192);
  EXPECT_EQ(s.detector().stats().quanta(), 0u);
}

TEST(Simulator, AdtsEnabledProcessesQuanta) {
  SimConfig cfg = make_config(workload::mix("bal1"), 4, 1);
  cfg.use_adts = true;
  cfg.adts.quantum_cycles = 2048;
  Simulator s(cfg);
  s.run(5 * 2048);
  EXPECT_EQ(s.detector().stats().quanta(), 5u);
}

TEST(Simulator, AdtsArmedMidQuantumMeasuresFromTheArmCycle) {
  // Arming sets the quantum marks, so the first boundary's IPC_last
  // covers only [arm, boundary): the committed delta of a copy that runs
  // the same span (the detector does nothing before the boundary).
  constexpr std::uint64_t kQuantum = 2048;
  constexpr std::uint64_t kArm = kQuantum + 700;
  constexpr std::uint64_t kSpan = 2 * kQuantum - kArm;
  SimConfig cfg = make_config(workload::mix("mem8"), 8, 1);
  cfg.use_adts = false;
  cfg.adts.quantum_cycles = kQuantum;
  cfg.adts.heuristic = core::HeuristicType::kType1;  // always toggles
  cfg.adts.ipc_threshold = 100.0;  // every quantum is low-throughput
  cfg.adts.instant_switch = true;
  Simulator s(cfg);
  s.run(kArm);
  Simulator copy = s;
  copy.run(kSpan);
  const std::uint64_t committed = copy.committed() - s.committed();
  ASSERT_GT(committed, 0u);

  s.set_adts_active(true);
  s.run(kSpan);
  ASSERT_EQ(s.detector().audit_log().size(), 1u);
  const obs::SwitchAudit& first = s.detector().audit_log()[0];
  EXPECT_EQ(first.decided_cycle, 2 * kQuantum);
  EXPECT_DOUBLE_EQ(first.ipc_before, static_cast<double>(committed) /
                                         static_cast<double>(kSpan));
}

TEST(Simulator, RejectsEmptyApps) {
  SimConfig cfg;
  EXPECT_THROW(Simulator{cfg}, std::invalid_argument);
}

TEST(Simulator, RejectsNineApps) {
  SimConfig cfg;
  cfg.apps = std::vector<std::string>(9, "gzip");
  EXPECT_THROW(Simulator{cfg}, std::invalid_argument);
}

TEST(Simulator, RepeatedAppsAllowed) {
  SimConfig cfg;
  cfg.apps = {"gzip", "gzip", "gzip", "gzip"};
  Simulator s(cfg);
  s.run(10000);
  EXPECT_GT(s.committed(), 1000u);
}

TEST(Simulator, IpcAccessorMatchesStats) {
  Simulator s(make_config(workload::mix("span8"), 8, 2));
  s.run(20000);
  EXPECT_DOUBLE_EQ(s.ipc(), s.pipeline().stats().ipc());
  EXPECT_EQ(s.committed(), s.pipeline().committed_total());
}

TEST(Simulator, AdtsInitialPolicyFollowsFixedPolicy) {
  SimConfig cfg = make_config(workload::mix("bal1"), 4, 1);
  cfg.use_adts = true;
  cfg.fixed_policy = policy::FetchPolicy::kRoundRobin;
  Simulator s(cfg);
  EXPECT_EQ(s.pipeline().policy(), policy::FetchPolicy::kRoundRobin);
}

}  // namespace
}  // namespace smt::sim
