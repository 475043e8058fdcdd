// End-to-end integration tests: whole-simulator behaviour that crosses
// every module boundary — throughput sanity, determinism, snapshot
// fidelity, ADTS end-to-end, oracle dominance.
#include <gtest/gtest.h>

#include "sim/oracle.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"
#include "workload/mix.hpp"

namespace smt {
namespace {

sim::SimConfig config_for(const char* mix_name, std::size_t threads,
                          std::uint64_t seed = 42) {
  return sim::make_config(workload::mix(mix_name), threads, seed);
}

TEST(Integration, EightThreadMixReachesPlausibleThroughput) {
  sim::Simulator s(config_for("ilp8", 8));
  s.run(60000);
  const double ipc = s.ipc();
  // An 8-wide SMT with 8 well-behaved threads should sustain real
  // throughput: far above single-thread levels, below the fetch width.
  EXPECT_GT(ipc, 2.0);
  EXPECT_LT(ipc, 8.0);
}

TEST(Integration, MemoryBoundMixIsSlowerThanIlpMix) {
  sim::Simulator mem(config_for("cache8", 8));
  sim::Simulator ilp(config_for("ilp8", 8));
  mem.run(60000);
  ilp.run(60000);
  EXPECT_LT(mem.ipc(), ilp.ipc());
}

TEST(Integration, RunsAreDeterministic) {
  sim::Simulator a(config_for("bal1", 8));
  sim::Simulator b(config_for("bal1", 8));
  a.run(30000);
  b.run(30000);
  EXPECT_EQ(a.committed(), b.committed());
  EXPECT_EQ(a.pipeline().stats().fetched, b.pipeline().stats().fetched);
  EXPECT_EQ(a.pipeline().stats().mispredicts, b.pipeline().stats().mispredicts);
}

TEST(Integration, SnapshotResumesIdentically) {
  sim::Simulator a(config_for("var1", 8));
  a.run(20000);
  sim::Simulator b = a;  // snapshot
  a.run(20000);
  b.run(20000);
  EXPECT_EQ(a.committed(), b.committed());
  EXPECT_EQ(a.pipeline().stats().squashed, b.pipeline().stats().squashed);
}

TEST(Integration, DifferentSeedsProduceDifferentRuns) {
  sim::Simulator a(config_for("bal1", 8, 1));
  sim::Simulator b(config_for("bal1", 8, 2));
  a.run(30000);
  b.run(30000);
  EXPECT_NE(a.committed(), b.committed());
}

TEST(Integration, CounterInvariantsHoldDuringLongRun) {
  sim::Simulator s(config_for("ctrl8", 8));
  for (int chunk = 0; chunk < 20; ++chunk) {
    s.run(2500);
    ASSERT_TRUE(s.pipeline().check_counter_invariants())
        << "at cycle " << s.now();
  }
}

TEST(Integration, AdtsRunSwitchesPolicies) {
  sim::SimConfig cfg = config_for("mem8", 8);
  cfg.use_adts = true;
  cfg.adts.ipc_threshold = 5.0;  // aggressive: force low-throughput quanta
  cfg.adts.heuristic = core::HeuristicType::kType2;
  sim::Simulator s(cfg);
  s.run(30 * 8192);
  EXPECT_GT(s.detector().stats().quanta(), 0u);
  EXPECT_GT(s.detector().stats().switches, 0u);
}

TEST(Integration, OracleNeverLosesToFixedIcountOverOneQuantum) {
  sim::SimConfig cfg = config_for("bal4", 8);
  sim::Simulator base(cfg);
  base.run(16384);  // warm up

  // Fixed ICOUNT continuation for exactly one quantum.
  sim::Simulator fixed = base;
  const std::uint64_t before = fixed.committed();
  fixed.run(8192);
  const std::uint64_t fixed_committed = fixed.committed() - before;

  // Single-quantum oracle with ICOUNT among the candidates: max over a
  // set containing the fixed choice cannot lose. (Over multiple quanta
  // the per-quantum greedy oracle is not globally optimal and *can*
  // narrowly lose; see the tolerance test below.)
  const sim::OracleResult oracle =
      sim::run_oracle(base, 1, sim::OracleConfig{});
  EXPECT_GE(oracle.committed, fixed_committed);

  const sim::OracleResult oracle8 =
      sim::run_oracle(base, 8, sim::OracleConfig{});
  sim::Simulator fixed8 = base;
  const std::uint64_t before8 = fixed8.committed();
  fixed8.run(8 * 8192);
  EXPECT_GE(static_cast<double>(oracle8.committed),
            0.95 * static_cast<double>(fixed8.committed() - before8));
}

TEST(Integration, FourToEightThreadsDoNotScaleLinearly) {
  // The saturation effect the paper targets: going 4 → 8 threads must
  // yield clearly sublinear throughput growth.
  sim::Simulator s4(config_for("span8", 4));
  sim::Simulator s8(config_for("span8", 8));
  s4.run(60000);
  s8.run(60000);
  EXPECT_GT(s8.ipc(), s4.ipc() * 0.8);  // not collapsing
  EXPECT_LT(s8.ipc(), s4.ipc() * 1.9);  // far from 2x
}

TEST(Integration, SampledRunAggregatesIntervals) {
  sim::SamplingPlan plan;
  plan.intervals = 2;
  plan.warmup_cycles = 4096;
  plan.measure_cycles = 16384;
  const sim::SampleResult r = sim::run_sampled(config_for("bal2", 8), plan);
  EXPECT_EQ(r.cycles, 2u * 16384u);
  EXPECT_GT(r.ipc(), 0.5);
  EXPECT_EQ(r.interval_ipc.count(), 2u);
}

}  // namespace
}  // namespace smt
