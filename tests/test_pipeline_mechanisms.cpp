// Mechanism-isolation tests: each pins one microarchitectural behaviour
// of the pipeline using a purpose-built workload profile.
#include <gtest/gtest.h>

#include "pipeline/pipeline.hpp"
#include "workload/app_profile.hpp"

namespace smt::pipeline {
namespace {

/// A branch-free, dependency-free, cache-resident profile: the pipeline
/// should stream it at full fetch bandwidth.
workload::AppProfile straightline() {
  workload::AppProfile p = workload::profile("gzip");
  p.mix.branch = 0.0;     // is_branch_pc threshold 0 → no branches at all
  p.mix.syscall = 0.0;
  p.mix.load = 0.05;
  p.mix.store = 0.02;
  p.mix.int_alu = 0.93;
  p.mean_dep_distance = 16.0;
  p.working_set_bytes = 4096;
  p.hot_set_bytes = 2048;
  p.hot_fraction = 1.0;
  p.code_bytes = 8192;
  p.phases = {workload::PhaseKind::kBase};
  return p;
}

workload::AppProfile branch_storm() {
  workload::AppProfile p = workload::profile("gzip");
  p.mix.branch = 10.0;  // dominate the mix: (almost) every PC is a branch
  p.predictable_sites = 1.0;
  p.phases = {workload::PhaseKind::kBase};
  return p;
}

Pipeline single(const workload::AppProfile& prof,
                PipelineConfig cfg = PipelineConfig{}) {
  std::vector<workload::ThreadProgram> ps;
  ps.emplace_back(prof, 0, 1);
  return Pipeline(cfg, std::move(ps));
}

TEST(Mechanism, StraightlineCodeFetchesFullBlocks) {
  Pipeline p = single(straightline());
  // Walk the whole (small) code segment once so every block's compulsory
  // I-miss is behind us, then measure sustained fetch bandwidth.
  p.run(30000);
  const std::uint64_t fetched_before = p.stats().fetched;
  p.run(500);
  const double per_cycle =
      static_cast<double>(p.stats().fetched - fetched_before) / 500.0;
  // One thread's sustained rate is bounded by the per-thread front-end
  // buffer over the front-end depth (12/5 ≈ 2.4, see PipelineConfig);
  // warm straightline code must saturate that bound.
  EXPECT_GT(per_cycle, 2.2);
  EXPECT_LE(per_cycle, 2.5);
}

TEST(Mechanism, TakenBranchesFragmentFetch) {
  Pipeline p = single(branch_storm());
  p.run(2000);
  const std::uint64_t fetched_before = p.stats().fetched;
  p.run(500);
  const double per_cycle =
      static_cast<double>(p.stats().fetched - fetched_before) / 500.0;
  // Every instruction is a branch; roughly half are taken, so fetch
  // groups collapse to a couple of instructions.
  EXPECT_LT(per_cycle, 4.0);
}

TEST(Mechanism, RenameRegisterStarvationThrottles) {
  PipelineConfig rich;
  PipelineConfig poor;
  poor.int_rename_regs = 6;
  poor.fp_rename_regs = 6;
  Pipeline a = single(straightline(), rich);
  Pipeline b = single(straightline(), poor);
  a.run(20000);
  b.run(20000);
  EXPECT_GT(a.committed_total(), b.committed_total() * 1.1);
  EXPECT_TRUE(b.check_counter_invariants());
}

TEST(Mechanism, BtbMissPenaltyCostsThroughput) {
  PipelineConfig fast;
  fast.btb_miss_penalty = 0;
  PipelineConfig slow;
  slow.btb_miss_penalty = 12;
  // Large code footprint → BTB (1K entries) thrashes → penalties bite.
  workload::AppProfile p = workload::profile("gcc");
  p.phases = {workload::PhaseKind::kBase};
  Pipeline a = single(p, fast);
  Pipeline b = single(p, slow);
  a.run(30000);
  b.run(30000);
  EXPECT_GT(a.committed_total(), b.committed_total());
}

TEST(Mechanism, MispredictRateNearZeroForFullyBiasedSites) {
  workload::AppProfile p = branch_storm();  // predictable_sites = 1.0
  Pipeline pipe = single(p);
  pipe.run(40000);
  const auto st = pipe.stats();
  ASSERT_GT(st.branches_resolved, 1000u);
  EXPECT_LT(static_cast<double>(st.mispredicts) /
                static_cast<double>(st.branches_resolved),
            0.08);
}

TEST(Mechanism, SmallerL1RaisesMissRate) {
  PipelineConfig big;
  PipelineConfig small;
  small.memory.l1d = mem::CacheConfig{"L1D", 4 * 1024, 32, 4};
  workload::AppProfile prof = workload::profile("gap");
  Pipeline a = single(prof, big);
  Pipeline b = single(prof, small);
  a.run(30000);
  b.run(30000);
  EXPECT_GT(b.memory().l1d().miss_rate(), a.memory().l1d().miss_rate());
}

TEST(Mechanism, LongerMemoryLatencyLowersThroughput) {
  PipelineConfig near;
  near.memory.mem_latency = 20;
  PipelineConfig far;
  far.memory.mem_latency = 200;
  Pipeline a = single(workload::profile("mcf"), near);
  Pipeline b = single(workload::profile("mcf"), far);
  a.run(30000);
  b.run(30000);
  EXPECT_GT(a.committed_total(), b.committed_total());
}

TEST(Mechanism, DeeperFrontEndHurtsMispredictRecovery) {
  PipelineConfig shallow;
  shallow.frontend_delay = 1;
  PipelineConfig deep;
  deep.frontend_delay = 12;
  workload::AppProfile p = workload::profile("parser");
  p.predictable_sites = 0.3;  // mispredict-heavy
  p.phases = {workload::PhaseKind::kBase};
  Pipeline a = single(p, shallow);
  Pipeline b = single(p, deep);
  a.run(30000);
  b.run(30000);
  EXPECT_GT(a.committed_total(), b.committed_total());
}

}  // namespace
}  // namespace smt::pipeline
