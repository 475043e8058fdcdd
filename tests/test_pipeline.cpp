// Unit tests: SMT pipeline basics (pipeline/pipeline.hpp).
#include <gtest/gtest.h>

#include "obs/stall.hpp"
#include "pipeline/pipeline.hpp"
#include "workload/app_profile.hpp"

namespace smt::pipeline {
namespace {

std::vector<workload::ThreadProgram> programs(
    std::initializer_list<const char*> apps, std::uint64_t seed = 1) {
  std::vector<workload::ThreadProgram> ps;
  std::uint32_t tid = 0;
  for (const char* a : apps) {
    ps.emplace_back(workload::profile(a), tid++, seed);
  }
  return ps;
}

Pipeline make(std::initializer_list<const char*> apps,
              std::uint64_t seed = 1) {
  return Pipeline(PipelineConfig{}, programs(apps, seed));
}

TEST(Pipeline, SingleThreadMakesProgress) {
  Pipeline p = make({"gzip"});
  p.run(20000);
  EXPECT_GT(p.committed_total(), 1000u);
  EXPECT_EQ(p.stats().cycles, 20000u);
}

TEST(Pipeline, SingleThreadIpcBelowFetchLimit) {
  Pipeline p = make({"sixtrack"});
  p.run(30000);
  EXPECT_LT(p.stats().ipc(), 8.0);
  EXPECT_GT(p.stats().ipc(), 0.3);
}

TEST(Pipeline, MoreThreadsMoreThroughput) {
  Pipeline p1 = make({"gzip"});
  Pipeline p4 = make({"gzip", "crafty", "eon", "bzip2"});
  p1.run(30000);
  p4.run(30000);
  EXPECT_GT(p4.stats().ipc(), p1.stats().ipc() * 1.3);
}

TEST(Pipeline, CommittedNeverExceedsFetched) {
  Pipeline p = make({"gcc", "vpr"});
  p.run(20000);
  EXPECT_LE(p.committed_total(), p.stats().fetched);
}

TEST(Pipeline, FetchedSplitsIntoCommittedSquashedInflight) {
  Pipeline p = make({"parser", "twolf"});
  p.run(20000);
  const PipelineStats s = p.stats();
  // fetched = committed + squashed + still-in-flight.
  const std::uint64_t inflight = s.fetched - s.committed - s.squashed;
  EXPECT_LE(inflight, 2u * (p.config().rob_per_thread));
}

TEST(Pipeline, BranchResolutionProducesMispredicts) {
  Pipeline p = make({"parser", "gcc"});
  p.run(30000);
  EXPECT_GT(p.stats().branches_resolved, 500u);
  EXPECT_GT(p.stats().mispredicts, 0u);
  EXPECT_LT(static_cast<double>(p.stats().mispredicts) /
                static_cast<double>(p.stats().branches_resolved),
            0.5);
}

TEST(Pipeline, WrongPathInstructionsAreFetchedAndSquashed) {
  Pipeline p = make({"parser", "vpr", "twolf", "gcc"});
  p.run(30000);
  EXPECT_GT(p.stats().fetched_wrong_path, 0u);
  EXPECT_GT(p.stats().squashed, 0u);
  // Wrong-path instructions never commit, so squashes must at least cover
  // the resolved-mispredict wrong paths.
  EXPECT_GE(p.stats().squashed, p.stats().mispredicts);
}

TEST(Pipeline, PolicyCanBeChangedMidRun) {
  Pipeline p = make({"gzip", "mcf", "swim", "crafty"});
  p.run(5000);
  EXPECT_EQ(p.policy(), policy::FetchPolicy::kIcount);
  p.set_policy(policy::FetchPolicy::kBrcount);
  p.run(5000);
  EXPECT_EQ(p.policy(), policy::FetchPolicy::kBrcount);
  EXPECT_GT(p.committed_total(), 0u);
}

TEST(Pipeline, BlockFetchSuppressesAThread) {
  Pipeline p = make({"gzip", "gzip"}, 3);
  p.run(2000);
  const std::uint64_t committed_before = p.counters(0).total.committed;
  p.block_fetch(0, p.now() + 100000);
  p.run(20000);
  // Thread 0 may drain in-flight work but then commits nothing further.
  const std::uint64_t drained =
      p.counters(0).total.committed - committed_before;
  EXPECT_LT(drained, 600u);
  EXPECT_GT(p.counters(1).total.committed, 1000u);
}

TEST(Pipeline, ShorterBlockFetchKeepsTheLaterDeadline) {
  // A policy-switch penalty (a short block) landing on a clogging
  // thread's suspension (a long one) must not cut the suspension short.
  Pipeline p = make({"gzip"});
  p.run(2000);
  const std::uint64_t start = p.now();
  p.block_fetch(0, start + 1000);
  p.block_fetch(0, start + 24);
  p.run(476);
  const auto blackout = [&p] {
    return p.stall_breakdown(0)[obs::StallCause::kFetchBlackout];
  };
  const std::uint64_t before = blackout();
  p.run(24);
  ASSERT_EQ(p.now(), start + 500);
  EXPECT_EQ(blackout() - before, 24u * p.config().fetch_width);
}

TEST(Pipeline, DetectorWorkConsumesOnlyIdleSlots) {
  Pipeline p = make({"gzip", "crafty"});
  p.add_dt_work(1000);
  const std::uint64_t before = p.committed_total();
  Pipeline q = make({"gzip", "crafty"});
  p.run(5000);
  q.run(5000);
  // DT work must not change normal-thread execution at all.
  EXPECT_EQ(p.committed_total() - before, q.committed_total());
  EXPECT_EQ(p.dt_work_remaining(), 0u);
  EXPECT_GT(p.stats().dt_slots_used, 0u);
}

TEST(Pipeline, DtWorkRemainingDecreasesMonotonically) {
  Pipeline p = make({"gzip"});
  p.add_dt_work(10000);
  std::uint64_t prev = p.dt_work_remaining();
  for (int i = 0; i < 100; ++i) {
    p.step();
    EXPECT_LE(p.dt_work_remaining(), prev);
    prev = p.dt_work_remaining();
  }
}

TEST(Pipeline, QuantumCountersResetButLifetimeSurvives) {
  Pipeline p = make({"gcc", "mcf"});
  p.run(9000);
  const std::uint64_t lifetime = p.counters(0).total.committed;
  EXPECT_GT(p.counters(0).since_quantum().committed, 0u);
  p.mark_quantum();
  EXPECT_EQ(p.counters(0).since_quantum().committed, 0u);
  EXPECT_EQ(p.counters(0).total.committed, lifetime);
}

TEST(Pipeline, SyscallsFlushWholePipeline) {
  // Force frequent syscalls through a custom profile.
  workload::AppProfile p = workload::profile("gzip");
  p.mix.syscall = 0.01;
  std::vector<workload::ThreadProgram> ps;
  ps.emplace_back(p, 0, 1);
  ps.emplace_back(workload::profile("crafty"), 1, 1);
  Pipeline pipe(PipelineConfig{}, std::move(ps));
  pipe.run(40000);
  EXPECT_GT(pipe.stats().syscall_flushes, 0u);
  EXPECT_GT(pipe.committed_total(), 100u) << "must keep progressing";
  EXPECT_TRUE(pipe.check_counter_invariants());
}

TEST(Pipeline, RejectsEmptyProgramList) {
  EXPECT_THROW(Pipeline(PipelineConfig{}, {}), std::invalid_argument);
}

TEST(Pipeline, RejectsTooManyThreadsForConfig) {
  PipelineConfig cfg;
  cfg.memory.max_threads = 2;
  EXPECT_THROW(Pipeline(cfg, programs({"gzip", "gcc", "vpr"})),
               std::invalid_argument);
}

TEST(Pipeline, RejectsLatencyBeyondCompletionRing) {
  PipelineConfig cfg;
  cfg.memory.mem_latency = 100000;
  EXPECT_THROW(Pipeline(cfg, programs({"gzip"})), std::invalid_argument);
}

TEST(Pipeline, RejectsAMachineThatCannotIssueOrMove) {
  // With no unit of some class an instruction of that class could never
  // issue; with a zero width the machine never moves.
  for (std::uint32_t PipelineConfig::*field :
       {&PipelineConfig::int_alus, &PipelineConfig::mem_ports,
        &PipelineConfig::fp_units, &PipelineConfig::fetch_width,
        &PipelineConfig::fetch_threads, &PipelineConfig::dispatch_width,
        &PipelineConfig::issue_width, &PipelineConfig::commit_width}) {
    PipelineConfig cfg;
    cfg.*field = 0;
    EXPECT_THROW(Pipeline(cfg, programs({"gzip"})), std::invalid_argument);
    cfg.*field = 1;
    EXPECT_NO_THROW(Pipeline(cfg, programs({"gzip"})));
  }
}

TEST(Pipeline, IdleSlotsAccountedWhenUnderloaded) {
  Pipeline p = make({"mcf"});  // one slow thread: most slots idle
  p.run(10000);
  EXPECT_GT(p.stats().fetch_slots_idle, 10000u);
}

}  // namespace
}  // namespace smt::pipeline
