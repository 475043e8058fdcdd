// Unit tests: multiprogrammed job scheduler (sched/job_scheduler.hpp)
// and the pipeline's context-switch primitive.
#include <gtest/gtest.h>

#include "sched/job_scheduler.hpp"
#include "workload/app_profile.hpp"

namespace smt::sched {
namespace {

std::vector<std::string> pool16() {
  return {"gzip",  "vpr",     "gcc",   "mcf",  "crafty", "parser",
          "eon",   "perlbmk", "gap",   "vortex", "bzip2", "twolf",
          "swim",  "art",     "mesa",  "sixtrack"};
}

JobSchedConfig quick_cfg(EvictionPolicy p = EvictionPolicy::kOblivious) {
  JobSchedConfig cfg;
  cfg.job_quantum_cycles = 4096;
  cfg.swaps_per_quantum = 2;
  cfg.ctx_switch_penalty = 100;
  cfg.eviction = p;
  return cfg;
}

TEST(SwapProgram, ReplacesWorkloadAndResetsCounters) {
  std::vector<workload::ThreadProgram> ps;
  ps.emplace_back(workload::profile("gzip"), 0, 1);
  pipeline::Pipeline pipe(pipeline::PipelineConfig{}, std::move(ps));
  pipe.run(5000);
  ASSERT_GT(pipe.counters(0).total.committed, 0u);

  workload::ThreadProgram incoming(workload::profile("mcf"), 9, 1);
  const workload::ThreadProgram outgoing =
      pipe.swap_program(0, std::move(incoming), 50);
  EXPECT_EQ(outgoing.app().name, "gzip");
  EXPECT_GT(outgoing.generated(), 0u) << "outgoing keeps its position";
  EXPECT_EQ(pipe.program(0).app().name, "mcf");
  // The load mark restarts the per-job window; the context's event
  // totals run on.
  EXPECT_EQ(pipe.counters(0).since_load().committed, 0u);
  EXPECT_EQ(pipe.counters(0).load_mark.cycle, pipe.now());
  EXPECT_GT(pipe.counters(0).total.committed, 0u);
  EXPECT_TRUE(pipe.check_counter_invariants());
}

TEST(SwapProgram, PenaltyStallsFetch) {
  std::vector<workload::ThreadProgram> ps;
  ps.emplace_back(workload::profile("gzip"), 0, 1);
  pipeline::Pipeline pipe(pipeline::PipelineConfig{}, std::move(ps));
  pipe.run(5000);
  (void)pipe.swap_program(
      0, workload::ThreadProgram(workload::profile("eon"), 9, 1), 500);
  pipe.run(400);
  EXPECT_EQ(pipe.counters(0).since_load().committed, 0u)
      << "nothing can commit during the switch penalty";
  pipe.run(5000);
  EXPECT_GT(pipe.counters(0).since_load().committed, 100u);
}

TEST(SwapProgram, MachineKeepsRunningForOtherThreads) {
  std::vector<workload::ThreadProgram> ps;
  ps.emplace_back(workload::profile("gzip"), 0, 1);
  ps.emplace_back(workload::profile("crafty"), 1, 1);
  pipeline::Pipeline pipe(pipeline::PipelineConfig{}, std::move(ps));
  pipe.run(2000);
  const std::uint64_t other_before = pipe.counters(1).total.committed;
  (void)pipe.swap_program(
      0, workload::ThreadProgram(workload::profile("art"), 9, 1), 1000);
  pipe.run(2000);
  EXPECT_GT(pipe.counters(1).total.committed, other_before);
}

TEST(JobScheduler, RejectsBadSetups) {
  EXPECT_THROW(make_multiprogrammed(pipeline::PipelineConfig{},
                                    quick_cfg(), {"gzip"}, 4, 1),
               std::invalid_argument);
  JobSchedConfig cfg = quick_cfg();
  cfg.job_quantum_cycles = 0;
  EXPECT_THROW(JobScheduler(cfg, {Job{}}, {}), std::invalid_argument);
  EXPECT_THROW(JobScheduler(quick_cfg(), {}, {}), std::invalid_argument);
}

TEST(JobScheduler, SwapsAtJobQuanta) {
  auto sys = make_multiprogrammed(pipeline::PipelineConfig{}, quick_cfg(),
                                  pool16(), 8, 1);
  for (int i = 0; i < 4 * 4096; ++i) {
    sys.pipeline.step();
    sys.scheduler.tick(sys.pipeline, nullptr);
  }
  EXPECT_EQ(sys.scheduler.stats().job_quanta, 4u);
  EXPECT_EQ(sys.scheduler.stats().swaps, 4u * 2u);
  EXPECT_EQ(sys.scheduler.waiting_count(), 8u) << "pool size is conserved";
}

TEST(JobScheduler, EveryJobEventuallyRuns) {
  auto sys = make_multiprogrammed(pipeline::PipelineConfig{}, quick_cfg(),
                                  pool16(), 8, 1);
  for (int i = 0; i < 40 * 4096; ++i) {
    sys.pipeline.step();
    sys.scheduler.tick(sys.pipeline, nullptr);
  }
  // After 40 quanta x 2 swaps, all 16 jobs must have had at least one
  // stint and made progress.
  std::uint64_t zero_progress = 0;
  auto check = [&](const Job& j) {
    if (j.stints == 0) ++zero_progress;
  };
  for (const Job& j : sys.scheduler.resident()) check(j);
  // Waiting jobs are not directly inspectable one by one; conservation +
  // resident stints is the proxy.
  EXPECT_EQ(zero_progress, 0u);
  EXPECT_TRUE(sys.pipeline.check_counter_invariants());
}

TEST(JobScheduler, ObliviousVsAssistedBothMakeProgress) {
  for (const EvictionPolicy p :
       {EvictionPolicy::kOblivious, EvictionPolicy::kDetectorAssisted}) {
    auto sys = make_multiprogrammed(pipeline::PipelineConfig{}, quick_cfg(p),
                                    pool16(), 8, 1);
    core::AdtsConfig acfg;
    acfg.quantum_cycles = 1024;
    acfg.ipc_threshold = 100.0;  // always analyse → clog flags fresh
    core::DetectorThread dt(acfg);
    for (int i = 0; i < 20 * 4096; ++i) {
      sys.pipeline.step();
      dt.tick(sys.pipeline);
      sys.scheduler.tick(sys.pipeline, &dt);
    }
    EXPECT_GT(sys.pipeline.committed_total(), 10000u) << name(p);
    EXPECT_TRUE(sys.pipeline.check_counter_invariants()) << name(p);
  }
}

TEST(JobScheduler, AssistedUsesClogFlags) {
  JobSchedConfig cfg = quick_cfg(EvictionPolicy::kDetectorAssisted);
  auto sys = make_multiprogrammed(pipeline::PipelineConfig{}, cfg,
                                  pool16(), 8, 1);
  core::AdtsConfig acfg;
  acfg.quantum_cycles = 1024;
  acfg.ipc_threshold = 100.0;
  acfg.clog_icount_share = 0.25;  // flag aggressively
  core::DetectorThread dt(acfg);
  for (int i = 0; i < 30 * 4096; ++i) {
    sys.pipeline.step();
    dt.tick(sys.pipeline);
    sys.scheduler.tick(sys.pipeline, &dt);
  }
  EXPECT_GT(sys.scheduler.stats().assisted_evictions, 0u);
}

TEST(JobScheduler, NoWaitingJobsMeansNoSwaps) {
  auto sys = make_multiprogrammed(
      pipeline::PipelineConfig{}, quick_cfg(),
      {"gzip", "vpr", "gcc", "mcf", "crafty", "parser", "eon", "perlbmk"}, 8,
      1);
  for (int i = 0; i < 4 * 4096; ++i) {
    sys.pipeline.step();
    sys.scheduler.tick(sys.pipeline, nullptr);
  }
  EXPECT_EQ(sys.scheduler.stats().swaps, 0u);
}

}  // namespace
}  // namespace smt::sched
