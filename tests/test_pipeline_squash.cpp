// Tests: squash/replay correctness of the pipeline.
//
// These are the trickiest paths in the machine: wrong-path squash at
// branch resolution, full-pipeline syscall flush with replay, and the
// interaction of both with the shared queues and counters.
#include <gtest/gtest.h>

#include "pipeline/pipeline.hpp"
#include "workload/app_profile.hpp"

namespace smt::pipeline {
namespace {

Pipeline make_custom(std::vector<workload::AppProfile> profiles,
                     PipelineConfig cfg = PipelineConfig{},
                     std::uint64_t seed = 1) {
  std::vector<workload::ThreadProgram> ps;
  std::uint32_t tid = 0;
  for (const auto& p : profiles) ps.emplace_back(p, tid++, seed);
  return Pipeline(cfg, std::move(ps));
}

workload::AppProfile branchy_profile() {
  workload::AppProfile p = workload::profile("parser");
  p.predictable_sites = 0.2;  // mispredict storm
  p.mix.branch = 0.3;
  return p;
}

workload::AppProfile syscall_profile(double rate) {
  workload::AppProfile p = workload::profile("gzip");
  p.mix.syscall = rate;
  return p;
}

TEST(PipelineSquash, InvariantsHoldUnderMispredictStorm) {
  Pipeline p = make_custom({branchy_profile(), branchy_profile()});
  for (int chunk = 0; chunk < 40; ++chunk) {
    p.run(500);
    ASSERT_TRUE(p.check_counter_invariants()) << "cycle " << p.now();
  }
  EXPECT_GT(p.stats().mispredicts, 100u);
}

TEST(PipelineSquash, InvariantsHoldUnderSyscallStorm) {
  Pipeline p = make_custom({syscall_profile(0.02), branchy_profile()});
  for (int chunk = 0; chunk < 40; ++chunk) {
    p.run(500);
    ASSERT_TRUE(p.check_counter_invariants()) << "cycle " << p.now();
  }
  EXPECT_GT(p.stats().syscall_flushes, 5u);
}

TEST(PipelineSquash, ProgressContinuesAfterManyFlushes) {
  Pipeline p = make_custom({syscall_profile(0.01), syscall_profile(0.01)},
                           PipelineConfig{}, 5);
  p.run(60000);
  EXPECT_GT(p.stats().syscall_flushes, 3u);
  // Both threads keep committing despite repeated whole-machine drains.
  EXPECT_GT(p.counters(0).total.committed, 500u);
  EXPECT_GT(p.counters(1).total.committed, 500u);
}

TEST(PipelineSquash, ReplayPreservesCommittedStreamExactly) {
  // A machine with syscall flushes must commit the same per-thread
  // instruction *stream* as one without stalls would: committed counts of
  // the non-syscall thread grow monotonically and deterministically
  // across two identical runs.
  Pipeline a = make_custom({syscall_profile(0.005), branchy_profile()});
  Pipeline b = make_custom({syscall_profile(0.005), branchy_profile()});
  a.run(30000);
  b.run(30000);
  EXPECT_EQ(a.committed_total(), b.committed_total());
  EXPECT_EQ(a.stats().squashed, b.stats().squashed);
  EXPECT_EQ(a.stats().syscall_flushes, b.stats().syscall_flushes);
}

TEST(PipelineSquash, SquashedNeverCommits) {
  Pipeline p = make_custom({branchy_profile()});
  p.run(30000);
  // Every fetched instruction is committed, squashed, or still in flight;
  // counts must reconcile.
  const PipelineStats& s = p.stats();
  EXPECT_EQ(s.fetched >= s.committed + s.squashed, true);
  EXPECT_LE(s.fetched - s.committed - s.squashed,
            static_cast<std::uint64_t>(p.config().rob_per_thread));
}

TEST(PipelineSquash, MispredictPenaltyStallsFetch) {
  // With a huge mispredict penalty, a mispredict-heavy single thread
  // commits far less than with a small penalty.
  PipelineConfig fast;
  fast.mispredict_penalty = 1;
  PipelineConfig slow;
  slow.mispredict_penalty = 40;
  Pipeline a = make_custom({branchy_profile()}, fast);
  Pipeline b = make_custom({branchy_profile()}, slow);
  a.run(20000);
  b.run(20000);
  EXPECT_GT(a.committed_total(), b.committed_total());
}

TEST(PipelineSquash, WrongPathFractionRisesWithMispredicts) {
  workload::AppProfile predictable = workload::profile("gzip");
  predictable.predictable_sites = 1.0;
  Pipeline clean = make_custom({predictable, predictable});
  Pipeline dirty = make_custom({branchy_profile(), branchy_profile()});
  clean.run(20000);
  dirty.run(20000);
  const auto frac = [](const PipelineStats& s) {
    return s.fetched ? static_cast<double>(s.fetched_wrong_path) /
                           static_cast<double>(s.fetched)
                     : 0.0;
  };
  EXPECT_LT(frac(clean.stats()), frac(dirty.stats()));
}

TEST(PipelineSquash, CounterInvariantsAcrossAllDefaultMixApps) {
  // Broad sweep: every profile runs alone and pairwise with a thrashy
  // partner without breaking counter bookkeeping.
  for (const char* app : {"gzip", "mcf", "swim", "art", "gcc", "sixtrack"}) {
    Pipeline p = make_custom(
        {workload::profile(app), workload::profile("art")});
    p.run(8000);
    ASSERT_TRUE(p.check_counter_invariants()) << app;
  }
}

TEST(PipelineSquash, TinyQueuesStillCorrect) {
  PipelineConfig cfg;
  cfg.int_iq_size = 4;
  cfg.fp_iq_size = 4;
  cfg.lsq_size = 4;
  cfg.fetch_buffer_cap = 4;
  cfg.int_rename_regs = 12;
  cfg.fp_rename_regs = 12;
  Pipeline p = make_custom({branchy_profile(), workload::profile("swim")},
                           cfg);
  for (int chunk = 0; chunk < 20; ++chunk) {
    p.run(500);
    ASSERT_TRUE(p.check_counter_invariants()) << "cycle " << p.now();
  }
  EXPECT_GT(p.committed_total(), 100u);
}

TEST(PipelineSquash, SingleEntryFetchBufferStillProgresses) {
  PipelineConfig cfg;
  cfg.fetch_buffer_cap = 1;
  Pipeline p = make_custom({workload::profile("gzip")}, cfg);
  p.run(10000);
  EXPECT_GT(p.committed_total(), 500u);
  EXPECT_TRUE(p.check_counter_invariants());
}

}  // namespace
}  // namespace smt::pipeline
