// Property tests: fetch-slot stall attribution (obs::StallBreakdown
// maintained by Pipeline::do_fetch).
//
// The load-bearing property is conservation: every fetch slot of every
// cycle is either used by a thread, absorbed by the detector thread, or
// charged to exactly one stall cause — never lost, never double-counted.
#include <gtest/gtest.h>

#include "obs/stall.hpp"
#include "sim/simulator.hpp"
#include "workload/app_profile.hpp"
#include "workload/mix.hpp"

namespace smt::pipeline {
namespace {

sim::SimConfig quick_sim(const char* mix_name, bool adts = false) {
  sim::SimConfig cfg = sim::make_config(workload::mix(mix_name), 8, 2003);
  cfg.adts.quantum_cycles = 1024;
  cfg.use_adts = adts;
  return cfg;
}

std::uint64_t total_charged(const Pipeline& p) {
  std::uint64_t sum = p.machine_stall_breakdown().total();
  for (std::uint32_t tid = 0; tid < p.num_threads(); ++tid) {
    sum += p.stall_breakdown(tid).total();
  }
  return sum;
}

TEST(StallAttribution, WholeRunConservationAcrossMixes) {
  for (const char* mix : {"bal1", "mem8", "ilp8", "ctrl8"}) {
    for (const bool adts : {false, true}) {
      sim::Simulator s(quick_sim(mix, adts));
      s.run(16 * 1024);
      const PipelineStats st = s.pipeline().stats();
      // Every idle slot is either absorbed by the DT or charged to
      // exactly one cause.
      EXPECT_EQ(total_charged(s.pipeline()) + st.dt_slots_used,
                st.fetch_slots_idle)
          << mix << (adts ? " (adts)" : " (fixed)");
      EXPECT_EQ(total_charged(s.pipeline()),
                s.pipeline().charged_stall_slots());
    }
  }
}

TEST(StallAttribution, PerCycleConservation) {
  sim::Simulator s(quick_sim("mem8", /*adts=*/true));
  const std::uint32_t width = s.pipeline().config().fetch_width;
  std::uint64_t prev_fetched = 0;
  std::uint64_t prev_charged = 0;
  std::uint64_t prev_dt = 0;
  for (int cycle = 0; cycle < 4096; ++cycle) {
    s.step();
    const PipelineStats st = s.pipeline().stats();
    const std::uint64_t charged = total_charged(s.pipeline());
    const std::uint64_t fetched_d = st.fetched - prev_fetched;
    const std::uint64_t charged_d = charged - prev_charged;
    const std::uint64_t dt_d = st.dt_slots_used - prev_dt;
    ASSERT_EQ(fetched_d + charged_d + dt_d, width) << "cycle " << cycle;
    prev_fetched = st.fetched;
    prev_charged = charged;
    prev_dt = st.dt_slots_used;
  }
}

TEST(StallAttribution, BlockedFetchChargesTheBlackoutCause) {
  sim::Simulator s(quick_sim("ilp8"));
  s.run(1024);  // warm the pipeline so other causes are settled
  const std::uint64_t before =
      s.pipeline().stall_breakdown(3)[obs::StallCause::kFetchBlackout];
  s.pipeline().block_fetch(3, s.now() + 512);
  s.run(512);
  const std::uint64_t after =
      s.pipeline().stall_breakdown(3)[obs::StallCause::kFetchBlackout];
  EXPECT_GT(after, before);
}

TEST(StallAttribution, IcacheMissesAreChargedToTheStalledThread) {
  // Any mix fetching through real caches incurs I-miss stalls early.
  sim::Simulator s(quick_sim("mem8"));
  s.run(2048);
  std::uint64_t icache_charges = 0;
  for (std::uint32_t tid = 0; tid < 8; ++tid) {
    icache_charges +=
        s.pipeline().stall_breakdown(tid)[obs::StallCause::kIcacheMiss];
  }
  EXPECT_GT(icache_charges, 0u);
}

TEST(StallAttribution, BreakdownSurvivesQuantumCounterResets) {
  // The breakdown is pipeline-lifetime: setting the quantum marks (what
  // the detector does each boundary) must not clear it, or the whole-run
  // conservation law would break.
  sim::Simulator s(quick_sim("bal1"));
  s.run(2048);
  const std::uint64_t before = total_charged(s.pipeline());
  ASSERT_GT(before, 0u);
  s.pipeline().mark_quantum();
  EXPECT_EQ(total_charged(s.pipeline()), before);
}

TEST(CounterMarks, QuantumMarkLeavesTotalsAndTheLoadMark) {
  sim::Simulator s(quick_sim("bal1"));
  s.run(128);
  const pipeline::ThreadCounters before = s.pipeline().counters(2);
  ASSERT_GT(before.since_quantum().fetched, 0u);
  s.pipeline().mark_quantum();
  const pipeline::ThreadCounters& c = s.pipeline().counters(2);
  EXPECT_EQ(c.quantum_mark.cycle, s.now());
  EXPECT_EQ(c.since_quantum().fetched, 0u);
  EXPECT_EQ(c.total.fetched, before.total.fetched);
  EXPECT_EQ(c.since_load().fetched, before.since_load().fetched);
}

TEST(CounterMarks, SwapProgramSetsTheLoadMarkAndKeepsTotals) {
  sim::Simulator s(quick_sim("bal1"));
  s.run(128);
  const pipeline::EventCounts before = s.pipeline().counters(5).total;
  ASSERT_GT(before.fetched, 0u);
  workload::ThreadProgram incoming(workload::profile("gzip"), 5, 77);
  auto outgoing = s.pipeline().swap_program(5, std::move(incoming), 64);
  const pipeline::ThreadCounters& c = s.pipeline().counters(5);
  EXPECT_EQ(c.load_mark.cycle, s.now());
  EXPECT_EQ(c.total.fetched, before.fetched);
  EXPECT_EQ(c.since_load().fetched, 0u);
  // The load mark is the later one, so the quantum window restarts too.
  EXPECT_EQ(c.since_quantum().fetched, 0u);
  EXPECT_EQ(c.cycles_since_load(s.now() + 10), 10u);
  (void)outgoing;
}

}  // namespace
}  // namespace smt::pipeline
