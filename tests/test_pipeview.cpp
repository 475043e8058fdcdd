// Tests: pipeview instruction-lifecycle sampling — window accounting,
// stage-stamp monotonicity, terminal coverage and detach. The observer
// contract (sampling never perturbs the simulated machine; copies drop
// the sampler with the sink) is tests/test_observer_contract.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/trace_sink.hpp"
#include "sim/simulator.hpp"
#include "workload/mix.hpp"

namespace smt {
namespace {

sim::SimConfig pipeview_config(const char* mix_name,
                               std::vector<pipeline::PipeviewWindow> windows) {
  sim::SimConfig cfg = sim::make_config(workload::mix(mix_name), 8, 2003);
  cfg.use_adts = true;
  cfg.adts.quantum_cycles = 1024;
  cfg.pipeview = std::move(windows);
  return cfg;
}

std::vector<obs::TraceEvent> pipeview_events(const obs::TraceSink& sink) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : sink.snapshot()) {
    if (e.kind == obs::EventKind::kPipeview) out.push_back(e);
  }
  return out;
}

TEST(Pipeview, OffByDefaultEvenWithASinkAttached) {
  sim::Simulator s(pipeview_config("mem8", {}));
  obs::TraceSink sink;
  s.attach_trace(&sink);
  s.run(8 * 1024);
  EXPECT_FALSE(s.pipeline().pipeview_active());
  EXPECT_TRUE(pipeview_events(sink).empty());
}

TEST(Pipeview, WindowsBoundTheSampleCountExactly) {
  sim::Simulator s(pipeview_config("mem8", {{2048, 64}, {8192, 32}}));
  obs::TraceSink sink;
  s.attach_trace(&sink);
  s.run(32 * 1024);  // long enough for every sample to retire
  EXPECT_EQ(s.pipeline().pipeview_opened(), 96u);
  EXPECT_EQ(s.pipeline().pipeview_in_flight(), 0u);
  const auto evs = pipeview_events(sink);
  ASSERT_EQ(evs.size(), 96u);
  std::size_t second_window = 0;
  for (const obs::TraceEvent& e : evs) {
    EXPECT_GE(e.cycle, 2048u);  // nothing sampled before the first window
    second_window += e.cycle >= 8192 ? 1 : 0;
  }
  EXPECT_GE(second_window, 32u);
}

TEST(Pipeview, StageStampsAreMonotoneBoundedAndTerminated) {
  sim::Simulator s(pipeview_config("mem8", {{2048, 128}}));
  obs::TraceSink sink;
  s.attach_trace(&sink);
  s.run(32 * 1024);
  const auto evs = pipeview_events(sink);
  ASSERT_EQ(evs.size(), 128u);
  for (const obs::TraceEvent& e : evs) {
    EXPECT_GE(e.tid, 0);
    EXPECT_LT(e.tid, 8);
    ASSERT_GE(e.span, 1u);  // close happens at least one cycle after fetch
    const auto retire =
        e.stage_delta[static_cast<std::size_t>(obs::PipeStage::kRetire)];
    EXPECT_EQ(retire, e.span);  // rows are self-contained

    // Reached stages carry offsets in pipeline order, each within the
    // lifetime; 0 marks a stage the instruction never reached.
    std::uint32_t prev = 0;
    for (std::size_t i = 0; i < obs::kNumPipeStages; ++i) {
      const std::uint32_t d = e.stage_delta[i];
      if (d == 0) continue;
      EXPECT_GE(d, prev) << "stage " << i << " out of order";
      EXPECT_LE(d, e.span);
      prev = d;
    }

    // Issue and execute are the same cycle by construction, and a stage
    // implies every stage before it.
    const auto dispatch =
        e.stage_delta[static_cast<std::size_t>(obs::PipeStage::kDispatch)];
    const auto issue =
        e.stage_delta[static_cast<std::size_t>(obs::PipeStage::kIssue)];
    const auto execute =
        e.stage_delta[static_cast<std::size_t>(obs::PipeStage::kExecute)];
    const auto writeback =
        e.stage_delta[static_cast<std::size_t>(obs::PipeStage::kWriteback)];
    EXPECT_EQ(issue, execute);
    if (issue != 0) {
      EXPECT_NE(dispatch, 0u);
    }
    if (writeback != 0) {
      EXPECT_NE(issue, 0u);
    }

    const auto t = static_cast<obs::PipeTerminal>(e.code);
    const bool commit = t == obs::PipeTerminal::kCommit;
    EXPECT_TRUE(commit || t == obs::PipeTerminal::kSquashMispredict ||
                t == obs::PipeTerminal::kSquashSyscall ||
                t == obs::PipeTerminal::kSquashSwap)
        << "unknown terminal " << static_cast<unsigned>(e.code);
    // A committed instruction went through the whole pipe.
    if (commit) {
      EXPECT_NE(writeback, 0u);
    }
  }
}

TEST(Pipeview, DetachScrubsInFlightSamples) {
  sim::Simulator s(pipeview_config("bal1", {{0, 64}}));
  obs::TraceSink sink;
  s.attach_trace(&sink);
  s.run(64);  // some samples opened, most still in flight
  s.attach_trace(nullptr);
  EXPECT_FALSE(s.pipeline().pipeview_active());
  const std::size_t recorded = sink.size();
  s.run(8 * 1024);  // in-flight instructions retire with no sink
  EXPECT_EQ(sink.size(), recorded);
}

}  // namespace
}  // namespace smt
