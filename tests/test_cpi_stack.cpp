// Property tests: per-slot commit-loss accounting (obs::CpiStack
// maintained by Pipeline::account_cpi).
//
// The load-bearing property is conservation: every commit slot of every
// accounted cycle, for every thread, is charged to exactly one CpiCause —
// committed work or a specific loss — never lost, never double-counted.
// The two sub-breakdowns (ROB-empty by fetch stall cause, FU contention
// by holder thread) must each sum to their parent bucket. Whole-run
// conservation on every mix, and the observer contract (accounting never
// perturbs the run; copies drop it), are tests/test_observer_contract.cpp.
#include <gtest/gtest.h>

#include <sstream>

#include "obs/cpi_stack.hpp"
#include "obs/stall.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_read.hpp"
#include "obs/trace_sink.hpp"
#include "sim/simulator.hpp"
#include "workload/app_profile.hpp"
#include "workload/mix.hpp"

namespace smt::pipeline {
namespace {

sim::SimConfig quick_sim(const char* mix_name, bool adts = false) {
  sim::SimConfig cfg = sim::make_config(workload::mix(mix_name), 8, 2003);
  cfg.adts.quantum_cycles = 1024;
  cfg.use_adts = adts;
  cfg.cpi = true;
  return cfg;
}

std::uint64_t gap_of(const Pipeline& p, std::uint32_t tid) {
  return obs::conservation_gap(p.cpi_stack(tid), p.config().commit_width,
                               p.cpi_cycles_accounted());
}

TEST(CpiStack, PerCycleConservation) {
  sim::Simulator s(quick_sim("mem8", /*adts=*/true));
  const std::uint64_t width = s.pipeline().config().commit_width;
  const std::uint32_t n = s.pipeline().num_threads();
  std::vector<std::uint64_t> prev(n, 0);
  for (int cycle = 0; cycle < 4096; ++cycle) {
    s.step();
    for (std::uint32_t tid = 0; tid < n; ++tid) {
      const std::uint64_t total = s.pipeline().cpi_stack(tid).total();
      ASSERT_EQ(total - prev[tid], width) << "cycle " << cycle << " tid "
                                          << tid;
      prev[tid] = total;
      ASSERT_EQ(gap_of(s.pipeline(), tid), 0u) << "cycle " << cycle;
    }
  }
}

// One firing negative per cause class: perturbing any single bucket by a
// single slot must make conservation_gap nonzero — the invariant has no
// blind spot a mischarge could hide in.
TEST(CpiStack, CorruptingAnyCauseFiresTheConservationGap) {
  for (std::size_t cause = 0; cause < obs::kNumCpiCauses; ++cause) {
    sim::Simulator s(quick_sim("bal1"));
    s.run(2048);
    ASSERT_EQ(gap_of(s.pipeline(), 1), 0u) << "cause " << cause;
    s.pipeline().testing_corrupt_cpi(1, cause, 1);
    EXPECT_GT(gap_of(s.pipeline(), 1), 0u)
        << "cause "
        << name(static_cast<obs::CpiCause>(cause))
        << " absorbed a phantom slot";
  }
}

TEST(CpiStack, CommonCausesFireOnTheirNaturalMixes) {
  using obs::CpiCause;
  // Memory-bound co-runners: long-latency loads dominate, queues fill.
  {
    sim::Simulator s(quick_sim("mem8"));
    s.run(16 * 1024);
    const obs::CpiStack& st = s.pipeline().cpi_stack(0);
    EXPECT_GT(st[CpiCause::kCommitted], 0u);
    EXPECT_GT(st[CpiCause::kMemLatency], 0u);
    EXPECT_GT(st[CpiCause::kStructuralFull], 0u);
    EXPECT_GT(st[CpiCause::kRobEmpty], 0u);
    EXPECT_GT(st[CpiCause::kDepWait], 0u);
  }
  // Control-bound: mispredict squashes cost recovery cycles.
  {
    sim::Simulator s(quick_sim("ctrl8"));
    s.run(16 * 1024);
    std::uint64_t squash = 0;
    for (std::uint32_t tid = 0; tid < 8; ++tid) {
      squash += s.pipeline().cpi_stack(tid)[CpiCause::kSquashRecovery];
    }
    EXPECT_GT(squash, 0u);
  }
}

TEST(CpiStack, ContentionIsAttributedToCoRunners) {
  sim::Simulator s(quick_sim("ilp8"));
  s.run(16 * 1024);
  std::uint64_t contention = 0;
  std::uint64_t cross_thread = 0;
  for (std::uint32_t tid = 0; tid < 8; ++tid) {
    const obs::CpiStack& st = s.pipeline().cpi_stack(tid);
    contention += st[obs::CpiCause::kFuContention];
    cross_thread += st.contend.total() - st.contend[tid];
    // The holder breakdown is exactly the contention bucket.
    EXPECT_EQ(st.contend.total(), st[obs::CpiCause::kFuContention])
        << "tid " << tid;
  }
  // ILP-heavy co-runners saturate the ALUs: contention exists and is
  // mostly charged to *other* threads (the symbiosis signal).
  EXPECT_GT(contention, 0u);
  EXPECT_GT(cross_thread, 0u);
}

TEST(CpiStack, FetchBlackoutDrainsIntoSwitchOverhead) {
  sim::Simulator s(quick_sim("ilp8"));
  s.run(1024);
  const std::uint64_t before =
      s.pipeline().cpi_stack(3)[obs::CpiCause::kSwitchOverhead];
  // A long externally-imposed fetch blackout (what a context-switch or
  // DT-induced blackout looks like) drains the window; the empty-window
  // slots must be charged to switch overhead, not generic ROB-empty.
  s.pipeline().block_fetch(3, s.now() + 2048);
  s.run(2048);
  const std::uint64_t after =
      s.pipeline().cpi_stack(3)[obs::CpiCause::kSwitchOverhead];
  EXPECT_GT(after, before);
}

TEST(CpiStack, RobEmptyBreaksDownByFetchCause) {
  sim::Simulator s(quick_sim("mem8"));
  s.run(16 * 1024);
  std::uint64_t icache = 0;
  for (std::uint32_t tid = 0; tid < 8; ++tid) {
    icache +=
        s.pipeline().cpi_stack(tid).rob_empty_by[obs::StallCause::kIcacheMiss];
  }
  // Cold instruction caches starve the window early in every run.
  EXPECT_GT(icache, 0u);
}

TEST(CpiStack, TraceRowsSumToThePipelineStacks) {
  sim::Simulator s(quick_sim("mem8"));
  obs::TraceSink sink;
  s.attach_trace(&sink);
  // An exact multiple of the quantum, so the final boundary snapshot
  // lands on the last cycle and the rows tile the whole run.
  s.run(8 * 1024);
  s.flush_trace();
  std::stringstream ss;
  sink.write(ss);
  const obs::ReadTrace trace = obs::read_trace(ss);

  std::array<obs::CpiStack, obs::kCpiMaxThreads> sums{};
  std::array<std::uint64_t, obs::kCpiMaxThreads> spans{};
  std::size_t rows = 0;
  for (const obs::TraceEvent& e : trace.events) {
    if (e.kind != obs::EventKind::kCpiStack) continue;
    ++rows;
    ASSERT_GE(e.tid, 0);
    ASSERT_EQ(e.value, s.pipeline().config().commit_width);
    sums[static_cast<std::size_t>(e.tid)] += obs::decode_cpi_stack(e);
    spans[static_cast<std::size_t>(e.tid)] += e.span;
  }
  ASSERT_EQ(rows, 8u * 8u);  // 8 quanta × 8 threads
  for (std::uint32_t tid = 0; tid < 8; ++tid) {
    EXPECT_EQ(spans[tid], s.pipeline().cpi_cycles_accounted());
    EXPECT_EQ(sums[tid], s.pipeline().cpi_stack(tid)) << "tid " << tid;
    // And each decoded row set preserves conservation.
    EXPECT_EQ(obs::conservation_gap(sums[tid],
                                    s.pipeline().config().commit_width,
                                    spans[tid]),
              0u);
  }
}

TEST(CpiStack, StacksSurviveQuantumCounterResets) {
  // Like the stall breakdown and the event totals, the stacks are
  // pipeline-lifetime monotone: the detector's boundary marks must not
  // clear them, or per-quantum trace deltas (plain differencing) would
  // break.
  sim::Simulator s(quick_sim("bal1"));
  s.run(2048);
  const std::uint64_t before = s.pipeline().cpi_stack(0).total();
  ASSERT_GT(before, 0u);
  s.pipeline().mark_quantum();
  EXPECT_EQ(s.pipeline().cpi_stack(0).total(), before);
  EXPECT_EQ(gap_of(s.pipeline(), 0), 0u);
}

// The row codec (obs/trace_event.hpp) decides what a row's slot arrays
// hold. Ledgers written into quantum, thread_quantum and cpi_stack rows
// come back equal through the JSONL trace, and a cpi_stack row's
// rob_empty_by (commit slots) never decodes as lost fetch slots.
TEST(CpiStack, RowCodecRoundTripsTheSlotLedgers) {
  constexpr std::uint32_t kTid = 2;
  sim::Simulator s(quick_sim("mem8"));
  const Pipeline& p = s.pipeline();
  s.run(1024);
  const obs::StallBreakdown machine0 = p.machine_stall_breakdown();
  const obs::StallBreakdown thread0 = p.stall_breakdown(kTid);
  const obs::CpiStack cpi0 = p.cpi_stack(kTid);
  const std::uint64_t cycles0 = p.cpi_cycles_accounted();
  s.run(1024);
  const obs::StallBreakdown machine = p.machine_stall_breakdown() - machine0;
  const obs::StallBreakdown thread = p.stall_breakdown(kTid) - thread0;
  const obs::CpiStack cpi = p.cpi_stack(kTid) - cpi0;
  ASSERT_GT(thread.total(), 0u);
  ASSERT_GT(cpi.rob_empty_by.total(), 0u);
  ASSERT_GT(cpi.contend.total(), 0u);

  // a + (b − a) == b, on every part of the stack.
  obs::StallBreakdown thread_sum = thread0;
  thread_sum += thread;
  EXPECT_EQ(thread_sum, p.stall_breakdown(kTid));
  obs::CpiStack cpi_sum = cpi0;
  cpi_sum += cpi;
  EXPECT_EQ(cpi_sum, p.cpi_stack(kTid));

  obs::TraceSink sink;
  obs::TraceEvent q;
  q.kind = obs::EventKind::kQuantum;
  obs::encode_row(machine, q);
  sink.record(q);
  obs::TraceEvent t;
  t.kind = obs::EventKind::kThreadQuantum;
  t.tid = kTid;
  obs::encode_row(thread, t);
  sink.record(t);
  obs::TraceEvent c;
  c.kind = obs::EventKind::kCpiStack;
  c.tid = kTid;
  c.span = p.cpi_cycles_accounted() - cycles0;
  c.value = p.config().commit_width;
  obs::encode_row(cpi, c);
  sink.record(c);
  std::stringstream ss;
  sink.write(ss);
  const obs::ReadTrace trace = obs::read_trace(ss);
  ASSERT_EQ(trace.events.size(), 3u);
  const obs::TraceEvent& rq = trace.events[0];
  const obs::TraceEvent& rt = trace.events[1];
  const obs::TraceEvent& rc = trace.events[2];

  EXPECT_EQ(obs::decode_fetch_stalls(rq), machine);
  EXPECT_EQ(obs::decode_fetch_stalls(rt), thread);
  EXPECT_EQ(obs::decode_cpi_stack(rc), cpi);
  // Each row carries one kind of ledger only.
  EXPECT_EQ(obs::decode_cpi_stack(rq), obs::CpiStack{});
  EXPECT_EQ(obs::decode_cpi_stack(rt), obs::CpiStack{});
  EXPECT_EQ(obs::decode_fetch_stalls(rc), obs::StallBreakdown{});
  EXPECT_EQ(obs::conservation_gap(obs::decode_cpi_stack(rc), rc.value,
                                  rc.span),
            0u);
}

}  // namespace
}  // namespace smt::pipeline
