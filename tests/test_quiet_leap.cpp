// QuietLeap.*: run(N), which leaps over quiet spans in bulk, against N
// step() calls, which never leap. A quiet cycle is one in which no stage
// can act (Pipeline::quiet_span); a leap must leave exactly the state
// those cycles would have, so every case compares the whole
// export_metrics document plus every per-thread counter, and the trace
// cases compare the JSONL bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "common/rng.hpp"
#include "core/heuristics.hpp"
#include "obs/trace_sink.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"
#include "workload/app_profile.hpp"
#include "workload/mix.hpp"
#include "workload/thread_program.hpp"

namespace smt::sim {
namespace {

using test::stats_doc;

/// State the stats document leaves out but later cycles read: every
/// per-thread counter (the fetch policies' inputs), the DT's queue and
/// the policy.
std::string state_doc(const Simulator& sim) {
  const pipeline::Pipeline& p = sim.pipeline();
  std::ostringstream os;
  os << stats_doc(sim) << "now " << p.now() << " dt " << p.dt_work_remaining()
     << " policy " << static_cast<int>(p.policy()) << '\n';
  for (std::uint32_t tid = 0; tid < p.num_threads(); ++tid) {
    const pipeline::ThreadCounters& c = p.counters(tid);
    os << tid << ": " << c.icount << ' ' << c.brcount << ' ' << c.ldcount
       << ' ' << c.memcount << ' ' << c.l1d_outstanding << ' '
       << c.l1i_outstanding << ' ' << p.head_seq(tid);
    for (const pipeline::CounterMark& m :
         {pipeline::CounterMark{p.now(), c.total}, c.quantum_mark,
          c.load_mark}) {
      const pipeline::EventCounts& e = m.at;
      os << " | " << m.cycle << ' ' << e.committed << ' ' << e.fetched
         << ' ' << e.cond_branches << ' ' << e.mispredicts << ' '
         << e.l1d_misses << ' ' << e.l1i_misses << ' ' << e.lsq_full_events
         << ' ' << e.stalls;
    }
    os << '\n';
  }
  return os.str();
}

void step_n(Simulator& sim, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) sim.step();
}

/// Run `cfg` both ways for `cycles` and require identical documents and a
/// clean checker on both paths. Returns the cycles the leaping run leapt.
std::uint64_t expect_run_equals_steps(const SimConfig& cfg,
                                      std::uint64_t cycles) {
  Simulator leapt(cfg);
  Simulator stepped(cfg);
  leapt.run(cycles);
  step_n(stepped, cycles);
  EXPECT_EQ(state_doc(leapt), state_doc(stepped));
  EXPECT_EQ(stepped.pipeline().cycles_leapt(), 0u);
  EXPECT_TRUE(leapt.checker().ok()) << leapt.checker().violation_count();
  EXPECT_TRUE(stepped.checker().ok()) << stepped.checker().violation_count();
  return leapt.pipeline().cycles_leapt();
}

/// Fixed ICOUNT, or ADTS Type 3 @ 2 with a switch penalty and clogging
/// threads fetch-blocked: both detector actions write fetch_block_until,
/// one of the events a leap must stop at.
SimConfig mix_config(const std::string& mix, bool adts) {
  SimConfig cfg = make_config(workload::mix(mix), 8, 11);
  cfg.check = check::CheckMode::kOn;
  cfg.cpi = true;
  cfg.adts.quantum_cycles = 2048;
  if (adts) {
    cfg.use_adts = true;
    cfg.adts.heuristic = core::HeuristicType::kType3;
    cfg.adts.ipc_threshold = 2.0;
    cfg.adts.switch_penalty_cycles = 24;
    cfg.adts.enable_clog_control = true;
    cfg.adts.clog_block_cycles = 300;
  }
  return cfg;
}

TEST(QuietLeap, EveryMixFixedAndAdtsMatchesSteps) {
  for (const workload::Mix& m : workload::all_mixes()) {
    for (const bool adts : {false, true}) {
      SCOPED_TRACE(m.name + (adts ? " adts" : " fixed"));
      expect_run_equals_steps(mix_config(m.name, adts), 12288);
    }
  }
}

TEST(QuietLeap, LeapsHappenOnMem8) {
  // Guard against a vacuous suite: the memory-bound mix must leap.
  const std::uint64_t leapt =
      expect_run_equals_steps(mix_config("mem8", false), 12288);
  EXPECT_GT(leapt, 12288u / 10);
}

TEST(QuietLeap, RandomGeometriesMatchSteps) {
  Rng rng(0x5eedull);
  std::uint64_t leapt = 0;
  constexpr int kDraws = 220;
  for (int draw = 0; draw < kDraws; ++draw) {
    SCOPED_TRACE("draw " + std::to_string(draw));
    const SimConfig cfg = test::random_config(rng);
    // Three quanta at most, one at least.
    leapt += expect_run_equals_steps(cfg, 3 * cfg.adts.quantum_cycles / 2);
    if (HasFailure()) break;
  }
  EXPECT_GT(leapt, 0u);
}

TEST(QuietLeap, SplitRunsAndCopiesMatchOneRun) {
  for (const bool adts : {false, true}) {
    SCOPED_TRACE(adts ? "adts" : "fixed");
    SimConfig cfg = mix_config("mem8", adts);
    cfg.cpi = false;  // copies drop CPI accounting (observer contract)
    Simulator whole(cfg);
    whole.run(5000 + 7000);

    Simulator split(cfg);
    split.run(5000);
    Simulator copy = split;  // a snapshot between the two calls
    split.run(7000);
    copy.run(7000);
    Simulator stepped(cfg);
    step_n(stepped, 5000 + 7000);

    const std::string doc = state_doc(stepped);
    EXPECT_EQ(state_doc(whole), doc);
    EXPECT_EQ(state_doc(split), doc);
    EXPECT_EQ(state_doc(copy), doc);
  }
}

TEST(QuietLeap, ContextSwitchesBetweenRunsMatchSteps) {
  // swap_program squashes a thread and stalls its fetch; with CPI on,
  // the stall's first cycles are switch overhead (swap_stall_until) and
  // any longer fetch stall left over, such as an I-cache miss, is squash
  // recovery. Short penalties make the two differ.
  Rng rng(0xc0ffeeull);
  for (const char* mix : {"mem8", "ctrl8", "bal2"}) {
    SCOPED_TRACE(mix);
    const SimConfig cfg = mix_config(mix, false);
    Simulator leapt(cfg);
    Simulator stepped(cfg);
    for (int slice = 0; slice < 24; ++slice) {
      const std::uint64_t cycles = 100 + rng.below(400);
      leapt.run(cycles);
      step_n(stepped, cycles);
      const auto tid = static_cast<std::uint32_t>(
          rng.below(leapt.pipeline().num_threads()));
      const std::string app = cfg.apps[rng.below(cfg.apps.size())];
      const std::uint64_t seed = rng.next();
      const std::uint64_t penalty = rng.below(12);
      for (Simulator* s : {&leapt, &stepped}) {
        (void)s->pipeline().swap_program(
            tid, workload::ThreadProgram(workload::profile(app), tid, seed),
            penalty);
      }
    }
    EXPECT_EQ(state_doc(leapt), state_doc(stepped));
    EXPECT_GT(leapt.pipeline().cycles_leapt(), 0u);
    // A reset between two run() calls followed by a leap is one checker
    // span; its counter ceilings must cover the whole span.
    EXPECT_TRUE(leapt.checker().ok()) << leapt.checker().violation_count();
  }
}

TEST(QuietLeap, ExpiredIcacheStallIsClearedNotLeapt) {
  // A thread whose I-cache stall expires while it is fetch-blocked for
  // another reason still has its stall cleared in that cycle's fetch
  // stage. A leap must stop there, or l1i_outstanding (L1MISSCOUNT's
  // key) stays stale through the span.
  SimConfig cfg = mix_config("ctrl8", false);
  cfg.apps.resize(1);
  Simulator sim(cfg);
  for (int i = 0; i < 200000; ++i) {
    if (sim.pipeline().counters(0).l1i_outstanding != 0) break;
    sim.step();
  }
  ASSERT_EQ(sim.pipeline().counters(0).l1i_outstanding, 1)
      << "no I-cache miss to start from";
  sim.pipeline().block_fetch(0, sim.now() + 3000);
  Simulator leapt = sim;
  Simulator stepped = sim;
  for (int i = 0; i < 5; ++i) {
    leapt.run(500);
    step_n(stepped, 500);
    EXPECT_EQ(state_doc(leapt), state_doc(stepped)) << "after " << i + 1;
  }
  EXPECT_GT(leapt.pipeline().cycles_leapt(), 0u);
}

TEST(QuietLeap, TraceAndPipeviewBytesMatch) {
  for (const char* mix : {"mem8", "bal1"}) {
    for (const bool adts : {false, true}) {
      SCOPED_TRACE(std::string(mix) + (adts ? " adts" : " fixed"));
      SimConfig cfg = mix_config(mix, adts);
      cfg.pipeview = {{1000, 400}, {5000, 400}};
      Simulator leapt(cfg);
      Simulator stepped(cfg);
      obs::TraceSink leapt_sink;
      obs::TraceSink stepped_sink;
      leapt.attach_trace(&leapt_sink);
      stepped.attach_trace(&stepped_sink);
      leapt.run(10240);
      step_n(stepped, 10240);
      leapt.flush_trace();
      stepped.flush_trace();
      EXPECT_GT(leapt.pipeline().cycles_leapt(), 0u);
      EXPECT_GT(leapt.pipeline().pipeview_opened(), 0u);

      std::ostringstream a;
      std::ostringstream b;
      leapt_sink.write(a);
      stepped_sink.write(b);
      EXPECT_EQ(a.str(), b.str());
      EXPECT_EQ(state_doc(leapt), state_doc(stepped));
    }
  }
}

TEST(QuietLeap, PipelineRunMatchesSteps) {
  // Pipeline::run leaps as well, with no detector or quantum to stop at.
  for (const char* mix : {"mem8", "cache8", "ilp8"}) {
    SCOPED_TRACE(mix);
    const SimConfig cfg = mix_config(mix, false);
    Simulator a(cfg);
    Simulator b(cfg);
    a.pipeline().run(9000);
    for (int i = 0; i < 9000; ++i) b.pipeline().step();
    EXPECT_EQ(state_doc(a), state_doc(b));
  }
}

}  // namespace
}  // namespace smt::sim
