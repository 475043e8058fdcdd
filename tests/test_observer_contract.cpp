// The observer contract. Five observers read the simulated machine: the
// invariant checker, the trace sink, the pipeview sampler, the CPI stacks
// and the host profiler. All five rest on two rules:
//
//   - observation-only: attaching any of them never changes the simulated
//     run, so a run's whole stats document (minus the observers' own
//     keys) equals the bare run's, and the profiler (host time) never
//     reaches the trace;
//   - drop-on-copy: a copied or assigned simulator (every oracle trial)
//     carries none of them and runs silently, while the original stays
//     attached.
//
// ObserverContract.* holds all five to both rules at once, on every paper
// mix under fixed ICOUNT and ADTS Type 3, and on random machine
// configurations drawn from test_support.hpp's generator. The cases at
// the end hold one observer at a time to the same harness, under the
// observer's own suite name, so a broken contract names its observer.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <string_view>

#include "check/invariants.hpp"
#include "common/rng.hpp"
#include "core/heuristics.hpp"
#include "obs/cpi_stack.hpp"
#include "obs/trace_sink.hpp"
#include "pipeline/pipeline.hpp"
#include "policy/fetch_policy.hpp"
#include "prof/phase_profiler.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"
#include "workload/mix.hpp"

namespace smt::sim {
namespace {

using Profiler = prof::PhaseProfiler;

/// Observers attach mid-quantum, after a bare warm-up, so an attach that
/// touched the machine (a counter reset, a policy write) shows.
constexpr std::uint64_t kAttachAt = 3000;

/// The five observers, as bits of a set.
enum Observer : unsigned {
  kChecker = 1,
  kTrace = 2,
  kPipeview = 4,
  kCpi = 8,
  kProfiler = 16,
  kAllFive = 31,
};

/// `cfg` with the checker and the CPI stacks on exactly if in `observers`.
SimConfig with_config_observers(SimConfig cfg, unsigned observers) {
  cfg.check = (observers & kChecker) != 0 ? check::CheckMode::kOn
                                          : check::CheckMode::kOff;
  cfg.cpi = (observers & kCpi) != 0;
  return cfg;
}

/// The trace sink and profiler one observed simulator writes into.
struct Observers {
  obs::TraceSink sink;
  Profiler profiler;
};

/// Attach those of the sink, two pipeview windows and a stride-1 profiler
/// that are in `observers`. The windows go straight to the pipeline
/// rather than through cfg.pipeview, so run.config_digest stays the bare
/// run's.
void attach(Simulator& s, Observers& o, std::uint64_t cycles,
            unsigned observers) {
  if ((observers & kTrace) != 0) s.attach_trace(&o.sink);
  if ((observers & kPipeview) != 0) {
    s.pipeline().set_pipeview(
        &o.sink, {{s.now() + 256, 64}, {s.now() + cycles / 2, 64}},
        s.config().adts.quantum_cycles);
  }
  if ((observers & kProfiler) != 0) {
    s.attach_profiler(&o.profiler, Profiler::kRoot, 1);
  }
}

/// cpi.*, threads.N.cpi.* and trace.*: the keys the observers add.
bool is_observer_key(const std::string& key) {
  constexpr std::string_view kThreads = "threads.";
  if (key.starts_with("cpi.") || key.starts_with("trace.")) return true;
  if (!key.starts_with(kThreads)) return false;
  const std::size_t dot = key.find('.', kThreads.size());
  return dot != std::string::npos && key.compare(dot, 5, ".cpi.") == 0;
}

/// The flattened stats document; with `strip`, minus the observers' keys.
std::map<std::string, std::string> stats_keys(const Simulator& s,
                                              bool strip) {
  std::map<std::string, std::string> flat =
      test::flatten_json(test::stats_doc(s));
  if (strip) {
    std::erase_if(flat,
                  [](const auto& kv) { return is_observer_key(kv.first); });
  }
  return flat;
}

/// The keys on which two flattened documents differ ("" when equal), so
/// a failure names what moved instead of printing two documents.
std::string key_diff(const std::map<std::string, std::string>& a,
                     const std::map<std::string, std::string>& b) {
  std::string out = a.size() == b.size() ? "" : "key counts differ;";
  for (const auto& [key, value] : a) {
    const auto it = b.find(key);
    if (it == b.end() || it->second != value) {
      out += " " + key + ": " + value + " vs " +
             (it == b.end() ? "<absent>" : it->second) + ";";
    }
  }
  return out;
}

std::string jsonl(const obs::TraceSink& sink) {
  std::ostringstream os;
  sink.write(os);
  return os.str();
}

std::size_t rows_of(const obs::TraceSink& sink, obs::EventKind kind) {
  std::size_t n = 0;
  for (const obs::TraceEvent& e : sink.snapshot()) n += e.kind == kind;
  return n;
}

/// Calls timed so far, over every node of the profile.
std::uint64_t profiled_calls(const Profiler& p) {
  std::uint64_t n = 0;
  for (Profiler::Node i = 0; i < p.node_count(); ++i) n += p.count(i);
  return n;
}

/// What the five observers recorded, summed over observed runs.
struct Recorded {
  std::uint64_t checker_passes = 0;  ///< the checker's profiled passes
  std::uint64_t quantum_rows = 0;    ///< trace sink
  std::uint64_t pipeview_rows = 0;   ///< pipeview sampler
  std::uint64_t cpi_rows = 0;        ///< CPI stacks
  std::uint64_t fetch_stages = 0;    ///< profiled fetch stages
  std::uint64_t switches = 0;        ///< ADTS switches applied
  std::uint64_t audit_rows = 0;      ///< switch audits traced
};

/// Every observer in `observers` recorded something. The profiler counts
/// the checker's passes, and CPI rows reach the trace only through the
/// sink, so those two need their carrier attached too.
void expect_recorded(const Recorded& r, unsigned observers) {
  const auto has = [observers](unsigned set) {
    return (observers & set) == set;
  };
  if (has(kChecker | kProfiler)) {
    EXPECT_GT(r.checker_passes, 0u);
  }
  if (has(kTrace)) {
    EXPECT_GT(r.quantum_rows, 0u);
  }
  if (has(kPipeview)) {
    EXPECT_GT(r.pipeview_rows, 0u);
  }
  if (has(kCpi | kTrace)) {
    EXPECT_GT(r.cpi_rows, 0u);
  }
  if (has(kProfiler)) {
    EXPECT_GT(r.fetch_stages, 0u);
  }
}

/// Run `cfg` bare (no checker, no CPI stacks, nothing attached), observed
/// by `observers`, and observed by those but the profiler, for kAttachAt
/// + `cycles` cycles, hold the runs to the contract, and add what the
/// observers recorded to `tally`.
void expect_observation_only(const SimConfig& cfg, std::uint64_t cycles,
                             Recorded& tally, unsigned observers = kAllFive) {
  Simulator bare(with_config_observers(cfg, 0));
  Simulator full(with_config_observers(cfg, observers));
  Simulator unprofiled(full.config());
  Observers o_full;
  Observers o_unprofiled;
  for (Simulator* s : {&bare, &full, &unprofiled}) s->run(kAttachAt);
  attach(full, o_full, cycles, observers);
  attach(unprofiled, o_unprofiled, cycles, observers & ~kProfiler);
  for (Simulator* s : {&bare, &full, &unprofiled}) {
    s->run(cycles);
    s->flush_trace();
  }

  // Observation-only: the simulated run is the bare run, key for key,
  // and the bare run exports none of the observers' keys.
  EXPECT_FALSE(bare.checking_enabled());
  EXPECT_EQ(key_diff(stats_keys(bare, false), stats_keys(bare, true)), "");
  EXPECT_EQ(key_diff(stats_keys(full, true), stats_keys(bare, true)), "");
  // The profiler moves neither the observers' keys nor the trace bytes.
  EXPECT_EQ(key_diff(stats_keys(full, false), stats_keys(unprofiled, false)),
            "");
  EXPECT_TRUE(jsonl(o_full.sink) == jsonl(o_unprofiled.sink))
      << "the profiler changed the JSONL trace";

  // The observers' own laws hold on the observed run.
  const pipeline::Pipeline& p = full.pipeline();
  EXPECT_EQ(full.checking_enabled(), (observers & kChecker) != 0);
  EXPECT_TRUE(full.checker().ok()) << full.checker().violation_count()
                                   << " violations";
  EXPECT_EQ(p.cpi_cycles_accounted(),
            (observers & kCpi) != 0 ? full.now() : 0u);
  const std::uint32_t stacks = (observers & kCpi) != 0 ? p.num_threads() : 0;
  for (std::uint32_t tid = 0; tid < stacks; ++tid) {
    EXPECT_EQ(obs::conservation_gap(p.cpi_stack(tid), p.config().commit_width,
                                    p.cpi_cycles_accounted()),
              0u)
        << "tid " << tid;
  }
  EXPECT_EQ(p.charged_stall_slots() + p.stats().dt_slots_used,
            p.stats().fetch_slots_idle);

  // A clean checker pass leaves no trace; the profiler counts the passes.
  Profiler& prof = o_full.profiler;
  const Profiler::Node cycle = prof.child(Profiler::kRoot, "cycle");
  tally.checker_passes += prof.count(prof.child(cycle, "checker"));
  tally.quantum_rows += rows_of(o_full.sink, obs::EventKind::kQuantum);
  tally.pipeview_rows += rows_of(o_full.sink, obs::EventKind::kPipeview);
  tally.cpi_rows += rows_of(o_full.sink, obs::EventKind::kCpiStack);
  tally.fetch_stages +=
      prof.count(prof.child(prof.child(cycle, "pipeline"), "fetch"));
  tally.switches += full.detector().stats().switches;
  tally.audit_rows += rows_of(o_full.sink, obs::EventKind::kSwitchAudit);
}

SimConfig mix_config(const std::string& mix, bool adts) {
  SimConfig cfg = make_config(workload::mix(mix), 8, 2003);
  cfg.adts.quantum_cycles = 1024;
  cfg.use_adts = adts;
  cfg.adts.heuristic = core::HeuristicType::kType3;
  return cfg;
}

TEST(ObserverContract, EveryMixFixedAndAdtsRunsAsIfUnobserved) {
  std::uint64_t switches = 0;
  for (const workload::Mix& m : workload::all_mixes()) {
    for (const bool adts : {false, true}) {
      SCOPED_TRACE(m.name + (adts ? " adts" : " fixed"));
      Recorded r;
      expect_observation_only(mix_config(m.name, adts), 16 * 1024, r);
      expect_recorded(r, kAllFive);
      switches += r.switches;
    }
  }
  // The ADTS runs switched, so the switch paths were observed too.
  EXPECT_GT(switches, 0u);
}

TEST(ObserverContract, RandomConfigsRunAsIfUnobserved) {
  // Some draws wedge (an FP instruction with no FP unit, say) and leap
  // to the end without a stepped cycle, so the draws record together.
  Rng rng(0x0b5e7ull);
  Recorded all;
  for (int draw = 0; draw < 16; ++draw) {
    SCOPED_TRACE("draw " + std::to_string(draw));
    const SimConfig cfg = test::random_config(rng);
    expect_observation_only(cfg, 2 * cfg.adts.quantum_cycles, all);
    if (HasFailure()) break;
  }
  expect_recorded(all, kAllFive);
}

/// Copy and assign a simulator observed by `observers` and hold the
/// copies to drop-on-copy: they carry no observer at all and run
/// silently through the oracle's copy -> set_policy -> re-run pattern,
/// while the original keeps its observers and stays clean.
void expect_copies_carry_none(unsigned observers) {
  const SimConfig cfg =
      with_config_observers(mix_config("bal1", /*adts=*/true), observers);
  const auto has = [observers](unsigned o) { return (observers & o) != 0; };
  Simulator original(cfg);
  Observers o;
  original.run(kAttachAt);
  // The second pipeview window opens after the copies are taken, so a
  // copy that kept the sampler would write into the original's sink.
  attach(original, o, 8192, observers);
  original.run(1024);
  const std::size_t recorded = o.sink.size();
  const std::uint64_t calls = profiled_calls(o.profiler);
  if (has(kTrace | kPipeview)) {
    ASSERT_GT(recorded, 0u);
  }
  if (has(kProfiler)) {
    ASSERT_GT(calls, 0u);
  }

  Simulator copy(original);
  Simulator assigned(cfg);  // observed like the original until assigned over
  assigned = original;
  for (Simulator* c : {&copy, &assigned}) {
    EXPECT_FALSE(c->checking_enabled());
    EXPECT_EQ(c->trace_sink(), nullptr);
    EXPECT_FALSE(c->pipeline().pipeview_active());
    EXPECT_FALSE(c->pipeline().cpi_accounting());
    EXPECT_EQ(c->pipeline().cpi_cycles_accounted(), 0u);
    // The oracle's pattern: set a policy directly, then re-run. A live
    // checker would flag the direct set; the copy has none.
    c->pipeline().set_policy(policy::FetchPolicy::kBrcount);
    c->run(8192);
    EXPECT_TRUE(c->checker().ok());
    EXPECT_EQ(c->pipeline().cpi_cycles_accounted(), 0u);
  }
  // Silent: neither copy reached the original's sink or profiler.
  EXPECT_EQ(o.sink.size(), recorded);
  EXPECT_EQ(profiled_calls(o.profiler), calls);

  // The original keeps its observers and stays clean.
  EXPECT_EQ(original.checking_enabled(), has(kChecker));
  EXPECT_EQ(original.trace_sink(), has(kTrace) ? &o.sink : nullptr);
  EXPECT_EQ(original.pipeline().pipeview_active(), has(kPipeview));
  EXPECT_EQ(original.pipeline().cpi_accounting(), has(kCpi));
  original.run(8192);
  if (has(kTrace | kPipeview)) {
    EXPECT_GT(o.sink.size(), recorded);
  }
  if (has(kPipeview)) {
    EXPECT_GT(rows_of(o.sink, obs::EventKind::kPipeview), 64u);
  }
  if (has(kProfiler)) {
    EXPECT_GT(profiled_calls(o.profiler), calls);
  }
  EXPECT_EQ(original.pipeline().cpi_cycles_accounted(),
            has(kCpi) ? original.now() : 0u);
  EXPECT_TRUE(original.checker().ok());
}

TEST(ObserverContract, CopiesCarryNoObserver) {
  expect_copies_carry_none(kAllFive);
}

// One observer at a time, each under its own suite, so a contract
// failure above names the observer that broke it.

/// `observer` alone on `mix` under ADTS: the run is the bare run, and
/// the observer recorded something.
Recorded expect_alone_observation_only(unsigned observer,
                                       const std::string& mix) {
  Recorded r;
  expect_observation_only(mix_config(mix, /*adts=*/true), 16 * 1024, r,
                          observer);
  expect_recorded(r, observer);
  return r;
}

TEST(InvariantChecker, CheckedRunIsBitIdenticalToUnchecked) {
  expect_alone_observation_only(kChecker, "ctrl8");
}

TEST(InvariantChecker, CopiesDropChecking) {
  expect_copies_carry_none(kChecker);
}

TEST(CpiStack, AccountingIsObservationOnly) {
  expect_alone_observation_only(kCpi, "bal1");
}

TEST(CpiStack, WholeRunConservationAcrossMixes) {
  // The conservation laws are checked inside, on fixed and ADTS runs.
  for (const char* mix : {"bal1", "mem8", "ilp8", "ctrl8"}) {
    for (const bool adts : {false, true}) {
      SCOPED_TRACE(std::string(mix) + (adts ? " adts" : " fixed"));
      Recorded r;
      expect_observation_only(mix_config(mix, adts), 16 * 1024, r, kCpi);
    }
  }
}

TEST(CpiStack, CopiesDropTheAccounting) { expect_copies_carry_none(kCpi); }

TEST(Pipeview, SamplingDoesNotPerturbTheSimulatedMachine) {
  expect_alone_observation_only(kPipeview, "mem8");
}

TEST(Pipeview, CopiedSimulatorDropsTheSampler) {
  expect_copies_carry_none(kPipeview);
}

TEST(SimulatorTrace, AttachingASinkDoesNotPerturbTheRun) {
  expect_alone_observation_only(kTrace, "mem8");
}

TEST(SimulatorTrace, CopiedSimulatorDropsTheSink) {
  expect_copies_carry_none(kTrace);
}

TEST(SwitchAuditIntegration, AuditingDoesNotPerturbAdtsDecisions) {
  // The run switched and traced its audits, and still decided like the
  // bare run (every adts.* and audit.* key is in the compared document).
  const Recorded r = expect_alone_observation_only(kTrace, "bal1");
  EXPECT_GT(r.switches, 0u);
  EXPECT_GT(r.audit_rows, 0u);
}

}  // namespace
}  // namespace smt::sim
