// Per-layer probes of a traced run. Each probe drives one layer through
// its public calls, on the workload's own mixes and a seed derived from
// the workload seed, and reports host time per call or simulated counts.
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "branch/predictor.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "isa/instruction.hpp"
#include "mem/hierarchy.hpp"
#include "obs/cpi_stack.hpp"
#include "obs/trace_sink.hpp"
#include "pipeline/counters.hpp"
#include "policy/fetch_policy.hpp"
#include "prof/host_clock.hpp"
#include "prof/phase_profiler.hpp"
#include "sim/oracle.hpp"
#include "sim/simulator.hpp"
#include "workload/app_profile.hpp"
#include "workload/mix.hpp"
#include "workload/thread_program.hpp"

namespace perfbench {

namespace {

using smt::sim::SimConfig;
using smt::sim::Simulator;
using Node = smt::prof::PhaseProfiler::Node;

constexpr std::uint64_t kQuantum = 8192;
constexpr std::uint64_t kProfStride = 64;
constexpr int kRepeats = 5;

/// Salts that keep each probe's seeds apart from the timed units'.
constexpr std::uint64_t kSaltPipeline = 0x70726f6265ull;
constexpr std::uint64_t kSaltSynth = 0x73796e7468ull;
constexpr std::uint64_t kSaltObserver = 0x6f6273ull;

SimConfig probe_config(const std::string& mix, std::uint64_t seed, bool adts) {
  SimConfig cfg = smt::sim::make_config(smt::workload::mix(mix), 8, seed);
  cfg.check = smt::check::CheckMode::kOff;
  cfg.use_adts = adts;
  return cfg;
}

template <typename Fn>
double time_ns(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return static_cast<double>(now_ns() - t0);
}

// --- pipeline, core, mem/branch counts: profiled CPI runs -------------------

struct PipelineTotals {
  std::array<double, 5> stage_ns{};  // fetch, dispatch, issue, complete, commit
  double cycle_ns = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t committed = 0;
  std::uint64_t fetched = 0;
  std::uint64_t wrong_path = 0;
  std::uint64_t idle_slots = 0;
  std::uint64_t fetch_slots = 0;
  std::array<std::uint64_t, smt::obs::kNumCpiCauses> cpi{};
  std::uint64_t cpi_total = 0;
  std::uint64_t l1d_miss = 0, l1d_acc = 0, l1i_miss = 0, l1i_acc = 0;
  std::uint64_t l2_miss = 0, l2_acc = 0;
  std::uint64_t bp_lookups = 0, bp_miss = 0;
  // ADTS runs only.
  double detector_ns = 0.0;
  std::uint64_t quanta = 0, adts_cycles = 0, switches = 0, benign = 0,
                malignant = 0;
};

struct CacheCounts {
  std::uint64_t miss = 0, acc = 0;
};
CacheCounts counts(const smt::mem::Cache& c) {
  return {c.misses(), c.hits() + c.misses()};
}

void profiled_run(const std::string& mix, std::uint64_t seed, bool adts,
                  bool own, std::uint64_t cycles, PipelineTotals& t,
                  std::vector<smt::pipeline::ThreadCounters>& counters,
                  Report& r) {
  SimConfig cfg = probe_config(mix, seed, adts);
  cfg.cpi = true;
  Simulator sim(cfg);
  sim.set_adts_active(false);
  sim.run(kQuantum);
  sim.set_adts_active(adts);

  const smt::pipeline::Pipeline& pipe = sim.pipeline();
  const smt::pipeline::PipelineStats s0 = pipe.stats();
  const CacheCounts d0 = counts(pipe.memory().l1d());
  const CacheCounts i0 = counts(pipe.memory().l1i());
  const CacheCounts l20 = counts(pipe.memory().l2());
  const smt::branch::PredictorStats b0 = pipe.predictor().stats();
  const smt::core::AdtsStats a0 = sim.detector().stats();
  std::vector<smt::obs::CpiStack> cpi0;
  for (std::uint32_t tid = 0; tid < pipe.num_threads(); ++tid) {
    cpi0.push_back(pipe.cpi_stack(tid));
  }

  smt::prof::PhaseProfiler prof;
  const Node root = prof.child(smt::prof::PhaseProfiler::kRoot, "probe");
  {
    const SpanScope span("sim.run", "sim", 0, 0);
    sim.attach_profiler(&prof, root, kProfStride);
    sim.run(cycles);
    sim.attach_profiler(nullptr, 0, 1);
  }

  // The conservation laws hold for every run, profiled or not.
  const smt::pipeline::PipelineStats& s1 = pipe.stats();
  r.check(pipe.charged_stall_slots() + s1.dt_slots_used == s1.fetch_slots_idle,
          "stall conservation gap on " + mix + (adts ? " (adts)" : ""));
  std::uint64_t gap = 0;
  for (std::uint32_t tid = 0; tid < pipe.num_threads(); ++tid) {
    gap += smt::obs::conservation_gap(pipe.cpi_stack(tid),
                                      cfg.machine.commit_width,
                                      pipe.cpi_cycles_accounted());
    counters.push_back(pipe.counters(tid));
  }
  r.check(gap == 0, "CPI conservation gap on " + mix + (adts ? " (adts)" : ""));

  const Node cycle = prof.child(root, "cycle");
  const Node pl = prof.child(cycle, "pipeline");
  const double scale = prof.count(cycle) > 0
                           ? static_cast<double>(cycles) /
                                 static_cast<double>(prof.count(cycle))
                           : 0.0;
  const auto est_ns = [&](Node n) {
    const std::uint64_t ns = smt::prof::ticks_to_ns(prof.inclusive_ticks(n));
    return static_cast<double>(ns) * scale;
  };

  if (adts) {
    const smt::core::AdtsStats& a1 = sim.detector().stats();
    t.detector_ns += est_ns(prof.child(cycle, "detector"));
    t.quanta += cycles / kQuantum;
    t.adts_cycles += cycles;
    t.switches += a1.switches - a0.switches;
    t.benign += a1.benign_switches - a0.benign_switches;
    t.malignant += a1.malignant_switches - a0.malignant_switches;
  }
  if (!own) return;

  static constexpr std::array<const char*, 5> kStages = {
      "fetch", "dispatch", "issue", "complete", "commit"};
  for (std::size_t i = 0; i < kStages.size(); ++i) {
    t.stage_ns[i] += est_ns(prof.child(pl, kStages[i]));
  }
  t.cycle_ns += est_ns(cycle);
  t.cycles += cycles;
  t.committed += s1.committed - s0.committed;
  t.fetched += s1.fetched - s0.fetched;
  t.wrong_path += s1.fetched_wrong_path - s0.fetched_wrong_path;
  t.idle_slots += s1.fetch_slots_idle - s0.fetch_slots_idle;
  t.fetch_slots += cycles * cfg.machine.fetch_width;
  for (std::uint32_t tid = 0; tid < pipe.num_threads(); ++tid) {
    const smt::obs::CpiStack& c = pipe.cpi_stack(tid);
    for (std::size_t k = 0; k < t.cpi.size(); ++k) {
      const std::uint64_t d = c.slots[k] - cpi0[tid].slots[k];
      t.cpi[k] += d;
      t.cpi_total += d;
    }
  }
  const CacheCounts d1 = counts(pipe.memory().l1d());
  const CacheCounts i1 = counts(pipe.memory().l1i());
  const CacheCounts l21 = counts(pipe.memory().l2());
  t.l1d_miss += d1.miss - d0.miss;
  t.l1d_acc += d1.acc - d0.acc;
  t.l1i_miss += i1.miss - i0.miss;
  t.l1i_acc += i1.acc - i0.acc;
  t.l2_miss += l21.miss - l20.miss;
  t.l2_acc += l21.acc - l20.acc;
  const smt::branch::PredictorStats& b1 = pipe.predictor().stats();
  t.bp_lookups += b1.lookups - b0.lookups;
  t.bp_miss += b1.mispredicts - b0.mispredicts;
}

void pipeline_probe(const ProbeContext& ctx, Report& r,
                    std::vector<smt::pipeline::ThreadCounters>& counters) {
  // Single-mix workloads get a longer window so every ratio rests on a
  // comparable number of sampled cycles.
  const std::uint64_t cycles =
      ctx.mixes.size() > 1 ? 4 * kQuantum : 8 * kQuantum;
  PipelineTotals t;
  for (const std::string& mix : ctx.mixes) {
    const std::uint64_t seed = smt::mix64(ctx.seed ^ kSaltPipeline);
    profiled_run(mix, seed, false, true, cycles, t, counters, r);
    profiled_run(mix, seed, true, ctx.adts, cycles, t, counters, r);
  }
  static constexpr std::array<const char*, 5> kNames = {
      "pipeline.fetch_ns_per_instr", "pipeline.dispatch_ns_per_instr",
      "pipeline.issue_ns_per_instr", "pipeline.complete_ns_per_instr",
      "pipeline.commit_ns_per_instr"};
  const auto committed = static_cast<double>(t.committed);
  for (std::size_t i = 0; i < kNames.size(); ++i) {
    r.set(kNames[i], ratio(t.stage_ns[i], committed), "ns",
          t.cycles / kProfStride);
  }
  r.set("pipeline.ns_per_cycle",
        ratio(t.cycle_ns, static_cast<double>(t.cycles)), "ns",
        t.cycles / kProfStride);
  const auto share = [&](smt::obs::CpiCause c) {
    return ratio(t.cpi[static_cast<std::size_t>(c)], t.cpi_total);
  };
  using smt::obs::CpiCause;
  r.set("pipeline.cpi.mem_latency_share", share(CpiCause::kMemLatency), "ratio",
        t.cpi_total);
  r.set("pipeline.cpi.fu_contention_share", share(CpiCause::kFuContention),
        "ratio", t.cpi_total);
  r.set("pipeline.cpi.squash_recovery_share", share(CpiCause::kSquashRecovery),
        "ratio", t.cpi_total);
  r.set("pipeline.cpi.committed_share", share(CpiCause::kCommitted), "ratio",
        t.cpi_total);
  r.set("pipeline.ipc", ratio(t.committed, t.cycles), "instr/cycle", t.cycles);
  r.set("pipeline.wrong_path_frac", ratio(t.wrong_path, t.fetched), "ratio",
        t.fetched);
  r.set("pipeline.fetch_idle_frac", ratio(t.idle_slots, t.fetch_slots), "ratio",
        t.fetch_slots);
  r.set("mem.l1d_miss_rate", ratio(t.l1d_miss, t.l1d_acc), "ratio", t.l1d_acc);
  r.set("mem.l1i_miss_rate", ratio(t.l1i_miss, t.l1i_acc), "ratio", t.l1i_acc);
  r.set("mem.l2_miss_rate", ratio(t.l2_miss, t.l2_acc), "ratio", t.l2_acc);
  r.set("branch.mispredict_rate", ratio(t.bp_miss, t.bp_lookups), "ratio",
        t.bp_lookups);
  r.set("core.detector_ns_per_quantum",
        ratio(t.detector_ns, static_cast<double>(t.quanta)), "ns", t.quanta);
  r.set("core.switches_per_mcycle",
        ratio(1e6 * static_cast<double>(t.switches),
              static_cast<double>(t.adts_cycles)),
        "1/Mcycle", t.quanta);
  r.set("core.benign_frac", ratio(t.benign, t.benign + t.malignant), "ratio",
        t.benign + t.malignant);
}

// --- workload synthesis, then mem/branch replays of its output --------------

struct StreamCapture {
  struct Data {
    std::uint32_t tid;
    std::uint64_t addr;
    bool write;
  };
  struct Branch {
    std::uint32_t tid;
    std::uint64_t pc;
    std::uint64_t target;
    bool taken;
  };
  std::vector<Data> data;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> pcs;
  std::vector<Branch> branches;
};

void synthesis_probe(const ProbeContext& ctx, Report& r, StreamCapture& cap) {
  // A fresh seed per repeat keys new memo-cache entries, so every next()
  // below runs on a cold cache and pays for synthesis.
  const std::uint64_t per_thread = ctx.mixes.size() > 1 ? 8192 : 32768;
  std::vector<double> ns_per_instr;
  std::uint64_t instrs = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const std::uint64_t seed = smt::mix64(ctx.seed ^ kSaltSynth ^ (rep + 1));
    double ns = 0.0;
    std::uint64_t n = 0;
    for (const std::string& mix : ctx.mixes) {
      const SimConfig cfg = probe_config(mix, seed, false);
      for (std::uint32_t tid = 0; tid < cfg.apps.size(); ++tid) {
        smt::workload::ThreadProgram prog(smt::workload::profile(cfg.apps[tid]),
                                          tid, seed);
        std::vector<smt::isa::Instruction> out(per_thread);
        std::vector<std::uint64_t> pcs(per_thread);
        {
          const SpanScope span("workload.next", "workload", 0, 0);
          ns += time_ns([&] {
            for (std::uint64_t i = 0; i < per_thread; ++i) {
              pcs[i] = prog.pc();
              out[i] = prog.next();
            }
          });
        }
        n += per_thread;
        if (rep != 0) continue;
        for (std::uint64_t i = 0; i < per_thread; ++i) {
          const smt::isa::Instruction& in = out[i];
          cap.pcs.emplace_back(tid, pcs[i]);
          if (smt::isa::is_mem(in.cls)) {
            cap.data.push_back(
                {tid, in.mem_addr, in.cls == smt::isa::InstrClass::kStore});
          } else if (in.cls == smt::isa::InstrClass::kBranch) {
            cap.branches.push_back({tid, pcs[i], in.branch_target, in.taken});
          }
        }
      }
    }
    ns_per_instr.push_back(ns / static_cast<double>(n));
    instrs += n;
  }
  r.set("workload.synth_ns_per_instr", median(ns_per_instr), "ns", instrs);
}

void mem_branch_probe(const StreamCapture& cap, Report& r) {
  const smt::pipeline::PipelineConfig machine{};
  std::vector<double> data_ns, instr_ns, bp_ns;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    {
      smt::mem::Hierarchy h(machine.memory);
      const SpanScope span("mem.lookup_data", "mem", 0, 0);
      data_ns.push_back(time_ns([&] {
        for (const auto& d : cap.data) {
          sink += h.lookup_data(d.tid, d.addr, d.write).latency;
        }
      }) / static_cast<double>(cap.data.size()));
    }
    {
      smt::mem::Hierarchy h(machine.memory);
      const SpanScope span("mem.lookup_instr", "mem", 0, 0);
      instr_ns.push_back(time_ns([&] {
        for (const auto& [tid, pc] : cap.pcs) {
          sink += h.lookup_instr(tid, pc).latency;
        }
      }) / static_cast<double>(cap.pcs.size()));
    }
    {
      smt::branch::Predictor bp(machine.predictor);
      const SpanScope span("branch.predict_update", "branch", 0, 0);
      bp_ns.push_back(time_ns([&] {
        for (const auto& b : cap.branches) {
          const bool p = bp.predict(b.tid, b.pc);
          bp.update(b.tid, b.pc, b.taken, b.target, p != b.taken);
          sink += p;
        }
      }) / static_cast<double>(cap.branches.size()));
    }
  }
  r.set("mem.lookup_data_ns", median(data_ns), "ns",
        kRepeats * cap.data.size());
  r.set("mem.lookup_instr_ns", median(instr_ns), "ns",
        kRepeats * cap.pcs.size());
  r.set("branch.predict_update_ns", median(bp_ns), "ns",
        kRepeats * cap.branches.size());
  keep(sink);
}

void policy_probe(const std::vector<smt::pipeline::ThreadCounters>& counters,
                  Report& r) {
  const auto& policies = smt::policy::all_policies();
  constexpr int kSweeps = 2000;
  std::vector<double> ns;
  double sink = 0.0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const SpanScope span("policy.priority_key", "policy", 0, 0);
    ns.push_back(time_ns([&] {
      for (int s = 0; s < kSweeps; ++s) {
        for (const smt::policy::FetchPolicy p : policies) {
          for (std::size_t i = 0; i < counters.size(); ++i) {
            sink += smt::policy::priority_key(
                p, counters[i], static_cast<std::uint32_t>(i % 8), 8,
                static_cast<std::uint64_t>(s));
          }
        }
      }
    }) / static_cast<double>(kSweeps * policies.size() * counters.size()));
  }
  r.set("policy.priority_key_ns", median(ns), "ns",
        kRepeats * kSweeps * policies.size() * counters.size());
  keep(static_cast<std::uint64_t>(sink));
}

void copy_probe(const ProbeContext& ctx, Report& r) {
  constexpr int kCopies = 40;
  std::vector<double> us;
  std::uint64_t sink = 0;
  for (int i = 0; i < kCopies; ++i) {
    const SpanScope span("sim.copy", "sim", 0, 0);
    us.push_back(time_ns([&] {
      const Simulator copy = *ctx.live;
      sink += copy.now();
    }) / 1e3);
  }
  r.set("sim.copy_us", median(us), "us", kCopies);
  std::uint64_t trials = ctx.oracle_trials;
  if (trials == 0) {
    smt::sim::OracleConfig ocfg;
    ocfg.candidates = smt::policy::all_policies();
    constexpr std::uint64_t kQuanta = 2;
    const SpanScope span("sim.run_oracle", "sim", 0, 0);
    const smt::sim::OracleResult res =
        smt::sim::run_oracle(*ctx.live, kQuanta, ocfg, ctx.workers);
    trials = kQuanta * ocfg.candidates.size();
    sink += res.committed;
  }
  r.set("sim.oracle_trials", static_cast<double>(trials), "count", trials);
  keep(sink);
}

// --- observer overheads on ilp8 slices --------------------------------------

void observer_probe(const ProbeContext& ctx, Report& r) {
  constexpr int kRounds = 24;
  constexpr std::uint64_t kWarm = 2 * kQuantum;
  const std::uint64_t seed = smt::mix64(ctx.seed ^ kSaltObserver);
  const SimConfig base_cfg = probe_config("ilp8", seed, false);

  // Run the region once first so every variant below reads memoised
  // streams and differs from the baseline only by its observer.
  {
    Simulator pacer(base_cfg);
    pacer.run(kWarm + kRounds * kQuantum);
  }

  enum { kBase, kTrace, kCpi, kPipeview, kCheck, kProf, kVariants };
  static constexpr std::array<const char*, kVariants> kNames = {
      "", "obs.trace_overhead_pct", "obs.cpi_overhead_pct",
      "obs.pipeview_overhead_pct", "check.overhead_pct", "prof.overhead_pct"};
  std::vector<Simulator> sims;
  sims.reserve(kVariants);
  smt::obs::TraceSink trace_sink;
  smt::obs::TraceSink pview_sink;
  smt::prof::PhaseProfiler prof;
  for (int v = 0; v < kVariants; ++v) {
    SimConfig cfg = base_cfg;
    if (v == kCheck) cfg.check = smt::check::CheckMode::kOn;
    sims.emplace_back(cfg);
    sims.back().run(kWarm);
  }
  sims[kTrace].attach_trace(&trace_sink);
  sims[kCpi].pipeline().set_cpi_accounting(true);
  std::vector<smt::pipeline::PipeviewWindow> windows;
  for (int i = 0; i < kRounds; ++i) {
    windows.push_back({kWarm + static_cast<std::uint64_t>(i) * kQuantum, 256});
  }
  sims[kPipeview].pipeline().set_pipeview(&pview_sink, windows, kQuantum);
  sims[kProf].attach_profiler(
      &prof, prof.child(smt::prof::PhaseProfiler::kRoot, "probe"), kProfStride);

  std::array<std::vector<double>, kVariants> ms;
  for (int round = 0; round < kRounds; ++round) {
    for (int k = 0; k < kVariants; ++k) {
      const int v = (round + k) % kVariants;  // rotate who runs first
      const SpanScope span("sim.run", "sim", 0, 0);
      ms[v].push_back(time_ns([&] { sims[v].run(kQuantum); }) / 1e6);
    }
  }
  const double base = median(ms[kBase]);
  for (int v = kTrace; v < kVariants; ++v) {
    r.set(kNames[v], 100.0 * (median(ms[v]) / base - 1.0), "%", kRounds);
  }
  for (int v = kTrace; v < kVariants; ++v) {
    r.check(sims[v].committed() == sims[kBase].committed(),
            std::string(kNames[v]) + ": the observer changed the simulation");
  }
  r.check(sims[kCheck].checker().ok(), "invariant checker reported violations");
}

}  // namespace

double reference_kernel_ns() {
  constexpr int kCalls = 1 << 22;
  std::vector<double> ns;
  std::uint64_t acc = 0;
  smt::Rng rng(2003);
  for (int rep = 0; rep < kRepeats; ++rep) {
    ns.push_back(time_ns([&] {
      for (int i = 0; i < kCalls; ++i) acc ^= rng.next();
    }) / kCalls);
  }
  keep(acc);
  return median(ns);
}

void run_layer_probes(const ProbeContext& ctx, Report& r) {
  std::vector<smt::pipeline::ThreadCounters> counters;
  pipeline_probe(ctx, r, counters);
  StreamCapture cap;
  synthesis_probe(ctx, r, cap);
  mem_branch_probe(cap, r);
  policy_probe(counters, r);
  copy_probe(ctx, r);
  observer_probe(ctx, r);
}

}  // namespace perfbench
