#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "check/invariants.hpp"
#include "common/build_info.hpp"
#include "common/host_info.hpp"
#include "core/detector.hpp"
#include "core/heuristics.hpp"
#include "mem/cache.hpp"
#include "obs/cpi_stack.hpp"
#include "obs/metrics.hpp"
#include "obs/stall.hpp"
#include "obs/switch_audit.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_schema.hpp"
#include "obs/trace_sink.hpp"
#include "pipeline/config.hpp"
#include "pipeline/counters.hpp"
#include "pipeline/pipeline.hpp"
#include "policy/fetch_policy.hpp"
#include "prof/phase_profiler.hpp"
#include "workload/app_profile.hpp"
#include "workload/mix.hpp"
#include "workload/thread_program.hpp"

namespace smt::sim {

obs::TraceDecoder trace_decoder() noexcept {
  obs::TraceDecoder d;
  d.policy = [](std::uint8_t code) -> std::string_view {
    return policy::name(static_cast<policy::FetchPolicy>(code));
  };
  d.heuristic = [](std::uint8_t code) -> std::string_view {
    return core::name(static_cast<core::HeuristicType>(code));
  };
  d.invariant = check::invariant_class_name;
  return d;
}

SimConfig make_config(const workload::Mix& mix, std::size_t threads,
                      std::uint64_t workload_seed) {
  SimConfig cfg;
  cfg.apps = workload::mix_for_threads(mix, threads, workload_seed);
  cfg.workload_seed = workload_seed;
  return cfg;
}

std::uint64_t config_digest(const SimConfig& cfg) noexcept {
  // Field-by-field (never whole structs: padding bytes are indeterminate
  // and would make the digest non-reproducible across builds).
  Fnv1a h;
  for (const std::string& a : cfg.apps) {
    h.mix_bytes(a.data(), a.size());
    h.mix(char{0});
  }
  h.mix(cfg.workload_seed);
  h.mix(cfg.fixed_policy);
  h.mix(cfg.use_adts);

  const pipeline::PipelineConfig& m = cfg.machine;
  h.mix(m.fetch_width);
  h.mix(m.fetch_threads);
  h.mix(m.dispatch_width);
  h.mix(m.issue_width);
  h.mix(m.commit_width);
  h.mix(m.frontend_delay);
  h.mix(m.int_iq_size);
  h.mix(m.fp_iq_size);
  h.mix(m.lsq_size);
  h.mix(m.fetch_buffer_cap);
  h.mix(m.rob_per_thread);
  h.mix(m.int_rename_regs);
  h.mix(m.fp_rename_regs);
  h.mix(m.int_alus);
  h.mix(m.mem_ports);
  h.mix(m.fp_units);
  h.mix(m.mispredict_penalty);
  h.mix(m.btb_miss_penalty);
  h.mix(m.syscall_flush_penalty);
  h.mix(m.lat_int_alu);
  h.mix(m.lat_int_mul);
  h.mix(m.lat_int_div);
  h.mix(m.lat_fp_add);
  h.mix(m.lat_fp_mul);
  h.mix(m.lat_fp_div);
  h.mix(m.lat_branch);
  // Cache names and the max_threads capacities are left out: a label and
  // a bound the constructor checks cannot change a run's results.
  for (const mem::CacheConfig* c :
       {&m.memory.l1i, &m.memory.l1d, &m.memory.l2}) {
    h.mix(c->size_bytes);
    h.mix(c->line_bytes);
    h.mix(c->ways);
  }
  h.mix(m.memory.l1_latency);
  h.mix(m.memory.l2_latency);
  h.mix(m.memory.mem_latency);
  h.mix(m.predictor.kind);
  h.mix(m.predictor.history_bits);
  h.mix(m.predictor.pht_bits);
  h.mix(m.predictor.btb_entries);

  const core::AdtsConfig& a = cfg.adts;
  h.mix(a.quantum_cycles);
  h.mix(a.ipc_threshold);
  h.mix(a.heuristic);
  h.mix(a.conditions.l1_miss_per_cycle);
  h.mix(a.conditions.lsq_full_per_cycle);
  h.mix(a.conditions.mispredict_per_cycle);
  h.mix(a.conditions.cond_branch_per_cycle);
  h.mix(a.adaptive_conditions);
  h.mix(a.adaptive_factor);
  h.mix(a.adaptive_alpha);
  h.mix(a.dt_check_instrs);
  h.mix(a.dt_decide_instrs);
  h.mix(a.instant_switch);
  h.mix(a.switch_penalty_cycles);
  h.mix(a.clog_icount_share);
  h.mix(a.enable_clog_control);
  h.mix(a.clog_block_cycles);

  for (const pipeline::PipeviewWindow& w : cfg.pipeview) {
    h.mix(w.start_cycle);
    h.mix(w.count);
  }
  return h.digest();
}

namespace {

std::vector<workload::ThreadProgram> build_programs(const SimConfig& cfg) {
  if (cfg.apps.empty()) {
    throw std::invalid_argument("SimConfig: no applications");
  }
  if (cfg.apps.size() > 8) {
    throw std::invalid_argument(
        "SimConfig: more applications than hardware contexts (8)");
  }
  std::vector<workload::ThreadProgram> programs;
  programs.reserve(cfg.apps.size());
  for (std::size_t tid = 0; tid < cfg.apps.size(); ++tid) {
    programs.emplace_back(workload::profile(cfg.apps[tid]),
                          static_cast<std::uint32_t>(tid), cfg.workload_seed);
  }
  return programs;
}

}  // namespace

Simulator::Simulator(const SimConfig& cfg)
    : cfg_(cfg),
      pipe_(cfg.machine, build_programs(cfg)),
      detector_(cfg.adts),
      use_adts_(cfg.use_adts) {
  check_.on = check::check_enabled(cfg.check);
  pipe_.set_policy(cfg.fixed_policy);
  if (cfg.cpi) pipe_.set_cpi_accounting(true);
  if (check_.on) check_.checker.arm(pipe_);
}

void Simulator::attach_profiler(prof::PhaseProfiler* p,
                                prof::PhaseProfiler::Node parent,
                                std::uint64_t stride) {
  prof_ = {};
  if (p == nullptr) return;
  prof_.prof = p;
  prof_.mask = stride == 0 ? 0 : stride - 1;
  prof_.nodes.cycle = p->child(parent, "cycle");
  prof_.nodes.pipeline = p->child(prof_.nodes.cycle, "pipeline");
  prof_.nodes.skip = p->child(prof_.nodes.cycle, "skip");
  prof_.nodes.detector = p->child(prof_.nodes.cycle, "detector");
  prof_.nodes.checker = p->child(prof_.nodes.cycle, "checker");
  prof_.nodes.trace = p->child(prof_.nodes.cycle, "trace");
  pipeline::Pipeline::ProfNodes& stages = prof_.nodes.stages;
  stages.commit = p->child(prof_.nodes.pipeline, "commit");
  stages.complete = p->child(prof_.nodes.pipeline, "complete");
  stages.issue = p->child(prof_.nodes.pipeline, "issue");
  stages.dispatch = p->child(prof_.nodes.pipeline, "dispatch");
  stages.fetch = p->child(prof_.nodes.pipeline, "fetch");
}

void Simulator::attach_trace(obs::TraceSink* sink) {
  trace_.sink = sink;
  if (trace_.sink == nullptr) {
    pipe_.set_pipeview(nullptr, {}, 0);
    return;
  }
  if (!cfg_.pipeview.empty()) {
    pipe_.set_pipeview(trace_.sink, cfg_.pipeview, cfg_.adts.quantum_cycles);
  }
  // Audit entries that predate the sink are not traced (the sink records
  // what happens while attached, like every other event kind).
  trace_.audits_emitted = detector_.audit_log().size();
  // Baseline every delta at the current state so the first snapshot spans
  // only cycles recorded under this sink.
  trace_.snapshot_cycle = pipe_.now();
  trace_.snapshot_committed = pipe_.committed_total();
  trace_.snapshot_machine = pipe_.machine_stall_breakdown();
  trace_.baselines.assign(pipe_.num_threads(), ThreadBaseline{});
  for (std::uint32_t tid = 0; tid < pipe_.num_threads(); ++tid) {
    ThreadBaseline& b = trace_.baselines[tid];
    b.events = pipe_.counters(tid).total;
    b.stalls = pipe_.stall_breakdown(tid);
    if (pipe_.cpi_accounting()) {
      b.cpi = pipe_.cpi_stack(tid);
      b.cpi_cycles = pipe_.cpi_cycles_accounted();
    }
  }
}

void Simulator::set_adts_active(bool active) {
  if (active && !use_adts_) {
    detector_.arm(pipe_);
  }
  use_adts_ = active;
}

void Simulator::step() {
  using Scope = prof::PhaseProfiler::Scope;
  // The one stride test of a profiled run, on the pre-step cycle: a
  // sampled cycle times its segments and hands the stage nodes to the
  // pipeline, which never samples on its own. Scopes built with a null
  // profiler are inert, so the unprofiled path pays only the
  // construction of no-op guards.
  prof::PhaseProfiler* pp =
      prof_.prof != nullptr && prof::sampled_cycle(pipe_.now(), prof_.mask)
          ? prof_.prof
          : nullptr;
  const Scope s(pp, prof_.nodes.cycle);
  {
    const Scope sp(pp, prof_.nodes.pipeline);
    pipe_.step(pp, prof_.nodes.stages);
  }
  after_cycles(pp);
}

std::uint64_t Simulator::leapable(std::uint64_t end) const {
  const std::uint64_t now = pipe_.now();
  const std::uint64_t k = pipe_.quiet_span(end - now);
  if (k == 0) return 0;
  // The span may end on, but not cross, a cycle whose post-cycle work
  // acts: the quantum boundary (snapshot, detector) or a detector event.
  const std::uint64_t q = cfg_.adts.quantum_cycles;
  std::uint64_t stop = (now / q + 1) * q;
  if (use_adts_) stop = std::min(stop, detector_.next_event(pipe_));
  return std::min(k, stop - now);
}

void Simulator::leap(std::uint64_t k) {
  // Every leap is timed, whole, under cycle/skip: the per-segment nodes
  // keep sampling stepped cycles only, and skip's count is cycles leapt.
  using Scope = prof::PhaseProfiler::Scope;
  const Scope s(prof_.prof, prof_.nodes.cycle);
  const Scope skip(prof_.prof, prof_.nodes.skip, k);
  pipe_.leap(k);
  after_cycles(nullptr);
}

void Simulator::after_cycles(prof::PhaseProfiler* pp) {
  using Scope = prof::PhaseProfiler::Scope;
  // The quantum row goes out before the detector tick, so the policy it
  // records is the one the quantum ran under.
  if (trace_.sink != nullptr && pipe_.now() % cfg_.adts.quantum_cycles == 0) {
    const Scope s(pp, prof_.nodes.trace);
    record_quantum_snapshot();
  }
  {
    const Scope s(pp, prof_.nodes.detector);
    if (use_adts_) detector_.tick(pipe_);
  }

  // The checker observes the fully mutated cycle (pipeline step, detector
  // tick). It is a pure reader: a checked run is bit-identical to an
  // unchecked one.
  std::size_t fresh_violations = 0;
  if (check_.on) {
    const Scope s(pp, prof_.nodes.checker);
    fresh_violations = check_.checker.on_cycle(pipe_, use_adts_);
  }

  if (trace_.sink == nullptr) return;
  // One scope over everything the sink records this cycle ("trace" also
  // times the boundary snapshot above, so its count tallies timed
  // segments, not cycles).
  const Scope trace_scope(pp, prof_.nodes.trace);
  // Emit finalized audit records, the trace's only switch rows. An entry
  // is finalized once scored, or once a later entry exists (the detector
  // scores at most one pending switch, in order — a passed-over entry
  // stays neutral forever).
  const obs::SwitchAuditLog& audit_log = detector_.audit_log();
  while (trace_.audits_emitted < audit_log.size() &&
         (audit_log[trace_.audits_emitted].scored ||
          trace_.audits_emitted + 1 < audit_log.size())) {
    trace_.sink->record(obs::to_trace_event(audit_log[trace_.audits_emitted]));
    ++trace_.audits_emitted;
  }

  if (fresh_violations > 0) {
    const std::vector<check::Violation>& log = check_.checker.violations();
    for (std::size_t i = log.size() - fresh_violations; i < log.size(); ++i) {
      const check::Violation& v = log[i];
      obs::TraceEvent e;
      e.kind = obs::EventKind::kInvariant;
      e.cycle = v.cycle;
      e.quantum = v.cycle / cfg_.adts.quantum_cycles;
      e.tid = v.tid;
      e.code = static_cast<std::uint8_t>(v.cls);
      e.value = v.value;
      trace_.sink->record(e);
    }
  }
}

void Simulator::record_quantum_snapshot() {
  const std::uint64_t cycle = pipe_.now();
  const std::uint64_t span = cycle - trace_.snapshot_cycle;
  if (span == 0) return;
  const std::uint64_t quantum = cycle / cfg_.adts.quantum_cycles;
  const double dspan = static_cast<double>(span);
  const std::uint32_t n = pipe_.num_threads();

  obs::TraceEvent mrow;
  mrow.kind = obs::EventKind::kQuantum;
  mrow.cycle = cycle;
  mrow.quantum = quantum;
  mrow.span = span;
  mrow.value = pipe_.committed_total() - trace_.snapshot_committed;
  mrow.ipc = static_cast<double>(mrow.value) / dspan;
  mrow.policy_after = static_cast<std::uint8_t>(pipe_.policy());
  const obs::StallBreakdown& machine = pipe_.machine_stall_breakdown();
  obs::encode_row(machine - trace_.snapshot_machine, mrow);
  trace_.sink->record(mrow);
  trace_.snapshot_cycle = cycle;
  trace_.snapshot_committed = pipe_.committed_total();
  trace_.snapshot_machine = machine;

  if (trace_.baselines.size() < n) trace_.baselines.resize(n);
  const double slot_budget =
      dspan * static_cast<double>(pipe_.config().fetch_width);
  for (std::uint32_t tid = 0; tid < n; ++tid) {
    ThreadBaseline& b = trace_.baselines[tid];
    const pipeline::EventCounts& total = pipe_.counters(tid).total;
    const pipeline::EventCounts d = total - b.events;

    obs::TraceEvent t;
    t.kind = obs::EventKind::kThreadQuantum;
    t.cycle = cycle;
    t.quantum = quantum;
    t.tid = static_cast<std::int32_t>(tid);
    t.span = span;
    t.value = d.committed;
    t.ipc = static_cast<double>(t.value) / dspan;
    t.fetch_share = static_cast<double>(d.fetched) / slot_budget;
    t.mispredict_rate = static_cast<double>(d.mispredicts) / dspan;
    t.l1d_miss_rate = static_cast<double>(d.l1d_misses) / dspan;
    t.l1i_miss_rate = static_cast<double>(d.l1i_misses) / dspan;
    const obs::StallBreakdown& cur = pipe_.stall_breakdown(tid);
    obs::encode_row(cur - b.stalls, t);
    trace_.sink->record(t);

    if (pipe_.cpi_accounting()) {
      // One CPI-stack row per thread per quantum. The row's span is the
      // accounted-cycle delta so per-row conservation
      // (Σcpi == commit_width × span) holds even if accounting was
      // enabled mid-quantum.
      const obs::CpiStack& cs = pipe_.cpi_stack(tid);
      const obs::CpiStack d = cs - b.cpi;
      obs::TraceEvent cr;
      cr.kind = obs::EventKind::kCpiStack;
      cr.cycle = cycle;
      cr.quantum = quantum;
      cr.tid = static_cast<std::int32_t>(tid);
      cr.span = pipe_.cpi_cycles_accounted() - b.cpi_cycles;
      cr.value = pipe_.config().commit_width;
      cr.ipc = cr.span == 0
                   ? 0.0
                   : static_cast<double>(d[obs::CpiCause::kCommitted]) /
                         static_cast<double>(cr.span);
      obs::encode_row(d, cr);
      trace_.sink->record(cr);
      b.cpi = cs;
      b.cpi_cycles = pipe_.cpi_cycles_accounted();
    }

    b.events = total;
    b.stalls = cur;
  }
}

void Simulator::run(std::uint64_t cycles) {
  const std::uint64_t end = pipe_.now() + cycles;
  while (pipe_.now() < end) {
    const std::uint64_t k = leapable(end);
    if (k > 0) {
      leap(k);
    } else {
      step();
    }
  }
}

void Simulator::flush_trace() {
  if (trace_.sink == nullptr) return;
  const obs::SwitchAuditLog& audit_log = detector_.audit_log();
  while (trace_.audits_emitted < audit_log.size()) {
    trace_.sink->record(obs::to_trace_event(audit_log[trace_.audits_emitted]));
    ++trace_.audits_emitted;
  }
}

void Simulator::export_metrics(obs::MetricsRegistry& reg) const {
  // Provenance: which binary + configuration produced this document.
  const BuildInfo& bi = build_info();
  reg.set("run.version", bi.version);
  reg.set("run.git_sha", bi.git_sha);
  reg.set("run.compiler", bi.compiler);
  reg.set("run.flags", bi.flags);
  reg.set("run.seed", cfg_.workload_seed);
  char digest[24];
  std::snprintf(digest, sizeof digest, "0x%016llx",
                static_cast<unsigned long long>(config_digest(cfg_)));
  reg.set("run.config_digest", std::string_view(digest));
  const HostInfo& hi = host_info();
  reg.set("run.host_cpu", std::string_view(hi.cpu_model));
  reg.set("run.host_cores", static_cast<std::uint64_t>(hi.cores));
  reg.set("run.smt_jobs", static_cast<std::uint64_t>(hi.smt_jobs));

  reg.set("config.mode", use_adts_ ? "adts" : "fixed");
  reg.set("config.policy", policy::name(cfg_.fixed_policy));
  reg.set("config.threads", static_cast<std::uint64_t>(cfg_.apps.size()));
  reg.set("config.workload_seed", cfg_.workload_seed);
  reg.set("config.quantum_cycles", cfg_.adts.quantum_cycles);
  for (std::size_t tid = 0; tid < cfg_.apps.size(); ++tid) {
    reg.set("threads." + std::to_string(tid) + ".app",
            std::string_view(cfg_.apps[tid]));
  }
  pipeline::export_metrics(pipe_, reg);
  if (use_adts_) detector_.export_metrics(reg);
  // Only a FAILING checker shows up in the stats document: a clean
  // checked run must stay byte-identical to an unchecked one.
  if (check_.on && !check_.checker.ok()) {
    reg.set("check.violations", check_.checker.violation_count());
    for (std::size_t c = 0; c < check::kNumInvariantClasses; ++c) {
      const auto cls = static_cast<check::InvariantClass>(c);
      if (check_.checker.count(cls) > 0) {
        reg.set("check." + std::string(check::name(cls)),
                check_.checker.count(cls));
      }
    }
  }
  if (trace_.sink != nullptr) {
    reg.set("trace.events", static_cast<std::uint64_t>(trace_.sink->size()));
    reg.set("trace.dropped", trace_.sink->dropped());
  }
}

}  // namespace smt::sim
