// Simulator facade: machine + workload + (optionally) the ADTS detector
// thread, behind one value-semantic object.
//
// Copying a Simulator snapshots everything — microarchitectural state,
// workload generator positions, detector-thread state — so a copy resumes
// exactly where the original was. The oracle scheduler (sim/oracle.hpp)
// and the quantum-rerun tests are built on this property.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "common/drop_on_copy.hpp"
#include "core/detector.hpp"
#include "obs/cpi_stack.hpp"
#include "obs/metrics.hpp"
#include "obs/stall.hpp"
#include "obs/trace_sink.hpp"
#include "pipeline/config.hpp"
#include "pipeline/counters.hpp"
#include "pipeline/pipeline.hpp"
#include "policy/fetch_policy.hpp"
#include "prof/phase_profiler.hpp"
#include "workload/mix.hpp"

namespace smt::sim {

struct SimConfig {
  pipeline::PipelineConfig machine{};
  /// Application profile names, one per hardware context (≤ 8).
  std::vector<std::string> apps;
  /// Master workload seed; intervals of a sampled run vary this.
  std::uint64_t workload_seed = 1;

  /// Fixed fetch policy used when ADTS is disabled (and as the ADTS
  /// initial/default policy).
  policy::FetchPolicy fixed_policy = policy::FetchPolicy::kIcount;

  bool use_adts = false;
  core::AdtsConfig adts{};

  /// Runtime invariant checking (src/check/): kAuto defers to the
  /// SMT_CHECK environment variable, which the SMT_CHECK CMake option
  /// sets for every ctest run — so tests check by default while release
  /// binaries stay unchecked unless asked (--check).
  check::CheckMode check = check::CheckMode::kAuto;

  /// Pipeview sampling windows (--pipeview N@CYCLE): active only while a
  /// trace sink is attached; empty = no lifecycle sampling.
  std::vector<pipeline::PipeviewWindow> pipeview;

  /// Per-slot commit-loss accounting (--cpi): charges every commit slot
  /// of every cycle to one CpiCause per thread, exports cpi.* stats keys
  /// and per-quantum kCpiStack trace rows. Observation-only — the
  /// simulated machine is bit-identical with accounting on or off — and
  /// deliberately NOT part of config_digest, like check/prof.
  bool cpi = false;
};

/// FNV-1a fingerprint of the knobs that determine a run's results (machine
/// geometry, workload, policy/ADTS/pipeview settings). Stamped into
/// every trace and stats document (run.config_digest) so two artifacts can
/// be checked for configuration identity without replaying either.
[[nodiscard]] std::uint64_t config_digest(const SimConfig& cfg) noexcept;

/// Enum-code → display-name callbacks for the trace writers, wired to the
/// real policy / heuristic / invariant-class names (the obs layer sits
/// below policy and core, so it only stores codes).
[[nodiscard]] obs::TraceDecoder trace_decoder() noexcept;

/// Build a SimConfig for a named mix at a given thread count.
[[nodiscard]] SimConfig make_config(const workload::Mix& mix,
                                    std::size_t threads,
                                    std::uint64_t workload_seed);

class Simulator {
 public:
  explicit Simulator(const SimConfig& cfg);

  // Copies drop the observers (trace sink, profiler, invariant checker;
  // DropOnCopy members below): the oracle re-runs copied simulators over
  // quanta already recorded by the original, and a shared sink would
  // record every such re-run as if it happened once. The copy keeps full
  // microarchitectural state and stays silent; re-attach explicitly to
  // trace it.
  Simulator(const Simulator&) = default;
  Simulator(Simulator&&) = default;
  Simulator& operator=(const Simulator&) = default;
  Simulator& operator=(Simulator&&) = default;

  /// One cycle, every stage and observer: the per-cycle reference path.
  void step();
  /// Advance `cycles` cycles: step() on live cycles, and one leap over
  /// each quiet span (Pipeline::quiet_span) that no quantum boundary or
  /// detector event interrupts. The end state, stats document and trace
  /// equal those of `cycles` step() calls.
  void run(std::uint64_t cycles);

  [[nodiscard]] pipeline::Pipeline& pipeline() noexcept { return pipe_; }
  [[nodiscard]] const pipeline::Pipeline& pipeline() const noexcept {
    return pipe_;
  }
  [[nodiscard]] const core::DetectorThread& detector() const noexcept {
    return detector_;
  }
  [[nodiscard]] bool adts_enabled() const noexcept { return use_adts_; }

  /// Invariant checking active for this instance? Copies always answer
  /// false: like the trace sink, checking is dropped on copy — the oracle
  /// re-runs copies with policies it sets directly, which the legality
  /// pass would (correctly, for a live machine) flag.
  [[nodiscard]] bool checking_enabled() const noexcept { return check_.on; }
  [[nodiscard]] const check::InvariantChecker& checker() const noexcept {
    return check_.checker;
  }
  /// Attach (or detach, with nullptr) a trace sink. The simulator records
  /// per-quantum machine + thread snapshots, switch-audit and invariant
  /// events into it. Observation-only: the simulated
  /// machine is bit-identical with or without a sink attached. The sink
  /// must outlive the simulator (or be detached first); it is NOT owned.
  void attach_trace(obs::TraceSink* sink);
  [[nodiscard]] obs::TraceSink* trace_sink() const noexcept {
    return trace_.sink;
  }

  /// Emit any switch-audit records not yet traced — the trailing switch
  /// that was applied but never reached its scoring boundary stays
  /// labelled neutral. Call once after the run completes, before
  /// serializing the sink. No-op without a sink.
  void flush_trace();

  /// Export end-of-run metrics from every subsystem (pipeline always;
  /// detector when ADTS is on) plus the run configuration, into `reg`
  /// (--stats-json).
  void export_metrics(obs::MetricsRegistry& reg) const;

  /// Attach the host-phase profiler: resolves the standard per-cycle node
  /// tree under `parent` — cycle/{pipeline/{commit,complete,issue,
  /// dispatch,fetch}, skip, detector, checker, trace} — and times those
  /// segments on one stepped cycle per `stride` (prof::sampled_cycle;
  /// `stride` must be a power of two; 1 = every cycle). Every leap, with
  /// its post-cycle work, is timed under "skip", whose count adds the
  /// cycles leapt. Observation-only and dropped on copy, exactly like
  /// the trace sink: a profiled run's simulated results are
  /// bit-identical to an unprofiled one. Pass a null profiler to detach.
  void attach_profiler(prof::PhaseProfiler* p,
                       prof::PhaseProfiler::Node parent, std::uint64_t stride);

  /// Suspend / resume the detector thread. Resuming re-baselines the
  /// detector (DetectorThread::arm, which sets the quantum marks) so the
  /// first observed quantum is clean. The sampling driver uses this to
  /// keep warm-up transients (cold caches ⇒ artificially low IPC ⇒
  /// spurious cold-start policy switches) out of ADTS's view.
  void set_adts_active(bool active);
  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }

  [[nodiscard]] std::uint64_t now() const noexcept { return pipe_.now(); }
  [[nodiscard]] std::uint64_t committed() const noexcept {
    return pipe_.committed_total();
  }
  [[nodiscard]] double ipc() const noexcept { return pipe_.stats().ipc(); }

 private:
  /// Delta baseline for one thread's per-quantum trace snapshot: the
  /// thread's free-running totals at the previous snapshot. Event totals,
  /// stall ledgers and CPI stacks are all monotone (never reset by
  /// quantum boundaries or swaps), so each row is a plain difference.
  struct ThreadBaseline {
    pipeline::EventCounts events;
    obs::StallBreakdown stalls;
    obs::CpiStack cpi;
    std::uint64_t cpi_cycles = 0;  ///< cycles_accounted at the snapshot
  };

  void record_quantum_snapshot();

  /// Quiet cycles run() may leap from now without passing `end`, a
  /// quantum boundary or the detector's next event; 0 = step instead.
  [[nodiscard]] std::uint64_t leapable(std::uint64_t end) const;
  /// Leap `k` quiet cycles, then do the post-cycle work once.
  void leap(std::uint64_t k);
  /// Post-cycle work once the pipeline has advanced (one step or one
  /// leap): quantum snapshot, detector tick, checker, trace events. Scopes
  /// time under `pp` when non-null.
  void after_cycles(prof::PhaseProfiler* pp);

  SimConfig cfg_;
  pipeline::Pipeline pipe_;
  core::DetectorThread detector_;
  bool use_adts_ = false;

  // --- invariant checking (inert while check_.on == false) -------------
  struct CheckState {
    check::InvariantChecker checker;
    bool on = false;
  };
  DropOnCopy<CheckState> check_;

  // --- host-phase profiling (inert while prof_.prof == nullptr) ---------
  struct ProfNodes {
    prof::PhaseProfiler::Node cycle = 0;     ///< whole per-cycle body
    prof::PhaseProfiler::Node pipeline = 0;  ///< pipe_.step()
    prof::PhaseProfiler::Node skip = 0;      ///< a leap of k cycles, count += k
    prof::PhaseProfiler::Node detector = 0;  ///< detector tick
    prof::PhaseProfiler::Node checker = 0;   ///< invariant-checker pass
    prof::PhaseProfiler::Node trace = 0;     ///< snapshot + event emission
    pipeline::Pipeline::ProfNodes stages;    ///< pipeline's five stages
  };
  struct ProfState {
    prof::PhaseProfiler* prof = nullptr;  ///< not owned
    std::uint64_t mask = 0;               ///< stride − 1
    ProfNodes nodes;
  };
  DropOnCopy<ProfState> prof_;

  // --- trace instrumentation (inert while trace_.sink == nullptr) -------
  struct TraceState {
    obs::TraceSink* sink = nullptr;        ///< not owned
    std::uint64_t snapshot_cycle = 0;      ///< cycle of the last snapshot
    std::uint64_t snapshot_committed = 0;  ///< machine committed at snapshot
    obs::StallBreakdown snapshot_machine;  ///< machine stalls at snapshot
    std::vector<ThreadBaseline> baselines;
    /// Audit-log entries already emitted as kSwitchAudit events. An entry
    /// is emitted once finalized: scored, or provably never-to-be-scored
    /// (a later entry exists — the detector scores at most one switch at
    /// a time, in order). flush_trace() emits the rest.
    std::size_t audits_emitted = 0;
  };
  DropOnCopy<TraceState> trace_;
};

}  // namespace smt::sim
