// The detector thread (DT): functional model of the paper's §3/§4
// software architecture.
//
// Once per scheduling quantum (8K cycles by default) the DT:
//   1. reads the per-thread status counters and computes IPC_last;
//   2. scores the outcome of any switch applied one quantum ago
//      (benign = throughput rose) and, for Type 4, records it in the
//      switching-history buffer;
//   3. if IPC_last < threshold, runs the policy-determination heuristic
//      (Determine_NewPolicy) and identifies clogging threads
//      (Identify_CloggingThreads);
//   4. queues its own instruction cost into the pipeline — the DT is the
//      lowest-priority context and retires only through fetch slots left
//      idle by normal threads. A policy decision takes effect only when
//      that work has drained (Policy_Switch); if the pipeline is so busy
//      the DT starves, the switch is skipped — which is acceptable,
//      because a saturated pipeline is exactly the case that needs no
//      intervention (paper §3).
//
// The DT model carries no pointers into the pipeline; Simulator owns both
// and passes the pipeline by reference, keeping the pair value-semantic
// (snapshot-able).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/heuristics.hpp"
#include "core/history.hpp"
#include "obs/metrics.hpp"
#include "obs/switch_audit.hpp"
#include "pipeline/counters.hpp"
#include "pipeline/pipeline.hpp"
#include "policy/fetch_policy.hpp"

namespace smt::core {

struct AdtsConfig {
  std::uint64_t quantum_cycles = 8192;
  /// The paper's threshold value "m": low throughput ⇔ IPC_last < m.
  double ipc_threshold = 2.0;
  HeuristicType heuristic = HeuristicType::kType3;
  ConditionThresholds conditions{};

  /// Adaptive condition thresholds (the paper's §4.3.2 escape hatch:
  /// "there can be no single golden reference measures ... the detector
  /// thread management kernel can profile the system and ... update the
  /// values to reflect the new state of the system"). When enabled, a
  /// COND_* sub-condition fires when its rate exceeds
  /// `adaptive_factor` × the exponentially-weighted running mean of that
  /// rate on *this* system — i.e. "abnormal for this workload right now"
  /// instead of "above the 13-mix calibration average". The static
  /// `conditions` thresholds above are ignored while this is on.
  bool adaptive_conditions = false;
  double adaptive_factor = 1.3;
  double adaptive_alpha = 0.1;  ///< EWMA weight of the newest quantum

  // --- detector-thread cost model --------------------------------------
  /// DT instructions per quantum for monitoring (counter reads + compare).
  std::uint64_t dt_check_instrs = 96;
  /// Additional DT instructions to run Determine_NewPolicy + Policy_Switch.
  std::uint64_t dt_decide_instrs = 512;
  /// Ablation: apply switches at the quantum boundary with zero DT cost.
  bool instant_switch = false;
  /// Architectural cost of a Policy_Switch: fetch is blocked for all
  /// threads this many cycles while the new priorities propagate. The
  /// paper's switch-rate pathology (Fig. 7) presumes switching is not
  /// free; the default 0 keeps the legacy zero-cost model.
  std::uint64_t switch_penalty_cycles = 0;

  // --- clogging-thread control (Identify_CloggingThreads) --------------
  /// Flag a thread as clogging when it holds more than this share of the
  /// total in-flight instruction count.
  double clog_icount_share = 0.5;
  /// When enabled, flagged threads are fetch-blocked for this many cycles
  /// (the "prevent a specific thread from being fetched" action of §3).
  bool enable_clog_control = false;
  std::uint64_t clog_block_cycles = 512;
};

struct AdtsStats {
  std::uint64_t low_throughput_quanta = 0;
  std::uint64_t switches = 0;          ///< switches actually applied
  std::uint64_t benign_switches = 0;   ///< next-quantum IPC rose
  std::uint64_t malignant_switches = 0;
  std::uint64_t switches_skipped_dt_busy = 0;  ///< DT starved; switch dropped
  std::uint64_t switches_reversed = 0;         ///< Type 4 took the opposite arc
  std::uint64_t clog_flags = 0;        ///< thread-flagging events
  /// Quanta spent under each fetch policy.
  std::array<std::uint64_t, policy::kNumFetchPolicies> quanta_per_policy{};

  /// Quantum boundaries processed.
  [[nodiscard]] std::uint64_t quanta() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t q : quanta_per_policy) sum += q;
    return sum;
  }
  [[nodiscard]] double benign_fraction() const noexcept {
    return obs::benign_probability(benign_switches, malignant_switches);
  }
};

class DetectorThread {
 public:
  DetectorThread() = default;
  explicit DetectorThread(const AdtsConfig& cfg);

  /// Call after every pipeline step. Does quantum-boundary processing and
  /// applies pending switches once the DT's work has drained.
  void tick(pipeline::Pipeline& pipe);

  /// The first cycle after pipe.now() at which tick() may act, provided
  /// the pipeline stays quiet until then (every fetch slot idle, so the
  /// DT drains fetch_width queued instructions a cycle): the next quantum
  /// boundary, or the tick that applies a pending decision once the DT's
  /// work has drained. Ticks before it are no-ops, which is what lets
  /// Simulator::run leap up to it.
  [[nodiscard]] std::uint64_t next_event(
      const pipeline::Pipeline& pipe) const noexcept;

  /// Start a quantum at the pipeline's current cycle (its quantum marks)
  /// and forget the IPC history and any pending or unscored switch. Call
  /// when the detector starts ticking on a pipeline that has already been
  /// running (e.g. after a measurement warm-up), so the first quantum's
  /// IPC is not polluted by pre-arm history.
  void arm(pipeline::Pipeline& pipe);

  [[nodiscard]] const AdtsConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const AdtsStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const SwitchHistory& history() const noexcept {
    return history_;
  }
  /// Provenance trail: one record per applied switch, carrying the full
  /// decision context and (after the following quantum) its benign/
  /// malignant label. The classifier is obs::classify_switch — the same
  /// definition AdtsStats counts with, so log and stats always agree.
  [[nodiscard]] const obs::SwitchAuditLog& audit_log() const noexcept {
    return audit_log_;
  }
  /// Threads flagged as clogging in the most recent low-throughput quantum.
  [[nodiscard]] const std::vector<std::uint32_t>& clogging_threads() const noexcept {
    return clogging_;
  }

  /// Sticky clog marks: the union of clogging flags raised since the last
  /// clear_clog_marks(). This is the paper's hand-off to the system job
  /// scheduler — threads are "identified and marked so that the job
  /// scheduler can later suspend them" whenever it next runs, not only if
  /// it happens to run in the same quantum.
  [[nodiscard]] const std::vector<std::uint32_t>& clog_marks() const noexcept {
    return clog_marks_;
  }
  void clear_clog_marks() { clog_marks_.clear(); }

  /// Export ADTS statistics into `reg` under "adts." (--stats-json).
  void export_metrics(obs::MetricsRegistry& reg) const;

 private:
  void on_quantum_boundary(pipeline::Pipeline& pipe);
  /// Policy_Switch: move the pipeline to `a.policy_after`, charge the
  /// architectural switch penalty, and log `a` (stamped with the policy
  /// it replaces and the apply cycle) as the switch awaiting its score.
  void apply_switch(pipeline::Pipeline& pipe, obs::SwitchAudit a);
  void identify_clogging_threads(pipeline::Pipeline& pipe);

  AdtsConfig cfg_{};
  SwitchHistory history_{};
  AdtsStats stats_{};

  double ipc_last_ = 0.0;
  double ipc_prev_ = 0.0;

  // Switch records (obs/switch_audit.hpp), one per switch from decision
  // to score. pending_audit_ is a decision chosen at a boundary, applied
  // when the DT's work drains; its policy_after is the policy to write.
  // unscored_audit_ is the applied switch awaiting its scoring boundary,
  // held by value so it is still scored (stats, history) once the log is
  // full; unscored_index_ is its log entry (npos when the log was full).
  obs::SwitchAuditLog audit_log_{};
  std::optional<obs::SwitchAudit> pending_audit_{};
  std::optional<obs::SwitchAudit> unscored_audit_{};
  std::size_t unscored_index_ = obs::SwitchAuditLog::npos;

  std::vector<std::uint32_t> clogging_{};
  std::vector<std::uint32_t> clog_marks_{};

  // Adaptive-threshold state: running means of the machine-wide rates.
  pipeline::QuantumRates ewma_{};
  bool ewma_primed_ = false;
};

}  // namespace smt::core
