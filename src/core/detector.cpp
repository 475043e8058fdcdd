#include "core/detector.hpp"
#include "obs/metrics.hpp"
#include "obs/switch_audit.hpp"
#include "pipeline/counters.hpp"
#include "pipeline/pipeline.hpp"
#include "policy/fetch_policy.hpp"

#include <algorithm>
#include <stdexcept>

namespace smt::core {

DetectorThread::DetectorThread(const AdtsConfig& cfg) : cfg_(cfg) {
  if (cfg.quantum_cycles == 0) {
    throw std::invalid_argument("AdtsConfig: quantum_cycles must be > 0");
  }
}

void DetectorThread::arm(pipeline::Pipeline& pipe) {
  pipe.mark_quantum();
  ipc_last_ = 0.0;
  ipc_prev_ = 0.0;
  pending_audit_.reset();
  unscored_audit_.reset();
  unscored_index_ = obs::SwitchAuditLog::npos;
}

void DetectorThread::apply_switch(pipeline::Pipeline& pipe,
                                  obs::SwitchAudit a) {
  a.policy_before = static_cast<std::uint8_t>(pipe.policy());
  a.applied_cycle = pipe.now();
  pipe.set_policy(static_cast<policy::FetchPolicy>(a.policy_after));
  if (cfg_.switch_penalty_cycles > 0) {
    for (std::uint32_t tid = 0; tid < pipe.num_threads(); ++tid) {
      pipe.block_fetch(tid, pipe.now() + cfg_.switch_penalty_cycles);
    }
  }
  ++stats_.switches;
  unscored_index_ = audit_log_.push(a);
  unscored_audit_ = a;
}

void DetectorThread::tick(pipeline::Pipeline& pipe) {
  // Apply a pending switch as soon as the DT's decision routine has
  // drained through idle fetch slots.
  if (pending_audit_ && pipe.dt_work_remaining() == 0) {
    if (pending_audit_->policy_after !=
        static_cast<std::uint8_t>(pipe.policy())) {
      apply_switch(pipe, *pending_audit_);
    }
    pending_audit_.reset();
  }

  if (pipe.now() > 0 && pipe.now() % cfg_.quantum_cycles == 0) {
    on_quantum_boundary(pipe);
  }
}

std::uint64_t DetectorThread::next_event(
    const pipeline::Pipeline& pipe) const noexcept {
  const std::uint64_t now = pipe.now();
  std::uint64_t at = (now / cfg_.quantum_cycles + 1) * cfg_.quantum_cycles;
  if (pending_audit_) {
    const std::uint64_t work = pipe.dt_work_remaining();
    const std::uint64_t width = pipe.config().fetch_width;
    if (work == 0) return now + 1;
    at = std::min(at, now + (work + width - 1) / width);
  }
  return at;
}

void DetectorThread::on_quantum_boundary(pipeline::Pipeline& pipe) {
  stats_.quanta_per_policy[static_cast<std::size_t>(pipe.policy())] += 1;

  // The quantum opened at the pipeline's quantum marks, which the DT set
  // at its last boundary or at arm(): one quantum ago, or less for the
  // first boundary after an arm() that landed mid-quantum. Its IPC counts
  // every commit since the mark, a program swapped in since included.
  const std::uint64_t elapsed =
      pipe.now() - pipe.counters(0).quantum_mark.cycle;
  std::uint64_t committed = 0;
  for (std::uint32_t tid = 0; tid < pipe.num_threads(); ++tid) {
    const pipeline::ThreadCounters& c = pipe.counters(tid);
    committed += c.since(c.quantum_mark).committed;
  }
  ipc_prev_ = ipc_last_;
  ipc_last_ = static_cast<double>(committed) / static_cast<double>(elapsed);

  // Score the switch applied during the previous quantum: benign iff the
  // quantum that just ended out-performed the one that triggered it.
  if (unscored_audit_) {
    const obs::SwitchAudit& a = *unscored_audit_;
    const bool benign = obs::classify_switch(a.ipc_before, ipc_last_) ==
                        obs::SwitchLabel::kBenign;
    audit_log_.score(unscored_index_, ipc_last_, pipe.now());
    if (benign) {
      ++stats_.benign_switches;
    } else {
      ++stats_.malignant_switches;
    }
    history_.record(static_cast<policy::FetchPolicy>(a.policy_before),
                    a.cond_value != 0.0, benign);
    unscored_audit_.reset();
    unscored_index_ = obs::SwitchAuditLog::npos;
  }

  // A decision still pending from the previous quantum means the DT never
  // found enough idle slots to finish Determine_NewPolicy: the pipeline
  // was saturated, drop the stale decision (paper §3).
  if (pending_audit_) {
    pending_audit_.reset();
    ++stats_.switches_skipped_dt_busy;
  }

  // Monitoring cost: the per-quantum counter scan.
  if (!cfg_.instant_switch) pipe.add_dt_work(cfg_.dt_check_instrs);

  // Machine-wide condition rates, pooled across threads. Each thread's
  // quantum window covers the `elapsed` cycles since the DT last marked
  // it (or since its program was swapped in, if that came later).
  pipeline::QuantumRates machine{};
  for (std::uint32_t tid = 0; tid < pipe.num_threads(); ++tid) {
    const pipeline::QuantumRates r =
        rates_for_quantum(pipe.counters(tid), elapsed);
    machine.ipc += r.ipc;
    machine.cond_branches_per_cycle += r.cond_branches_per_cycle;
    machine.mispredicts_per_cycle += r.mispredicts_per_cycle;
    machine.l1_misses_per_cycle += r.l1_misses_per_cycle;
    machine.lsq_full_per_cycle += r.lsq_full_per_cycle;
  }

  // Effective thresholds: static calibration, or the profiled running
  // mean (compared against the EWMA *excluding* this quantum, so a spike
  // is judged against history, then folded in).
  ConditionThresholds thresholds = cfg_.conditions;
  if (cfg_.adaptive_conditions) {
    if (!ewma_primed_) {
      ewma_ = machine;
      ewma_primed_ = true;
    }
    thresholds.l1_miss_per_cycle =
        cfg_.adaptive_factor * ewma_.l1_misses_per_cycle;
    thresholds.lsq_full_per_cycle =
        cfg_.adaptive_factor * ewma_.lsq_full_per_cycle;
    thresholds.mispredict_per_cycle =
        cfg_.adaptive_factor * ewma_.mispredicts_per_cycle;
    thresholds.cond_branch_per_cycle =
        cfg_.adaptive_factor * ewma_.cond_branches_per_cycle;
    const double a = cfg_.adaptive_alpha;
    ewma_.l1_misses_per_cycle = (1 - a) * ewma_.l1_misses_per_cycle +
                                a * machine.l1_misses_per_cycle;
    ewma_.lsq_full_per_cycle =
        (1 - a) * ewma_.lsq_full_per_cycle + a * machine.lsq_full_per_cycle;
    ewma_.mispredicts_per_cycle = (1 - a) * ewma_.mispredicts_per_cycle +
                                  a * machine.mispredicts_per_cycle;
    ewma_.cond_branches_per_cycle =
        (1 - a) * ewma_.cond_branches_per_cycle +
        a * machine.cond_branches_per_cycle;
  }

  const bool low_throughput = ipc_last_ < cfg_.ipc_threshold;
  if (low_throughput) {
    ++stats_.low_throughput_quanta;

    identify_clogging_threads(pipe);

    const SystemConditions conds = evaluate_conditions(machine, thresholds);

    const std::optional<Decision> d = determine_next_policy(
        cfg_.heuristic, pipe.policy(), conds, ipc_last_, ipc_prev_,
        &history_);
    if (d.has_value() && d->next != pipe.policy()) {
      if (d->reversed) ++stats_.switches_reversed;
      // The switch's one record: the full decision context, captured
      // now; apply_switch stamps the policy it replaces and the cycle.
      obs::SwitchAudit audit;
      audit.heuristic = static_cast<std::uint8_t>(cfg_.heuristic);
      audit.policy_after = static_cast<std::uint8_t>(d->next);
      if (d->reversed) audit.flags |= obs::kAuditReversed;
      if (conds.cond_mem) audit.flags |= obs::kAuditCondMem;
      if (conds.cond_br) audit.flags |= obs::kAuditCondBr;
      audit.quantum = pipe.now() / cfg_.quantum_cycles;
      audit.decided_cycle = pipe.now();
      audit.ipc_before = ipc_last_;
      audit.ipc_prev = ipc_prev_;
      audit.br_rate = machine.cond_branches_per_cycle;
      audit.mispredict_rate = machine.mispredicts_per_cycle;
      audit.l1_miss_rate = machine.l1_misses_per_cycle;
      audit.lsq_full_rate = machine.lsq_full_per_cycle;
      audit.cond_value = d->cond_value ? 1.0 : 0.0;

      if (cfg_.instant_switch) {
        audit.flags |= obs::kAuditInstant;
        apply_switch(pipe, audit);
      } else {
        // Any earlier decision was dropped above, so this one starts a
        // fresh Policy_Switch.
        pending_audit_ = audit;
        pipe.add_dt_work(cfg_.dt_decide_instrs);
      }
    }
  }

  pipe.mark_quantum();
}

void DetectorThread::identify_clogging_threads(pipeline::Pipeline& pipe) {
  clogging_.clear();
  std::int64_t total_icount = 0;
  for (std::uint32_t tid = 0; tid < pipe.num_threads(); ++tid) {
    total_icount += pipe.counters(tid).icount;
  }
  if (total_icount <= 0) return;
  for (std::uint32_t tid = 0; tid < pipe.num_threads(); ++tid) {
    const double share =
        static_cast<double>(pipe.counters(tid).icount) /
        static_cast<double>(total_icount);
    if (share > cfg_.clog_icount_share) {
      clogging_.push_back(tid);
      if (std::find(clog_marks_.begin(), clog_marks_.end(), tid) ==
          clog_marks_.end()) {
        clog_marks_.push_back(tid);
      }
      ++stats_.clog_flags;
      if (cfg_.enable_clog_control) {
        pipe.block_fetch(tid, pipe.now() + cfg_.clog_block_cycles);
      }
    }
  }
}

void DetectorThread::export_metrics(obs::MetricsRegistry& reg) const {
  reg.set("adts.quanta", stats_.quanta());
  reg.set("adts.low_throughput_quanta", stats_.low_throughput_quanta);
  reg.set("adts.switches", stats_.switches);
  reg.set("adts.benign_switches", stats_.benign_switches);
  reg.set("adts.malignant_switches", stats_.malignant_switches);
  reg.set("adts.benign_fraction", stats_.benign_fraction());
  reg.set("adts.switches_skipped_dt_busy", stats_.switches_skipped_dt_busy);
  reg.set("adts.switches_reversed", stats_.switches_reversed);
  reg.set("adts.clog_flags", stats_.clog_flags);
  reg.set("adts.heuristic", name(cfg_.heuristic));
  reg.set("adts.ipc_threshold", cfg_.ipc_threshold);
  for (int p = 0; p < policy::kNumFetchPolicies; ++p) {
    reg.set("adts.quanta_per_policy." +
                std::string(policy::name(static_cast<policy::FetchPolicy>(p))),
            stats_.quanta_per_policy[static_cast<std::size_t>(p)]);
  }
  audit_log_.export_metrics(reg, "audit.", [](std::uint8_t code) {
    return name(static_cast<HeuristicType>(code));
  });
}

}  // namespace smt::core
