#include "check/invariants.hpp"

#include <cstdlib>
#include <ostream>

#include "pipeline/config.hpp"
#include "pipeline/counters.hpp"
#include "pipeline/pipeline.hpp"
#include "policy/fetch_policy.hpp"

namespace smt::check {

bool check_enabled(CheckMode m) noexcept {
  switch (m) {
    case CheckMode::kOn: return true;
    case CheckMode::kOff: return false;
    case CheckMode::kAuto: break;
  }
  const char* env = std::getenv("SMT_CHECK");
  if (env == nullptr) return false;
  const std::string_view v(env);
  return v == "1" || v == "on" || v == "true";
}

std::string_view name(InvariantClass c) noexcept {
  switch (c) {
    case InvariantClass::kResourceConservation: return "resource_conservation";
    case InvariantClass::kSlotConservation: return "slot_conservation";
    case InvariantClass::kCommitOrder: return "commit_order";
    case InvariantClass::kCounterEpoch: return "counter_epoch";
    case InvariantClass::kPolicySwitch: return "policy_switch";
  }
  return "unknown";
}

std::string_view invariant_class_name(std::uint8_t code) noexcept {
  if (code >= kNumInvariantClasses) return "unknown";
  return name(static_cast<InvariantClass>(code));
}

void InvariantChecker::report(InvariantClass cls, std::uint64_t cycle,
                              std::int32_t tid, std::uint64_t value,
                              const char* detail) {
  ++total_;
  ++per_class_[static_cast<std::size_t>(cls)];
  if (log_.size() < kMaxRecorded) {
    log_.push_back(Violation{cls, cycle, tid, value, detail});
  }
}

void InvariantChecker::arm(const pipeline::Pipeline& pipe) {
  armed_ = true;
  prev_cycle_ = pipe.now();
  prev_committed_ = pipe.stats().committed;
  prev_policy_ = pipe.policy();
  threads_.assign(pipe.num_threads(), ThreadBase{});
  for (std::uint32_t tid = 0; tid < pipe.num_threads(); ++tid) {
    ThreadBase& b = threads_[tid];
    b.committed_total = pipe.counters(tid).committed_total;
    b.head_seq = pipe.head_seq(tid);
    b.committed_quantum = pipe.counters(tid).committed_quantum;
    b.quantum_epoch = pipe.quantum_epoch(tid);
    b.life_epoch = pipe.life_epoch(tid);
    // Cycle 0 is a safe (over-permissive) restart baseline: the
    // plausibility ceilings are hard maxima, so overestimating the span
    // an accumulator covers can only make them looser.
    b.epoch_base_cycle = 0;
  }
}

std::size_t InvariantChecker::on_cycle(const pipeline::Pipeline& pipe,
                                       bool adts_enabled) {
  if (!armed_) {
    arm(pipe);
    return 0;
  }
  const std::size_t recorded_before = log_.size();
  const std::uint64_t now = pipe.now();
  const pipeline::PipelineStats& st = pipe.stats();
  const pipeline::PipelineConfig& mc = pipe.config();
  const std::uint64_t dc = now - prev_cycle_;  // 1 unless stepped externally

  // --- slot conservation (absolute: holds from construction) ------------
  if (st.cycles != now) {
    report(InvariantClass::kSlotConservation, now, -1, st.cycles,
           "cycle counter out of sync with pipeline clock");
  }
  const std::uint64_t slot_budget = st.cycles * mc.fetch_width;
  if (st.fetched + st.fetch_slots_idle != slot_budget) {
    report(InvariantClass::kSlotConservation, now, -1,
           st.fetched + st.fetch_slots_idle,
           "fetched + idle slots != cycles * fetch_width");
  }
  const std::uint64_t charged = pipe.charged_stall_slots();
  if (charged + st.dt_slots_used != st.fetch_slots_idle) {
    report(InvariantClass::kSlotConservation, now, -1,
           charged + st.dt_slots_used,
           "charged stall slots + DT slots != idle slots");
  }

  // --- commit order: machine-wide span laws ------------------------------
  const std::uint64_t commit_d = st.committed - prev_committed_;
  if (st.committed < prev_committed_) {
    report(InvariantClass::kCommitOrder, now, -1, st.committed,
           "global retirement counter went backwards");
  } else if (dc > 0 && commit_d > dc * mc.commit_width) {
    report(InvariantClass::kCommitOrder, now, -1, commit_d,
           "retired more than commit_width per cycle");
  }

  // --- per-thread passes --------------------------------------------------
  std::uint64_t thread_commit_sum = 0;
  bool sum_valid = true;
  const std::uint32_t n = pipe.num_threads();
  for (std::uint32_t tid = 0; tid < n; ++tid) {
    ThreadBase& b = threads_[tid];
    const pipeline::ThreadCounters& c = pipe.counters(tid);
    const std::uint64_t life = pipe.life_epoch(tid);
    const std::uint64_t qep = pipe.quantum_epoch(tid);
    const std::int32_t stid = static_cast<std::int32_t>(tid);

    // Counter epochs: monotone generations.
    if (life < b.life_epoch) {
      report(InvariantClass::kCounterEpoch, now, stid, life,
             "life epoch went backwards");
    }
    if (qep < b.quantum_epoch) {
      report(InvariantClass::kCounterEpoch, now, stid, qep,
             "quantum epoch went backwards");
    }
    const bool life_reset = life != b.life_epoch;
    const bool quantum_reset = qep != b.quantum_epoch;
    if (quantum_reset) {
      // The reset happened somewhere in [prev_cycle_, now] (at
      // prev_cycle_ itself when a swap or re-arm came between two run()
      // calls); baselining at prev_cycle_ keeps the span an upper bound
      // also when one call covers a multi-cycle leap.
      b.epoch_base_cycle = prev_cycle_;
    } else if (c.committed_quantum < b.committed_quantum) {
      report(InvariantClass::kCounterEpoch, now, stid, c.committed_quantum,
             "quantum accumulator shrank without an epoch bump");
    }

    // Physical ceilings over the span the accumulators cover.
    const std::uint64_t elapsed = now - b.epoch_base_cycle;
    if (elapsed > 0 &&
        !pipeline::counters_plausible(c, elapsed, mc.commit_width,
                                      mc.rob_per_thread)) {
      report(InvariantClass::kCounterEpoch, now, stid, c.committed_quantum,
             "counter sample violates a hard physical ceiling");
    }

    // In-order commit: the window head advances by exactly the thread's
    // retirement delta. A context switch (life reset) restarts the
    // committed counter, so that span is unattributable — skip once.
    if (life_reset) {
      sum_valid = false;
    } else if (c.committed_total < b.committed_total) {
      report(InvariantClass::kCommitOrder, now, stid, c.committed_total,
             "thread retirement counter went backwards");
      sum_valid = false;
    } else {
      const std::uint64_t td = c.committed_total - b.committed_total;
      thread_commit_sum += td;
      const std::uint64_t head = pipe.head_seq(tid);
      if (head - b.head_seq != td) {
        report(InvariantClass::kCommitOrder, now, stid, head,
               "window head seq did not advance with retirement");
        sum_valid = false;
      }
    }

    b.committed_total = c.committed_total;
    b.head_seq = pipe.head_seq(tid);
    b.committed_quantum = c.committed_quantum;
    b.quantum_epoch = qep;
    b.life_epoch = life;
  }
  if (sum_valid && thread_commit_sum != commit_d) {
    report(InvariantClass::kCommitOrder, now, -1, thread_commit_sum,
           "machine retirement != sum of per-thread retirements");
  }

  // --- policy-switch legality --------------------------------------------
  const policy::FetchPolicy pol = pipe.policy();
  if (pol != prev_policy_ && !adts_enabled) {
    report(InvariantClass::kPolicySwitch, now, -1,
           static_cast<std::uint64_t>(pol),
           "fetch policy changed while ADTS could not act");
  }
  prev_policy_ = pol;

  // --- resource conservation (structural recount) ------------------------
  const pipeline::Pipeline::ResourceAudit a = pipe.audit_resources();
  if (!a.ok) {
    if (a.thread_mismatch != 0) {
      report(InvariantClass::kResourceConservation, now, -1,
             a.thread_mismatch,
             "occupancy counters disagree with window recount");
    }
    if (a.seq_mismatch != 0) {
      report(InvariantClass::kCommitOrder, now, -1, a.seq_mismatch,
             "window seqs not contiguous from head_seq");
    }
    if (a.lsq_mismatch) {
      report(InvariantClass::kResourceConservation, now, -1, 0,
             "LSQ occupancy disagrees with held entries");
    }
    if (a.int_rename_mismatch || a.fp_rename_mismatch) {
      report(InvariantClass::kResourceConservation, now, -1,
             a.int_rename_mismatch ? 0 : 1,
             "rename registers held + free != configured");
    }
    if (a.iq_overflow) {
      report(InvariantClass::kResourceConservation, now, -1, 0,
             "instruction queue beyond configured capacity");
    }
  }

  prev_cycle_ = now;
  prev_committed_ = st.committed;
  return log_.size() - recorded_before;
}

void InvariantChecker::write_report(std::ostream& os) const {
  if (ok()) return;
  os << "invariant check FAILED: " << total_ << " violation(s)\n";
  for (std::size_t c = 0; c < kNumInvariantClasses; ++c) {
    if (per_class_[c] == 0) continue;
    os << "  " << name(static_cast<InvariantClass>(c)) << ": "
       << per_class_[c] << '\n';
  }
  const std::size_t shown = log_.size();
  os << "  first " << shown << " violation(s):\n";
  for (const Violation& v : log_) {
    os << "    cycle " << v.cycle << " [" << name(v.cls) << "] ";
    if (v.tid >= 0) os << "tid " << v.tid << ": ";
    os << v.detail << " (value " << v.value << ")\n";
  }
}

}  // namespace smt::check
