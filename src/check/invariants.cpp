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
    case InvariantClass::kCounterMonotone: return "counter_monotone";
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
  prev_committed_ = pipe.committed_total();
  prev_policy_ = pipe.policy();
  threads_.assign(pipe.num_threads(), ThreadBase{});
  for (std::uint32_t tid = 0; tid < pipe.num_threads(); ++tid) {
    threads_[tid] = {pipe.counters(tid).total, pipe.head_seq(tid)};
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
  const pipeline::PipelineStats st = pipe.stats();
  const pipeline::PipelineConfig& mc = pipe.config();
  const std::uint64_t dc = now - prev_cycle_;  // 1 unless stepped externally

  // --- slot conservation (absolute: holds from construction) ------------
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
  const std::uint32_t n = pipe.num_threads();
  for (std::uint32_t tid = 0; tid < n; ++tid) {
    ThreadBase& b = threads_[tid];
    const pipeline::EventCounts& e = pipe.counters(tid).total;
    const std::int32_t stid = static_cast<std::int32_t>(tid);

    // Free-running event totals: monotone, and each grows by at most its
    // hard per-cycle ceiling over the cycles since the last call. Branch
    // resolutions and D-cache lookups happen once per issued instruction
    // (every branch of one issue cycle completes in one later cycle);
    // I-cache misses, LSQ-full events and stalls at most once a cycle.
    const auto bounded = [&](std::uint64_t cur, std::uint64_t prev,
                             std::uint64_t per_cycle) {
      if (cur < prev) {
        report(InvariantClass::kCounterMonotone, now, stid, cur,
               "event total went backwards");
      } else if (cur - prev > per_cycle * dc) {
        report(InvariantClass::kCounterMonotone, now, stid, cur - prev,
               "event total grew past its per-cycle ceiling");
      }
    };
    bounded(e.committed, b.events.committed, mc.commit_width);
    bounded(e.fetched, b.events.fetched, mc.fetch_width);
    bounded(e.cond_branches, b.events.cond_branches, mc.issue_width);
    bounded(e.mispredicts, b.events.mispredicts, mc.issue_width);
    bounded(e.l1d_misses, b.events.l1d_misses, mc.issue_width);
    bounded(e.l1i_misses, b.events.l1i_misses, 1);
    bounded(e.lsq_full_events, b.events.lsq_full_events, 1);
    bounded(e.stalls, b.events.stalls, 1);

    // In-order commit: the window head advances by exactly the thread's
    // retirement delta. Both run on across a context switch, so the law
    // holds over every span.
    const std::uint64_t head = pipe.head_seq(tid);
    if (e.committed >= b.events.committed &&
        head - b.head_seq != e.committed - b.events.committed) {
      report(InvariantClass::kCommitOrder, now, stid, head,
             "window head seq did not advance with retirement");
    }
    b = {e, head};
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
