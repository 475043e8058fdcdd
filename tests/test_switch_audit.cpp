// Tests: switch-audit provenance — the shared benign/malignant classifier
// (obs/switch_audit.hpp), the audit log container, and the detector
// integration: every applied ADTS switch gets one audit record whose
// label agrees with the AdtsStats counters, the audit.* metrics, the
// Type 4 switch history and the kSwitchAudit trace events, the trace's
// only switch rows.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>

#include "check/invariants.hpp"
#include "core/detector.hpp"
#include "core/heuristics.hpp"
#include "core/history.hpp"
#include "obs/metrics.hpp"
#include "obs/switch_audit.hpp"
#include "obs/trace_sink.hpp"
#include "policy/fetch_policy.hpp"
#include "sim/simulator.hpp"
#include "workload/mix.hpp"

namespace smt {
namespace {

// ---------------------------------------------------------------------------
// Classifier (the single shared definition).
// ---------------------------------------------------------------------------

TEST(SwitchClassifier, BenignRequiresStrictImprovement) {
  EXPECT_EQ(obs::classify_switch(0.5, 0.6), obs::SwitchLabel::kBenign);
  EXPECT_EQ(obs::classify_switch(0.5, 0.4), obs::SwitchLabel::kMalignant);
  // The paper reads "did the switch help": a tie did not help.
  EXPECT_EQ(obs::classify_switch(0.5, 0.5), obs::SwitchLabel::kMalignant);
  EXPECT_EQ(obs::classify_switch(0.0, 0.0), obs::SwitchLabel::kMalignant);
}

TEST(SwitchClassifier, BenignProbabilityIgnoresNeutral) {
  EXPECT_DOUBLE_EQ(obs::benign_probability(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(obs::benign_probability(3, 1), 0.75);
  EXPECT_DOUBLE_EQ(obs::benign_probability(0, 5), 0.0);
}

TEST(SwitchClassifier, FlagNamesRenderPipeSeparated) {
  EXPECT_EQ(obs::audit_flag_names(0), "-");
  EXPECT_EQ(obs::audit_flag_names(obs::kAuditReversed), "reversed");
  EXPECT_EQ(obs::audit_flag_names(obs::kAuditInstant | obs::kAuditCondBr),
            "instant|cond_br");
}

// ---------------------------------------------------------------------------
// Audit log container.
// ---------------------------------------------------------------------------

TEST(SwitchAuditLog, ScoreAppliesTheSharedClassifier) {
  obs::SwitchAuditLog log;
  obs::SwitchAudit a;
  a.ipc_before = 0.5;
  const std::size_t up = log.push(a);
  const std::size_t down = log.push(a);
  log.score(up, 0.9, 100);
  log.score(down, 0.2, 200);
  EXPECT_EQ(log[up].label, obs::SwitchLabel::kBenign);
  EXPECT_EQ(log[down].label, obs::SwitchLabel::kMalignant);
  EXPECT_EQ(log[down].scored_cycle, 200u);
  EXPECT_EQ(log.count(obs::SwitchLabel::kBenign), 1u);
  EXPECT_EQ(log.count(obs::SwitchLabel::kMalignant), 1u);
  EXPECT_EQ(log.count(obs::SwitchLabel::kNeutral), 0u);
}

TEST(SwitchAuditLog, CapacityDropsAreCountedNotRecorded) {
  obs::SwitchAuditLog log(2);
  obs::SwitchAudit a;
  EXPECT_NE(log.push(a), obs::SwitchAuditLog::npos);
  EXPECT_NE(log.push(a), obs::SwitchAuditLog::npos);
  EXPECT_EQ(log.push(a), obs::SwitchAuditLog::npos);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  log.score(obs::SwitchAuditLog::npos, 1.0, 1);  // must be a safe no-op
}

TEST(SwitchAuditLog, ToTraceEventKeepsUnscoredDistinct) {
  obs::SwitchAudit a;
  a.ipc_before = 0.4;
  a.decided_cycle = 100;
  a.applied_cycle = 180;
  const obs::TraceEvent unscored = obs::to_trace_event(a);
  EXPECT_EQ(unscored.kind, obs::EventKind::kSwitchAudit);
  EXPECT_EQ(unscored.span, 80u);
  EXPECT_TRUE(std::isnan(unscored.ipc));  // "no data yet", not 0.0
  EXPECT_DOUBLE_EQ(unscored.fetch_share, 0.4);

  a.scored = true;
  a.ipc_after = 0.7;
  a.label = obs::SwitchLabel::kBenign;
  const obs::TraceEvent scored = obs::to_trace_event(a);
  EXPECT_DOUBLE_EQ(scored.ipc, 0.7);
  EXPECT_EQ(scored.value,
            static_cast<std::uint64_t>(obs::SwitchLabel::kBenign));
}

// ---------------------------------------------------------------------------
// Detector integration: one audit per applied switch, labels consistent
// everywhere the classification is reported.
// ---------------------------------------------------------------------------

sim::SimConfig adts_config(const char* mix_name) {
  sim::SimConfig cfg = sim::make_config(workload::mix(mix_name), 8, 2003);
  cfg.use_adts = true;
  cfg.adts.quantum_cycles = 1024;
  return cfg;
}

std::uint64_t metric_u64(const obs::MetricsRegistry& reg, const char* key) {
  const auto v = reg.find(key);
  EXPECT_TRUE(v.has_value()) << key;
  return v.has_value() ? std::get<std::uint64_t>(*v) : 0;
}

TEST(SwitchAuditIntegration, OneRecordPerAppliedSwitchLabelsMatchStats) {
  sim::Simulator s(adts_config("mem8"));
  s.run(32 * 1024);
  const core::AdtsStats& stats = s.detector().stats();
  const obs::SwitchAuditLog& log = s.detector().audit_log();
  ASSERT_GT(stats.switches, 0u);
  EXPECT_EQ(log.size(), stats.switches);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.count(obs::SwitchLabel::kBenign), stats.benign_switches);
  EXPECT_EQ(log.count(obs::SwitchLabel::kMalignant),
            stats.malignant_switches);
  for (const obs::SwitchAudit& a : log.entries()) {
    EXPECT_GE(a.applied_cycle, a.decided_cycle);
    if (!a.scored) continue;
    // The stored label must be exactly what the shared classifier says
    // about the stored before/after pair.
    EXPECT_EQ(a.label, obs::classify_switch(a.ipc_before, a.ipc_after));
    EXPECT_GT(a.scored_cycle, a.applied_cycle);
  }
}

TEST(SwitchAuditIntegration, MetricsAgreeWithTheLog) {
  sim::Simulator s(adts_config("mem8"));
  s.run(32 * 1024);
  obs::MetricsRegistry reg;
  s.export_metrics(reg);
  const obs::SwitchAuditLog& log = s.detector().audit_log();
  EXPECT_EQ(metric_u64(reg, "audit.records"), log.size());
  EXPECT_EQ(metric_u64(reg, "audit.benign"),
            log.count(obs::SwitchLabel::kBenign));
  EXPECT_EQ(metric_u64(reg, "audit.malignant"),
            log.count(obs::SwitchLabel::kMalignant));
  EXPECT_EQ(metric_u64(reg, "audit.neutral"),
            log.count(obs::SwitchLabel::kNeutral));
}

TEST(SwitchAuditIntegration, TraceEmitsEveryRecordAfterFlush) {
  sim::Simulator s(adts_config("mem8"));
  obs::TraceSink sink;
  s.attach_trace(&sink);
  s.run(32 * 1024);
  s.flush_trace();
  const obs::SwitchAuditLog& log = s.detector().audit_log();
  ASSERT_GT(log.size(), 0u);
  std::uint64_t benign = 0;
  std::uint64_t malignant = 0;
  std::uint64_t neutral = 0;
  std::size_t audits = 0;
  for (const obs::TraceEvent& e : sink.snapshot()) {
    if (e.kind != obs::EventKind::kSwitchAudit) continue;
    ++audits;
    switch (static_cast<obs::SwitchLabel>(e.value)) {
      case obs::SwitchLabel::kBenign: ++benign; break;
      case obs::SwitchLabel::kMalignant: ++malignant; break;
      default: ++neutral; break;
    }
  }
  EXPECT_EQ(audits, log.size());
  EXPECT_EQ(benign, log.count(obs::SwitchLabel::kBenign));
  EXPECT_EQ(malignant, log.count(obs::SwitchLabel::kMalignant));
  // An unscored trailing switch is emitted by the flush as neutral.
  EXPECT_EQ(neutral, log.count(obs::SwitchLabel::kNeutral));
}

/// A checked Type 4 run: the heuristic that reads the switch history
/// the detector writes when it scores a switch.
sim::SimConfig type4_config() {
  sim::SimConfig cfg = adts_config("ctrl8");
  cfg.adts.heuristic = core::HeuristicType::kType4;
  cfg.check = check::CheckMode::kOn;
  return cfg;
}

std::size_t occurrences(const std::string& text, std::string_view needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST(SwitchAuditIntegration, HistoryCountsEqualTheScoredAudits) {
  sim::Simulator s(type4_config());
  s.run(64 * 1024);
  ASSERT_TRUE(s.checker().ok());
  const core::DetectorThread& dt = s.detector();
  ASSERT_EQ(dt.audit_log().dropped(), 0u);
  // Every (incumbent, condition) bucket holds exactly the scored audit
  // entries that left that policy under that condition value.
  std::uint64_t scored = 0;
  std::size_t buckets = 0;
  for (const policy::FetchPolicy p : policy::all_policies()) {
    for (const bool cond : {false, true}) {
      core::SwitchOutcomeCounts want;
      for (const obs::SwitchAudit& a : dt.audit_log().entries()) {
        if (!a.scored || a.policy_before != static_cast<std::uint8_t>(p) ||
            (a.cond_value != 0.0) != cond) {
          continue;
        }
        ++(a.label == obs::SwitchLabel::kBenign ? want.poscnt : want.negcnt);
      }
      const core::SwitchOutcomeCounts& got = dt.history().counts(p, cond);
      EXPECT_EQ(got.poscnt, want.poscnt) << policy::name(p) << " cond "
                                         << cond;
      EXPECT_EQ(got.negcnt, want.negcnt) << policy::name(p) << " cond "
                                         << cond;
      scored += want.poscnt + want.negcnt;
      buckets += (want.poscnt + want.negcnt) != 0 ? 1 : 0;
    }
  }
  EXPECT_GT(buckets, 1u) << "the run must exercise several buckets";
  EXPECT_EQ(scored,
            dt.stats().benign_switches + dt.stats().malignant_switches);
}

TEST(SwitchAuditIntegration, SwitchAuditRowsAreTheTracesOnlySwitchRows) {
  sim::Simulator s(type4_config());
  obs::TraceSink sink;
  s.attach_trace(&sink);
  s.run(64 * 1024);
  s.flush_trace();
  ASSERT_TRUE(s.checker().ok());
  obs::MetricsRegistry reg;
  s.export_metrics(reg);
  std::ostringstream os;
  sink.write(os);
  const std::string jsonl = os.str();
  const std::uint64_t switches = metric_u64(reg, "adts.switches");
  ASSERT_GT(switches, 0u);
  EXPECT_EQ(occurrences(jsonl, "\"event\":\"policy_switch\""), 0u);
  EXPECT_EQ(occurrences(jsonl, "\"event\":\"switch_audit\""), switches);
  EXPECT_EQ(metric_u64(reg, "audit.records"), switches);
}

}  // namespace
}  // namespace smt
