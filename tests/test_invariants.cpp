// Tests: runtime invariant checker (src/check/invariants.hpp).
//
// Positive direction: checked runs of fixed-policy, ADTS, swapped and
// externally-stepped simulators report zero violations (that checking is
// a pure observation dropped on copy is tests/test_observer_contract.cpp).
// Negative direction: every invariant class has a test that
// corrupts the corresponding bookkeeping through the pipeline's
// test-only hooks and asserts the class actually fires — a checker that
// cannot fail would prove nothing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>

#include "check/invariants.hpp"
#include "obs/trace_sink.hpp"
#include "sim/simulator.hpp"
#include "workload/app_profile.hpp"
#include "workload/mix.hpp"
#include "workload/thread_program.hpp"

namespace smt {
namespace {

using check::CheckMode;
using check::InvariantClass;

sim::SimConfig checked_config(const char* mix = "bal1", std::size_t threads = 4,
                              CheckMode mode = CheckMode::kOn) {
  sim::SimConfig cfg = sim::make_config(workload::mix(mix), threads, 1);
  cfg.check = mode;
  return cfg;
}

/// Did `checker` record a violation of class `cls` with message `detail`?
bool fired(const check::InvariantChecker& checker, InvariantClass cls,
           std::string_view detail) {
  for (const check::Violation& v : checker.violations()) {
    if (v.cls == cls && v.detail == detail) return true;
  }
  return false;
}

// --- pure predicates -------------------------------------------------------

TEST(InvariantClassNames, AllDistinctAndDecodable) {
  for (std::size_t c = 0; c < check::kNumInvariantClasses; ++c) {
    const auto cls = static_cast<InvariantClass>(c);
    EXPECT_NE(check::name(cls), "unknown");
    EXPECT_EQ(check::invariant_class_name(static_cast<std::uint8_t>(c)),
              check::name(cls));
  }
  EXPECT_EQ(check::invariant_class_name(250), "unknown");
}

TEST(CheckEnabled, ExplicitModesIgnoreEnvironment) {
  EXPECT_TRUE(check::check_enabled(CheckMode::kOn));
  EXPECT_FALSE(check::check_enabled(CheckMode::kOff));
}

TEST(CheckEnabled, AutoModeReadsSmtCheckVariable) {
  const char* saved = std::getenv("SMT_CHECK");
  const std::string saved_value = saved != nullptr ? saved : "";

  ::setenv("SMT_CHECK", "1", 1);
  EXPECT_TRUE(check::check_enabled(CheckMode::kAuto));
  ::setenv("SMT_CHECK", "on", 1);
  EXPECT_TRUE(check::check_enabled(CheckMode::kAuto));
  ::setenv("SMT_CHECK", "0", 1);
  EXPECT_FALSE(check::check_enabled(CheckMode::kAuto));
  ::unsetenv("SMT_CHECK");
  EXPECT_FALSE(check::check_enabled(CheckMode::kAuto));

  if (saved != nullptr) {
    ::setenv("SMT_CHECK", saved_value.c_str(), 1);
  }
}

// --- positive runs ---------------------------------------------------------

TEST(InvariantChecker, CleanFixedPolicyRunHasNoViolations) {
  sim::Simulator s(checked_config());
  ASSERT_TRUE(s.checking_enabled());
  s.run(20000);
  EXPECT_TRUE(s.checker().ok()) << s.checker().violation_count()
                                << " violations";
  EXPECT_EQ(s.checker().violation_count(), 0u);
}

TEST(InvariantChecker, CleanSwitchingAdtsRunHasNoViolations) {
  // A short quantum on a memory-bound mix makes ADTS switch often, so
  // the policy-switch and counter passes see many live switches and
  // quantum marks.
  sim::SimConfig cfg = checked_config("mem8", 8);
  cfg.use_adts = true;
  cfg.adts.quantum_cycles = 1024;
  sim::Simulator s(cfg);
  s.run(16 * 1024);
  EXPECT_GT(s.detector().stats().switches, 0u);
  EXPECT_TRUE(s.checker().ok()) << s.checker().violation_count()
                                << " violations";
}

TEST(InvariantChecker, ContextSwitchOnLiveSimulatorIsNotFlagged) {
  // The job scheduler swaps programs on a live pipeline between steps.
  // The event totals run on across the swap, so every counter and
  // commit law holds over that span too.
  sim::Simulator s(checked_config());
  s.run(3000);
  workload::ThreadProgram incoming(workload::profile("mcf"), 1, 99);
  workload::ThreadProgram outgoing =
      s.pipeline().swap_program(1, std::move(incoming), 200);
  (void)outgoing;
  s.run(3000);
  EXPECT_TRUE(s.checker().ok()) << s.checker().violation_count()
                                << " violations";
}

TEST(InvariantChecker, ExternallySteppedPipelineGapIsTolerated) {
  // Stepping the pipeline directly bypasses the checker; the next checked
  // step sees a multi-cycle gap and must stretch its span laws over it.
  sim::Simulator s(checked_config());
  s.run(100);
  s.pipeline().run(500);
  s.run(100);
  EXPECT_TRUE(s.checker().ok()) << s.checker().violation_count()
                                << " violations";
}

// --- negative tests: every invariant class fires ---------------------------

TEST(InvariantNegative, ResourceConservationFires) {
  sim::Simulator s(checked_config());
  s.run(100);
  s.pipeline().testing_corrupt_icount(0, 3);
  s.step();
  EXPECT_FALSE(s.checker().ok());
  EXPECT_GE(s.checker().count(InvariantClass::kResourceConservation), 1u);
}

TEST(InvariantNegative, SlotConservationFires) {
  sim::Simulator s(checked_config());
  s.run(100);
  s.pipeline().testing_corrupt_stall_ledger(5);
  s.step();
  EXPECT_FALSE(s.checker().ok());
  EXPECT_GE(s.checker().count(InvariantClass::kSlotConservation), 1u);
}

TEST(InvariantNegative, CommitOrderFiresOnGlobalCounterDrift) {
  sim::Simulator s(checked_config());
  s.run(100);
  s.pipeline().testing_corrupt_committed(10);
  s.step();
  EXPECT_FALSE(s.checker().ok());
  EXPECT_GE(s.checker().count(InvariantClass::kCommitOrder), 1u);
}

TEST(InvariantNegative, CommitOrderFiresOnHeadSeqDrift) {
  sim::Simulator s(checked_config());
  s.run(100);
  s.pipeline().testing_corrupt_head_seq(0, 5);
  s.step();
  EXPECT_FALSE(s.checker().ok());
  EXPECT_GE(s.checker().count(InvariantClass::kCommitOrder), 1u);
}

TEST(InvariantNegative, CommitOrderFiresOnWindowSeqGap) {
  sim::Simulator s(checked_config());
  s.run(300);
  // The window can be transiently empty (mid-squash); step until it isn't.
  bool corrupted = false;
  for (int attempt = 0; attempt < 200 && !corrupted; ++attempt) {
    corrupted = s.pipeline().testing_corrupt_window_seq(0);
    if (!corrupted) s.step();
  }
  ASSERT_TRUE(corrupted) << "window stayed empty for 200 cycles";
  s.step();
  EXPECT_FALSE(s.checker().ok());
  EXPECT_GE(s.checker().count(InvariantClass::kCommitOrder), 1u);
}

TEST(InvariantNegative, CounterMonotoneFiresOnDecrementedTotal) {
  sim::Simulator s(checked_config());
  s.run(2000);
  ASSERT_GT(s.pipeline().counters(0).total.committed, 0u);
  s.pipeline().testing_corrupt_thread_committed(0, -1);
  s.step();
  EXPECT_TRUE(fired(s.checker(), InvariantClass::kCounterMonotone,
                    "event total went backwards"));
}

TEST(InvariantNegative, CounterMonotoneFiresOnBumpedTotal) {
  sim::Simulator s(checked_config());
  s.run(100);
  s.pipeline().testing_corrupt_thread_committed(0, std::int64_t{1} << 40);
  s.step();
  EXPECT_TRUE(fired(s.checker(), InvariantClass::kCounterMonotone,
                    "event total grew past its per-cycle ceiling"));
}

TEST(InvariantNegative, CommitOrderFiresOnThreadCommitsAcrossASwap) {
  // One commit too many on the swapped-in thread, within every ceiling:
  // only the commit laws can see it, and they hold across the swap.
  sim::Simulator s(checked_config());
  s.run(3000);
  workload::ThreadProgram incoming(workload::profile("mcf"), 1, 99);
  (void)s.pipeline().swap_program(1, std::move(incoming), 200);
  s.pipeline().testing_corrupt_thread_committed(1, 1);
  s.step();
  EXPECT_EQ(s.checker().count(InvariantClass::kCounterMonotone), 0u);
  EXPECT_TRUE(fired(s.checker(), InvariantClass::kCommitOrder,
                    "window head seq did not advance with retirement"));
}

TEST(InvariantNegative, PolicySwitchFires) {
  sim::Simulator s(checked_config());  // ADTS off: policy must stay fixed
  s.run(100);
  s.pipeline().set_policy(policy::FetchPolicy::kBrcount);
  s.step();
  EXPECT_FALSE(s.checker().ok());
  EXPECT_GE(s.checker().count(InvariantClass::kPolicySwitch), 1u);
}

// --- diagnostics -----------------------------------------------------------

TEST(InvariantChecker, ViolationsCarryContextAndReportRenders) {
  sim::Simulator s(checked_config());
  s.run(100);
  s.pipeline().testing_corrupt_stall_ledger(7);
  s.step();
  ASSERT_FALSE(s.checker().violations().empty());
  const check::Violation& v = s.checker().violations().front();
  EXPECT_EQ(v.cls, InvariantClass::kSlotConservation);
  EXPECT_GT(v.cycle, 0u);
  EXPECT_NE(std::string(v.detail), "");

  std::ostringstream os;
  s.checker().write_report(os);
  const std::string report = os.str();
  EXPECT_NE(report.find("slot_conservation"), std::string::npos);
  EXPECT_NE(report.find("FAILED"), std::string::npos);
}

TEST(InvariantChecker, CleanReportIsEmpty) {
  sim::Simulator s(checked_config());
  s.run(100);
  std::ostringstream os;
  s.checker().write_report(os);
  EXPECT_EQ(os.str(), "");
}

TEST(InvariantChecker, ViolationsEmitTraceEvents) {
  sim::Simulator s(checked_config());
  obs::TraceSink sink;
  s.attach_trace(&sink);
  s.run(100);
  s.pipeline().testing_corrupt_icount(0, 2);
  s.step();
  bool found = false;
  for (const obs::TraceEvent& e : sink.snapshot()) {
    if (e.kind == obs::EventKind::kInvariant) {
      EXPECT_EQ(e.code, static_cast<std::uint8_t>(
                            InvariantClass::kResourceConservation));
      found = true;
    }
  }
  EXPECT_TRUE(found);
  s.attach_trace(nullptr);
}

}  // namespace
}  // namespace smt
