// Unit and integration tests: the observability layer (src/obs/) and its
// simulator instrumentation — TraceSink ring semantics, backend
// serialization, trace determinism and the MetricsRegistry --stats-json
// round trip. The observer contract (attaching a sink never perturbs the
// run; copies drop it) is tests/test_observer_contract.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "check/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"
#include "workload/app_profile.hpp"
#include "workload/mix.hpp"
#include "workload/thread_program.hpp"

namespace smt::obs {
namespace {

TraceEvent event_at(std::uint64_t cycle) {
  TraceEvent e;
  e.kind = EventKind::kQuantum;
  e.cycle = cycle;
  return e;
}

TEST(TraceSink, KeepsEventsInOrderBelowCapacity) {
  TraceSink sink(8);
  for (std::uint64_t i = 0; i < 5; ++i) sink.record(event_at(i));
  EXPECT_EQ(sink.size(), 5u);
  EXPECT_EQ(sink.dropped(), 0u);
  const auto evs = sink.snapshot();
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(evs[i].cycle, i);
}

TEST(TraceSink, RingDropsOldestAndCountsDrops) {
  TraceSink sink(4);
  for (std::uint64_t i = 0; i < 10; ++i) sink.record(event_at(i));
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
  const auto evs = sink.snapshot();
  ASSERT_EQ(evs.size(), 4u);
  // The newest four survive, oldest-first.
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(evs[i].cycle, 6 + i);
}

TEST(TraceSink, ClearResetsRingAndDropCounter) {
  TraceSink sink(2);
  for (std::uint64_t i = 0; i < 5; ++i) sink.record(event_at(i));
  sink.clear();
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(sink.dropped(), 0u);
  sink.record(event_at(42));
  EXPECT_EQ(sink.snapshot().at(0).cycle, 42u);
}

using test::flatten_json;

TEST(MetricsRegistry, WritesNestedJsonFromDottedNames) {
  MetricsRegistry reg;
  reg.set("adts.switches", std::uint64_t{7});
  reg.set("adts.benign_fraction", 0.5);
  reg.set("machine.ipc", 3.25);
  reg.set("config.mode", "adts");
  std::ostringstream os;
  reg.write_json(os);

  const auto flat = flatten_json(os.str());
  EXPECT_EQ(flat.at("adts.switches"), "7");
  EXPECT_EQ(flat.at("adts.benign_fraction"), "0.5");
  EXPECT_EQ(flat.at("machine.ipc"), "3.25");
  EXPECT_EQ(flat.at("config.mode"), "adts");
}

TEST(MetricsRegistry, NonFiniteDoublesSerializeAsNull) {
  MetricsRegistry reg;
  reg.set("stat.min", std::nan(""));
  reg.set("stat.max", 2.0);
  std::ostringstream os;
  reg.write_json(os);
  const auto flat = flatten_json(os.str());
  EXPECT_EQ(flat.at("stat.min"), "null");
  EXPECT_EQ(flat.at("stat.max"), "2");
}

TEST(MetricsRegistry, RepeatedSetKeepsLastValueAndFindSeesIt) {
  MetricsRegistry reg;
  reg.set("x", std::uint64_t{1});
  reg.set("x", std::uint64_t{2});
  EXPECT_EQ(reg.size(), 1u);
  const auto v = reg.find("x");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(std::get<std::uint64_t>(*v), 2u);
  EXPECT_FALSE(reg.find("absent").has_value());
}

// ---------------------------------------------------------------------------
// Simulator integration.
// ---------------------------------------------------------------------------

sim::SimConfig traced_config(const char* mix_name, bool adts) {
  sim::SimConfig cfg = sim::make_config(workload::mix(mix_name), 8, 2003);
  cfg.adts.quantum_cycles = 1024;
  cfg.use_adts = adts;
  return cfg;
}

TEST(SimulatorTrace, SameSeedAndConfigGiveByteIdenticalJsonl) {
  const sim::SimConfig cfg = traced_config("bal1", /*adts=*/true);
  sim::Simulator a(cfg);
  sim::Simulator b(cfg);
  TraceSink sa;
  TraceSink sb;
  a.attach_trace(&sa);
  b.attach_trace(&sb);
  a.run(8 * 1024);
  b.run(8 * 1024);
  std::ostringstream ja;
  std::ostringstream jb;
  sa.write(ja);
  sb.write(jb);
  ASSERT_GT(sa.size(), 0u);
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(SimulatorTrace, QuantumSnapshotsCoverMachineAndEveryThread) {
  const sim::SimConfig cfg = traced_config("ilp8", /*adts=*/false);
  sim::Simulator s(cfg);
  TraceSink sink;
  s.attach_trace(&sink);
  s.run(4 * 1024);  // 4 quanta at 1024 cycles
  std::size_t machine_rows = 0;
  std::size_t thread_rows = 0;
  for (const TraceEvent& e : sink.snapshot()) {
    if (e.kind == EventKind::kQuantum) {
      ++machine_rows;
      EXPECT_EQ(e.tid, -1);
      EXPECT_EQ(e.span, 1024u);
    } else if (e.kind == EventKind::kThreadQuantum) {
      ++thread_rows;
      EXPECT_GE(e.tid, 0);
      EXPECT_LT(e.tid, 8);
    }
  }
  EXPECT_EQ(machine_rows, 4u);
  EXPECT_EQ(thread_rows, 4u * 8u);
}

TEST(SimulatorTrace, ThreadRowsConserveCommitsAcrossASwap) {
  // A program swapped in mid-quantum: the context's row for that quantum
  // still counts the outgoing job's commits before the swap, so the
  // thread rows sum to what the machine committed while traced.
  sim::SimConfig cfg = traced_config("bal1", /*adts=*/true);
  cfg.check = check::CheckMode::kOn;
  sim::Simulator s(cfg);
  s.run(2 * 1024);  // untraced
  TraceSink sink;
  s.attach_trace(&sink);
  const std::uint64_t committed0 = s.committed();
  s.run(1024);
  const std::uint64_t at_boundary = s.pipeline().counters(3).total.committed;
  s.run(300);
  ASSERT_GT(s.pipeline().counters(3).total.committed, at_boundary)
      << "the outgoing job must commit in the quantum it is swapped out of";
  workload::ThreadProgram incoming(workload::profile("mcf"), 9, 99);
  (void)s.pipeline().swap_program(3, std::move(incoming), 64);
  s.run(1024 - 300 + 1024);  // ends on a quantum boundary
  std::uint64_t rows = 0;
  for (const TraceEvent& e : sink.snapshot()) {
    if (e.kind == EventKind::kThreadQuantum) {
      rows += static_cast<std::uint64_t>(e.value);
    }
  }
  EXPECT_EQ(rows, s.committed() - committed0);
  EXPECT_TRUE(s.checker().ok());
}

TEST(SimulatorTrace, ChromeBackendEmitsAWellFormedDocument) {
  const sim::SimConfig cfg = traced_config("mem8", /*adts=*/true);
  sim::Simulator s(cfg);
  TraceSink sink;
  s.attach_trace(&sink);
  s.run(4 * 1024);
  std::ostringstream os;
  TraceSink::write_chrome(os, sink.snapshot(), sim::trace_decoder());
  const std::string doc = os.str();
  EXPECT_EQ(doc.rfind("{\"displayTimeUnit\"", 0), 0u);
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  // Balanced braces/brackets ⇒ structurally sound JSON for this writer.
  long depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char ch = doc[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    else if (ch == '{' || ch == '[') ++depth;
    else if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(SimulatorTrace, ExportMetricsRoundTripsThroughJson) {
  const sim::SimConfig cfg = traced_config("ctrl8", /*adts=*/true);
  sim::Simulator s(cfg);
  s.run(8 * 1024);
  MetricsRegistry reg;
  s.export_metrics(reg);
  std::ostringstream os;
  reg.write_json(os);
  const auto flat = flatten_json(os.str());

  // Every registered entry must survive the write → parse round trip
  // with its value intact.
  EXPECT_EQ(flat.at("config.mode"), "adts");
  EXPECT_EQ(flat.at("machine.cycles"),
            std::to_string(s.pipeline().stats().cycles));
  EXPECT_EQ(flat.at("machine.committed"), std::to_string(s.committed()));
  EXPECT_EQ(flat.at("adts.switches"),
            std::to_string(s.detector().stats().switches));
  EXPECT_EQ(flat.at("threads.0.committed"),
            std::to_string(s.pipeline().counters(0).since_load().committed));
  EXPECT_EQ(flat.at("threads.7.stalls.icache_miss"),
            std::to_string(s.pipeline().stall_breakdown(7)[
                StallCause::kIcacheMiss]));

  // Acceptance invariant: per-thread stall causes sum to the total lost
  // fetch slots (idle minus what the detector thread absorbed).
  std::uint64_t charged = std::stoull(flat.at("machine.charged_stall_slots"));
  std::uint64_t summed = 0;
  for (int tid = 0; tid < 8; ++tid) {
    summed += std::stoull(
        flat.at("threads." + std::to_string(tid) + ".stall_slots"));
  }
  for (std::size_t c = 0; c < kNumStallCauses; ++c) {
    summed += std::stoull(flat.at(
        "machine.stalls." +
        std::string(name(static_cast<StallCause>(c)))));
  }
  EXPECT_EQ(summed, charged);
  EXPECT_EQ(charged + std::stoull(flat.at("machine.dt_slots_used")),
            std::stoull(flat.at("machine.fetch_slots_idle")));
}

}  // namespace
}  // namespace smt::obs
