// Unit tests: the JSONL trace reader (obs/trace_read.hpp) and the schema
// it shares with the writer (obs/trace_schema.hpp) — byte-exact round
// trips through write_jsonl and write_chrome, the pinned schema digest,
// and rejection of hostile lines with TraceReadError.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/build_info.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_read.hpp"
#include "obs/trace_schema.hpp"
#include "obs/trace_sink.hpp"
#include "sim/simulator.hpp"
#include "workload/mix.hpp"

namespace smt::obs {
namespace {

RunInfo sample_run_info() {
  RunInfo info;
  info.tool = "smtsim";
  info.version = "1.0.0";
  info.git_sha = "0123456789ab";
  info.compiler = "gcc \"quoted\"\tand tabbed";
  info.flags = "Release -O3";
  info.seed = 18446744073709551615ull;
  info.config_digest = 0x00c0ffee12345678ull;
  info.host_cpu = "Test CPU";
  info.host_cores = 4;
  info.smt_jobs = 2;
  return info;
}

/// A traced mem8 ADTS run carrying every row kind the simulator emits
/// without a violation: quanta, thread quanta, switches, audits,
/// pipeview and cpi_stack.
std::vector<TraceEvent> traced_run() {
  sim::SimConfig cfg = sim::make_config(workload::mix("mem8"), 8, 2003);
  cfg.use_adts = true;
  cfg.adts.quantum_cycles = 1024;
  cfg.cpi = true;
  cfg.pipeview = {{2048, 32}, {6144, 16}};
  sim::Simulator s(cfg);
  TraceSink sink;
  s.attach_trace(&sink);
  s.run(16 * 1024);
  s.flush_trace();
  return sink.snapshot();
}

std::string jsonl_of(const std::vector<TraceEvent>& evs,
                     const RunInfo* info = nullptr) {
  std::ostringstream os;
  TraceSink::write_jsonl(os, evs, info);
  return os.str();
}

ReadTrace read_text(const std::string& text) {
  std::istringstream is(text);
  return read_trace(is);
}

TEST(TraceRead, JsonlRoundTripIsByteIdentical) {
  const std::vector<TraceEvent> evs = traced_run();
  std::vector<bool> seen(kEventKindNames.size(), false);
  for (const TraceEvent& e : evs) seen[static_cast<std::size_t>(e.kind)] = true;
  for (const EventKind k :
       {EventKind::kQuantum, EventKind::kThreadQuantum, EventKind::kPipeview,
        EventKind::kSwitchAudit, EventKind::kCpiStack}) {
    EXPECT_TRUE(seen[static_cast<std::size_t>(k)]) << name(k);
  }

  const RunInfo info = sample_run_info();
  const std::string first = jsonl_of(evs, &info);
  const ReadTrace back = read_text(first);
  ASSERT_EQ(back.events.size(), evs.size());
  ASSERT_TRUE(back.build.has_value());
  EXPECT_EQ(back.build->seed, info.seed);
  EXPECT_EQ(back.build->config_digest, info.config_digest);
  EXPECT_EQ(back.build->compiler, info.compiler);
  EXPECT_EQ(jsonl_of(back.events, &*back.build), first);
}

TEST(TraceRead, ChromeExportOfTheReadTraceMatchesTheSinks) {
  const std::vector<TraceEvent> evs = traced_run();
  const RunInfo info = sample_run_info();
  const ReadTrace back = read_text(jsonl_of(evs, &info));
  std::ostringstream live;
  std::ostringstream read;
  TraceSink::write_chrome(live, evs, sim::trace_decoder(), &info);
  TraceSink::write_chrome(read, back.events, sim::trace_decoder(),
                          &*back.build);
  EXPECT_EQ(read.str(), live.str());
}

TEST(TraceRead, NoHeaderMeansNoBuildInfo) {
  const ReadTrace t = read_text("{\"event\":\"quantum\",\"span\":7}\n");
  EXPECT_FALSE(t.build.has_value());
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].span, 7u);
  EXPECT_EQ(t.events[0].tid, -1);
}

TEST(TraceRead, SkipsTheRetiredPolicySwitchRows) {
  // Older traces carry a policy_switch row beside each switch_audit row.
  const ReadTrace t = read_text(
      "{\"event\":\"policy_switch\",\"quantum\":3,\"value\":1}\n"
      "{\"event\":\"switch_audit\",\"quantum\":3,\"value\":1}\n");
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].kind, EventKind::kSwitchAudit);
  EXPECT_EQ(t.events[0].quantum, 3u);
}

TEST(TraceSchema, DigestIsPinned) {
  // Tripwire: renaming a kind, cause, event key or build_info key changes
  // this digest. scripts/check_observability.sh reads the same document
  // (`smttrace schema`), so a rename is invisible to it; this constant
  // makes it a deliberate, release-noted format change.
  std::ostringstream os;
  write_schema(os);
  const std::string doc = os.str();
  Fnv1a h;
  h.mix_bytes(doc.data(), doc.size());
  const std::uint64_t golden = 0xd73796f9ecaa9635ull;
  EXPECT_EQ(h.digest(), golden) << "actual: 0x" << std::hex << h.digest()
                                << "\n" << doc;
}

/// read_trace on one line must throw TraceReadError (smttrace: exit 3).
void expect_rejected(const std::string& line) {
  EXPECT_THROW((void)read_text(line + "\n"), TraceReadError) << line;
}

TEST(TraceReadRejects, NestingDeeperThanTheSchema) {
  expect_rejected(std::string(2'000'000, '['));
  expect_rejected("{\"event\":\"quantum\",\"stalls\":{\"x\":[1]}}");
}

TEST(TraceReadRejects, NegativeUnsignedField) {
  expect_rejected("{\"event\":\"quantum\",\"span\":-5}");
}

TEST(TraceReadRejects, NullIntegerField) {
  expect_rejected("{\"event\":\"quantum\",\"cycle\":null}");
}

TEST(TraceReadRejects, FractionalIntegerField) {
  expect_rejected("{\"event\":\"quantum\",\"value\":1.5}");
  expect_rejected("{\"event\":\"quantum\",\"value\":1e3}");
}

TEST(TraceReadRejects, OutOfRangeIntegerFields) {
  expect_rejected("{\"event\":\"quantum\",\"code\":256}");
  expect_rejected("{\"event\":\"quantum\",\"tid\":2147483648}");
  expect_rejected("{\"event\":\"quantum\",\"cycle\":18446744073709551616}");
  expect_rejected("{\"event\":\"pipeview\",\"stages\":[1,4294967296]}");
  expect_rejected("{\"event\":\"quantum\",\"stalls\":{\"rob_full\":-1}}");
}

TEST(TraceReadRejects, UnknownEventKind) {
  // Host-time "prof" rows are not part of the schema: a trace holds
  // simulated time only.
  expect_rejected("{\"event\":\"prof\",\"label\":\"fetch\"}");
  expect_rejected("{\"event\":\"nonsense\"}");
}

TEST(TraceReadRejects, ChromeExport) {
  expect_rejected("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
}

}  // namespace
}  // namespace smt::obs
