// Unit tests: hierarchical phase profiler (prof/phase_profiler.hpp),
// its stride-sampling rule, the fenced host clock, histogram edge cases
// and MetricsRegistry name-collision semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "prof/host_clock.hpp"
#include "prof/phase_profiler.hpp"
#include "sim/simulator.hpp"
#include "workload/mix.hpp"

namespace smt {
namespace {

using prof::PhaseProfiler;

// ---------------------------------------------------------------------------
// Host clock
// ---------------------------------------------------------------------------

TEST(HostClock, TicksAreMonotonicAndCalibrated) {
  const std::uint64_t a = prof::host_ticks();
  const std::uint64_t b = prof::host_ticks();
  EXPECT_GE(b, a);
  EXPECT_GT(prof::ticks_per_ns(), 0.0);
  EXPECT_EQ(prof::ticks_to_ns(0), 0u);
}

// ---------------------------------------------------------------------------
// PhaseProfiler tree
// ---------------------------------------------------------------------------

TEST(PhaseProfiler, ChildFindsOrCreatesPerParent) {
  PhaseProfiler p;
  const PhaseProfiler::Node a = p.child(PhaseProfiler::kRoot, "a");
  const PhaseProfiler::Node a2 = p.child(PhaseProfiler::kRoot, "a");
  EXPECT_EQ(a, a2);  // find, not create
  const PhaseProfiler::Node b = p.child(a, "b");
  const PhaseProfiler::Node b_under_root = p.child(PhaseProfiler::kRoot, "b");
  EXPECT_NE(b, b_under_root);  // same name, different parent
  EXPECT_EQ(p.node_count(), 4u);
  EXPECT_EQ(p.name(a), "a");
  EXPECT_EQ(p.parent(b), a);
  EXPECT_EQ(p.parent(a), PhaseProfiler::kRoot);
}

TEST(PhaseProfiler, NamesAreSanitizedForPathsAndFrames) {
  PhaseProfiler p;
  const PhaseProfiler::Node n =
      p.child(PhaseProfiler::kRoot, "a.b;c d");
  EXPECT_EQ(p.name(n), "a_b_c_d");
  EXPECT_EQ(p.name(p.child(PhaseProfiler::kRoot, "")), "_");
}

TEST(PhaseProfiler, AddAccumulatesCountInclusiveMinMax) {
  PhaseProfiler p;
  const PhaseProfiler::Node n = p.child(PhaseProfiler::kRoot, "n");
  EXPECT_EQ(p.count(n), 0u);
  EXPECT_EQ(p.min_ticks(n), 0u);  // unvisited reads as 0, not UINT64_MAX
  p.add(n, 10);
  p.add(n, 4);
  EXPECT_EQ(p.count(n), 2u);
  EXPECT_EQ(p.inclusive_ticks(n), 14u);
  EXPECT_EQ(p.min_ticks(n), 4u);
  EXPECT_EQ(p.max_ticks(n), 10u);
}

TEST(PhaseProfiler, ExclusiveTelescopesAndClampsAtZero) {
  PhaseProfiler p;
  const PhaseProfiler::Node a = p.child(PhaseProfiler::kRoot, "a");
  const PhaseProfiler::Node b = p.child(a, "b");
  const PhaseProfiler::Node c = p.child(a, "c");
  p.add(a, 100);
  p.add(b, 60);
  p.add(c, 30);
  EXPECT_EQ(p.exclusive_ticks(a), 10u);  // 100 - (60 + 30)
  EXPECT_EQ(p.exclusive_ticks(b), 60u);  // leaf: exclusive == inclusive
  // Σ exclusive over the subtree telescopes to a's inclusive.
  EXPECT_EQ(p.exclusive_ticks(a) + p.exclusive_ticks(b) +
                p.exclusive_ticks(c),
            p.inclusive_ticks(a));
  // Clock jitter can make children sum past the parent; clamp, don't wrap.
  p.add(b, 50);  // children now 140 > 100
  EXPECT_EQ(p.exclusive_ticks(a), 0u);
}

TEST(PhaseProfiler, PathJoinsSegmentsFromRoot) {
  PhaseProfiler p;
  const PhaseProfiler::Node cycle =
      p.child(p.child(PhaseProfiler::kRoot, "measured"), "cycle");
  EXPECT_EQ(p.path(PhaseProfiler::kRoot, ';'), "run");
  EXPECT_EQ(p.path(cycle, ';'), "run;measured;cycle");
  EXPECT_EQ(p.path(cycle, '.'), "run.measured.cycle");
}

TEST(PhaseProfiler, ScopeIsInertWithNullProfiler) {
  PhaseProfiler p;
  const PhaseProfiler::Node n = p.child(PhaseProfiler::kRoot, "n");
  {
    const PhaseProfiler::Scope s(nullptr, n);  // call sites never branch
  }
  EXPECT_EQ(p.count(n), 0u);
  {
    const PhaseProfiler::Scope s(&p, n);
  }
  EXPECT_EQ(p.count(n), 1u);
  EXPECT_GE(p.max_ticks(n), p.min_ticks(n));
}

TEST(PhaseProfiler, FoldedOutputSkipsUnvisitedAndMatchesExclusive) {
  PhaseProfiler p;
  const PhaseProfiler::Node a = p.child(PhaseProfiler::kRoot, "a");
  const PhaseProfiler::Node b = p.child(a, "b");
  p.child(a, "never_entered");
  p.add(a, 100);
  p.add(b, 60);
  std::ostringstream os;
  p.write_folded(os);
  std::istringstream is(os.str());
  std::vector<std::string> lines;
  for (std::string l; std::getline(is, l);) lines.push_back(l);
  // Root and "never_entered" have count 0: two lines, preorder.
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "run;a " +
                          std::to_string(prof::ticks_to_ns(
                              p.exclusive_ticks(a))));
  EXPECT_EQ(lines[1], "run;a;b " +
                          std::to_string(prof::ticks_to_ns(
                              p.exclusive_ticks(b))));
}

TEST(PhaseProfiler, ExportMetricsEmitsVisitedNodesOnly) {
  PhaseProfiler p;
  const PhaseProfiler::Node a = p.child(PhaseProfiler::kRoot, "a");
  p.child(PhaseProfiler::kRoot, "unvisited");
  p.add(a, 7);
  obs::MetricsRegistry reg;
  p.export_metrics(reg);
  const auto count = reg.find("prof.run.a.count");
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(std::get<std::uint64_t>(*count), 1u);
  EXPECT_TRUE(reg.find("prof.ticks_per_ns").has_value());
  EXPECT_TRUE(reg.find("prof.run.a.incl_ns").has_value());
  EXPECT_TRUE(reg.find("prof.run.a.excl_ns").has_value());
  EXPECT_TRUE(reg.find("prof.run.a.min_ns").has_value());
  EXPECT_TRUE(reg.find("prof.run.a.max_ns").has_value());
  EXPECT_FALSE(reg.find("prof.run.unvisited.count").has_value());
  EXPECT_FALSE(reg.find("prof.run.count").has_value());  // root unvisited
}

// ---------------------------------------------------------------------------
// Stride sampling
// ---------------------------------------------------------------------------

TEST(StrideSampling, OneHashedCyclePerAlignedBlock) {
  for (const std::uint64_t stride : {1u, 64u, 1024u}) {
    std::uint64_t offsets_seen = 0;  // in-block positions, mod 64
    for (std::uint64_t block = 0; block < 4096; ++block) {
      int hits = 0;
      for (std::uint64_t i = 0; i < stride; ++i) {
        if (prof::sampled_cycle(block * stride + i, stride - 1)) {
          ++hits;
          offsets_seen |= std::uint64_t{1} << (i % 64);
        }
      }
      ASSERT_EQ(hits, 1) << "stride " << stride << " block " << block;
    }
    if (stride >= 64) {
      EXPECT_EQ(offsets_seen, ~std::uint64_t{0}) << "stride " << stride;
    }
  }
}

TEST(StrideSampling, DetectorEnteredOnQuantumBoundariesAtDefaultStride) {
  // ADTS, 256-cycle quanta: the detector's boundary work runs on the
  // step whose pre-step cycle is ≡ 255 (mod 256). Every cycle is driven
  // through step(): stride sampling covers stepped cycles, and run()
  // would leap over quiet ones (timed under cycle/skip instead).
  constexpr std::uint64_t kQuantum = 256;
  constexpr std::uint64_t kQuanta = 512;
  constexpr std::uint64_t kStride = 64;  // smtsim's --prof-stride default
  sim::SimConfig cfg = sim::make_config(workload::mix("mem8"), 4, 2003);
  cfg.use_adts = true;
  cfg.adts.quantum_cycles = kQuantum;
  cfg.check = check::CheckMode::kOff;
  sim::Simulator sim(cfg);
  sim.run(kQuantum);

  PhaseProfiler p;
  sim.attach_profiler(&p, PhaseProfiler::kRoot, kStride);
  const PhaseProfiler::Node detector =
      p.child(p.child(PhaseProfiler::kRoot, "cycle"), "detector");
  const std::uint64_t quanta_before = sim.detector().stats().quanta();
  std::uint64_t boundary_samples = 0;
  for (std::uint64_t q = 0; q < kQuanta; ++q) {
    for (std::uint64_t c = 0; c + 1 < kQuantum; ++c) sim.step();
    ASSERT_EQ(sim.now() % kQuantum, kQuantum - 1);
    const std::uint64_t before = p.count(detector);
    sim.step();  // the boundary step
    boundary_samples += p.count(detector) - before;
  }
  sim.attach_profiler(nullptr, 0, 1);

  EXPECT_EQ(sim.detector().stats().quanta() - quanta_before, kQuanta)
      << "every boundary step did the detector's quantum work";
  EXPECT_EQ(p.count(detector), kQuanta * kQuantum / kStride)
      << "one sampled cycle per stride";
  EXPECT_GT(boundary_samples, 0u)
      << "the detector's boundary cycles must be sampled at stride 64";
}

TEST(StrideSampling, LeapsAreTimedUnderSkipCountingCyclesLeapt) {
  sim::SimConfig cfg = sim::make_config(workload::mix("mem8"), 8, 2003);
  cfg.check = check::CheckMode::kOff;
  sim::Simulator sim(cfg);
  sim.run(4096);

  constexpr std::uint64_t kCycles = 65536;
  constexpr std::uint64_t kStride = 64;
  PhaseProfiler p;
  sim.attach_profiler(&p, PhaseProfiler::kRoot, kStride);
  const std::uint64_t leapt_before = sim.pipeline().cycles_leapt();
  sim.run(kCycles);
  sim.attach_profiler(nullptr, 0, 1);
  const std::uint64_t leapt = sim.pipeline().cycles_leapt() - leapt_before;

  const PhaseProfiler::Node cycle = p.child(PhaseProfiler::kRoot, "cycle");
  const PhaseProfiler::Node skip = p.child(cycle, "skip");
  const PhaseProfiler::Node pipeline = p.child(cycle, "pipeline");
  EXPECT_GT(leapt, kCycles / 4) << "mem8 is quiet about half the time";
  EXPECT_EQ(p.count(skip), leapt);
  EXPECT_GT(p.inclusive_ticks(skip), 0u);
  EXPECT_GE(p.inclusive_ticks(cycle), p.inclusive_ticks(skip));
  // The stage timers sample stepped cycles only, at most one per stride.
  EXPECT_GT(p.count(pipeline), 0u);
  EXPECT_LE(p.count(pipeline), kCycles / kStride);
}

// ---------------------------------------------------------------------------
// Histogram edge cases
// ---------------------------------------------------------------------------

TEST(Histogram, EmptySummariesAreNaNNotZero) {
  const obs::Histogram h(0.0, 10.0, 10);
  EXPECT_EQ(h.total(), 0u);
  EXPECT_TRUE(std::isnan(h.min()));
  EXPECT_TRUE(std::isnan(h.max()));
  EXPECT_TRUE(std::isnan(h.mean()));
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, SingleSampleLandsInItsBin) {
  obs::Histogram h(0.0, 10.0, 10);
  h.add(2.5);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.bin_count(2), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 2.5);
  EXPECT_DOUBLE_EQ(h.max(), 2.5);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
}

TEST(Histogram, NegativeSampleCountsAsUnderflow) {
  obs::Histogram h(0.0, 10.0, 10);
  h.add(-3.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.total(), 1u);  // no sample is silently discarded
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
}

TEST(Histogram, UpperBoundIsExclusiveAndOverflowIsExact) {
  obs::Histogram h(0.0, 10.0, 10);
  h.add(10.0);  // == hi: [lo, hi) puts it in overflow, not the last bin
  h.add(1e300);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bin_count(9), 0u);
  EXPECT_DOUBLE_EQ(h.max(), 1e300);  // exact extremes despite binning
}

TEST(Histogram, DegenerateRangeClampsToOneBin) {
  obs::Histogram h(5.0, 5.0, 0);  // hi == lo and zero bins
  EXPECT_EQ(h.bins(), 1u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 6.0);
  h.add(5.0);
  EXPECT_EQ(h.bin_count(0), 1u);
}

TEST(Histogram, WeightedAddScalesCountsAndMean) {
  obs::Histogram h(0.0, 10.0, 10);
  h.add(1.0, 4);
  h.add(9.0, 0);  // zero weight: no samples
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(1), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 1.0);
}

// ---------------------------------------------------------------------------
// MetricsRegistry collisions
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, RepeatedSetKeepsLastValueOnce) {
  obs::MetricsRegistry reg;
  reg.set("dup", std::uint64_t{1});
  reg.set("dup", std::uint64_t{2});
  EXPECT_EQ(reg.size(), 1u);
  const auto v = reg.find("dup");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(std::get<std::uint64_t>(*v), 2u);
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.find("\"dup\""), json.rfind("\"dup\""));  // emitted once
  EXPECT_NE(json.find("\"dup\":2"), std::string::npos);
}

TEST(MetricsRegistry, CollisionMayChangeType) {
  obs::MetricsRegistry reg;
  reg.set("k", std::uint64_t{7});
  reg.set("k", "seven");
  EXPECT_EQ(reg.size(), 1u);
  const auto v = reg.find("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(std::get<std::string>(*v), "seven");
}

}  // namespace
}  // namespace smt
