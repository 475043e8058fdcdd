// Behavioural tests of the fetch policies inside the full machine —
// the orderings the fetch-policy literature (and the paper's premise)
// rest on. Runs are deterministic (fixed seeds), so these assertions are
// stable, not flaky statistics.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/rng.hpp"
#include "sim/oracle.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"
#include "workload/mix.hpp"

namespace smt::policy {
namespace {

double ipc_of(const char* mix, FetchPolicy p, std::uint64_t seed = 42,
              std::uint64_t cycles = 80000) {
  sim::SimConfig cfg = sim::make_config(workload::mix(mix), 8, seed);
  cfg.fixed_policy = p;
  sim::Simulator s(cfg);
  s.run(20000);  // warm
  const std::uint64_t c0 = s.committed();
  s.run(cycles);
  return static_cast<double>(s.committed() - c0) /
         static_cast<double>(cycles);
}

TEST(PolicyBehavior, IcountBeatsRoundRobinOnIntMix) {
  // Tullsen's headline ordering, the premise restated in the paper's §1.
  EXPECT_GT(ipc_of("int8", FetchPolicy::kIcount),
            ipc_of("int8", FetchPolicy::kRoundRobin) * 1.02);
}

TEST(PolicyBehavior, IcountBeatsRoundRobinOnIlpMix) {
  EXPECT_GT(ipc_of("ilp8", FetchPolicy::kIcount),
            ipc_of("ilp8", FetchPolicy::kRoundRobin) * 1.02);
}

TEST(PolicyBehavior, MemoryBoundMixIsPolicyInsensitive) {
  // When every thread thrashes, no fetch ordering can recover much —
  // the observation behind the paper's mix-similarity analysis.
  const double icount = ipc_of("mem8", FetchPolicy::kIcount);
  const double rr = ipc_of("mem8", FetchPolicy::kRoundRobin);
  EXPECT_NEAR(icount / rr, 1.0, 0.08);
}

TEST(PolicyBehavior, AllPoliciesWithinSaneBandOnBalancedMix) {
  // No policy may collapse the machine: within 2x of the best.
  double best = 0;
  std::vector<double> all;
  for (FetchPolicy p : all_policies()) {
    const double ipc = ipc_of("bal1", p);
    all.push_back(ipc);
    best = std::max(best, ipc);
  }
  for (double ipc : all) {
    EXPECT_GT(ipc, best / 2.0);
  }
}

TEST(PolicyBehavior, PolicyChoiceChangesExecution) {
  // Different policies must lead to genuinely different machine
  // trajectories (else the whole study would be vacuous).
  sim::SimConfig cfg = sim::make_config(workload::mix("ctrl8"), 8, 42);
  cfg.fixed_policy = FetchPolicy::kIcount;
  sim::Simulator a(cfg);
  cfg.fixed_policy = FetchPolicy::kBrcount;
  sim::Simulator b(cfg);
  a.run(40000);
  b.run(40000);
  EXPECT_NE(a.committed(), b.committed());
  EXPECT_NE(a.pipeline().stats().fetched, b.pipeline().stats().fetched);
}

/// The stats document of `cycles` cycles of `cfg` under `p`, without the
/// two keys that name the policy (the config digest hashes it).
std::map<std::string, std::string> run_under(sim::SimConfig cfg, FetchPolicy p,
                                             std::uint64_t cycles) {
  cfg.fixed_policy = p;
  sim::Simulator s(cfg);
  s.run(cycles);
  std::map<std::string, std::string> doc = test::flatten_json(test::stats_doc(s));
  EXPECT_EQ(doc.erase("config.policy"), 1u);
  EXPECT_EQ(doc.erase("run.config_digest"), 1u);
  return doc;
}

TEST(PolicyBehavior, L1MissCountRunsExactlyAsL1DMissCount) {
  // A thread with an outstanding I-miss is fetch-stalled until the miss
  // returns, and the stall's end clears the count before threads are
  // ranked, so every ranked thread has l1i_outstanding == 0: L1MISSCOUNT
  // (I + D) ranks as L1DMISSCOUNT does, and L1IMISSCOUNT ranks by the
  // rotating tie-break alone. The two documents are equal, not close.
  for (const char* mix : {"mem8", "bal1", "cache8", "ctrl8", "int8"}) {
    const sim::SimConfig cfg = sim::make_config(workload::mix(mix), 8, 42);
    EXPECT_EQ(run_under(cfg, FetchPolicy::kL1MissCount, 32768),
              run_under(cfg, FetchPolicy::kL1DMissCount, 32768))
        << mix;
  }
  // Beyond the default machine: random geometries and thread counts. A
  // fixed policy only: the detector's FSMs treat the two as different
  // states.
  Rng rng(0x11d15ull);
  for (int draw = 0; draw < 8; ++draw) {
    sim::SimConfig cfg = test::random_config(rng);
    cfg.use_adts = false;
    const std::uint64_t cycles = 2 * cfg.adts.quantum_cycles;
    EXPECT_EQ(run_under(cfg, FetchPolicy::kL1MissCount, cycles),
              run_under(cfg, FetchPolicy::kL1DMissCount, cycles))
        << "draw " << draw;
  }
}

TEST(PolicyBehavior, OracleHeadroomExistsOnFavourableMix) {
  // The paper's motivating observation, end to end: per-quantum policy
  // choice leaves measurable room over fixed ICOUNT on at least the
  // favourable mixes.
  sim::Simulator base(sim::make_config(workload::mix("int8"), 8, 42));
  base.run(32768);
  sim::Simulator fixed = base;
  const std::uint64_t before = fixed.committed();
  fixed.run(12 * 8192);
  const auto fixed_committed = fixed.committed() - before;
  const sim::OracleResult r = sim::run_oracle(base, 12, sim::OracleConfig{});
  EXPECT_GT(static_cast<double>(r.committed),
            1.02 * static_cast<double>(fixed_committed));
}

}  // namespace
}  // namespace smt::policy
