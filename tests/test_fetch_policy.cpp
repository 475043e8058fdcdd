// Unit tests: the ten fetch policies (policy/fetch_policy.hpp).
#include <gtest/gtest.h>

#include "pipeline/counters.hpp"
#include "policy/fetch_policy.hpp"

namespace smt::policy {
namespace {

using pipeline::ThreadCounters;

TEST(FetchPolicy, TableOneHasTenPolicies) {
  EXPECT_EQ(all_policies().size(), 10u);
  EXPECT_EQ(kNumFetchPolicies, 10);
}

TEST(FetchPolicy, NamesRoundTripThroughParse) {
  for (FetchPolicy p : all_policies()) {
    EXPECT_EQ(parse_policy(name(p)), p);
  }
  EXPECT_THROW((void)parse_policy("NOPE"), std::out_of_range);
}

TEST(FetchPolicy, IcountPrefersEmptierThread) {
  ThreadCounters busy;
  busy.icount = 20;
  ThreadCounters idle;
  idle.icount = 2;
  EXPECT_LT(priority_key(FetchPolicy::kIcount, idle, 0, 8, 0),
            priority_key(FetchPolicy::kIcount, busy, 1, 8, 0));
}

TEST(FetchPolicy, BrcountPrefersFewerBranches) {
  ThreadCounters branchy;
  branchy.brcount = 6;
  ThreadCounters clean;
  clean.brcount = 0;
  EXPECT_LT(priority_key(FetchPolicy::kBrcount, clean, 0, 8, 0),
            priority_key(FetchPolicy::kBrcount, branchy, 1, 8, 0));
}

TEST(FetchPolicy, LoadAndMemCounts) {
  ThreadCounters a;
  a.ldcount = 1;
  a.memcount = 9;
  ThreadCounters b;
  b.ldcount = 5;
  b.memcount = 5;
  EXPECT_LT(priority_key(FetchPolicy::kLdcount, a, 0, 8, 0),
            priority_key(FetchPolicy::kLdcount, b, 1, 8, 0));
  EXPECT_LT(priority_key(FetchPolicy::kMemcount, b, 1, 8, 0),
            priority_key(FetchPolicy::kMemcount, a, 0, 8, 0));
}

TEST(FetchPolicy, MissCountVariantsReadDifferentCounters) {
  ThreadCounters c;
  c.l1d_outstanding = 3;
  c.l1i_outstanding = 1;
  EXPECT_DOUBLE_EQ(priority_key(FetchPolicy::kL1MissCount, c, 0, 8, 0), 4.0);
  EXPECT_DOUBLE_EQ(priority_key(FetchPolicy::kL1IMissCount, c, 0, 8, 0), 1.0);
  EXPECT_DOUBLE_EQ(priority_key(FetchPolicy::kL1DMissCount, c, 0, 8, 0), 3.0);
}

TEST(FetchPolicy, AccIpcPrefersFasterThread) {
  // Both loaded at cycle 100; at cycle 600 each has been resident 500.
  ThreadCounters fast;
  fast.mark_load(100);
  fast.total.committed = 1000;  // ACCIPC 2.0
  ThreadCounters slow;
  slow.total.committed = 40;
  slow.mark_load(100);
  slow.total.committed += 100;  // ACCIPC 0.2: commits before load don't count
  EXPECT_DOUBLE_EQ(fast.acc_ipc(600), 2.0);
  EXPECT_DOUBLE_EQ(slow.acc_ipc(600), 0.2);
  EXPECT_LT(priority_key(FetchPolicy::kAccIpc, fast, 0, 8, 600),
            priority_key(FetchPolicy::kAccIpc, slow, 1, 8, 600));
}

TEST(FetchPolicy, StallCountPrefersFewerStalls) {
  ThreadCounters smooth;
  smooth.total.stalls = 3;
  ThreadCounters choppy;
  choppy.total.stalls = 300;
  EXPECT_LT(priority_key(FetchPolicy::kStallCount, smooth, 0, 8, 0),
            priority_key(FetchPolicy::kStallCount, choppy, 1, 8, 0));
}

TEST(FetchPolicy, RoundRobinRotatesLeader) {
  ThreadCounters c;  // counters irrelevant for RR
  // At cycle 0, thread 0 leads; at cycle 3, thread 3 leads.
  EXPECT_DOUBLE_EQ(priority_key(FetchPolicy::kRoundRobin, c, 0, 8, 0), 0.0);
  EXPECT_DOUBLE_EQ(priority_key(FetchPolicy::kRoundRobin, c, 3, 8, 3), 0.0);
  EXPECT_DOUBLE_EQ(priority_key(FetchPolicy::kRoundRobin, c, 2, 8, 3), 7.0);
}

TEST(FetchPolicy, RoundRobinCoversAllPositions) {
  ThreadCounters c;
  for (std::uint32_t tid = 0; tid < 8; ++tid) {
    const double k = priority_key(FetchPolicy::kRoundRobin, c, tid, 8, 5);
    EXPECT_GE(k, 0.0);
    EXPECT_LT(k, 8.0);
  }
}

TEST(FetchPolicy, QuantumResetDoesNotAffectOccupancyKeys) {
  ThreadCounters c;
  c.icount = 7;
  c.brcount = 2;
  c.total.stalls = 55;
  const double icount_before = priority_key(FetchPolicy::kIcount, c, 0, 8, 0);
  c.mark_quantum(10);
  EXPECT_DOUBLE_EQ(priority_key(FetchPolicy::kIcount, c, 0, 8, 0),
                   icount_before);
  EXPECT_DOUBLE_EQ(priority_key(FetchPolicy::kStallCount, c, 0, 8, 0), 0.0);
}

TEST(FetchPolicy, RatesForQuantumNormalisesPerCycle) {
  ThreadCounters c;
  c.total = {.committed = 100, .mispredicts = 7, .stalls = 9};
  c.mark_quantum(1000);  // the window opens here
  c.total.committed += 8192;
  c.total.cond_branches += 1024;
  c.total.mispredicts += 82;
  c.total.l1d_misses += 100;
  c.total.l1i_misses += 28;
  c.total.lsq_full_events += 4096;
  const pipeline::QuantumRates r = pipeline::rates_for_quantum(c, 8192);
  EXPECT_DOUBLE_EQ(r.ipc, 1.0);
  EXPECT_DOUBLE_EQ(r.cond_branches_per_cycle, 0.125);
  EXPECT_NEAR(r.mispredicts_per_cycle, 82.0 / 8192.0, 1e-12);
  EXPECT_NEAR(r.l1_misses_per_cycle, 128.0 / 8192.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.lsq_full_per_cycle, 0.5);
}

TEST(FetchPolicy, RatesForZeroQuantumAreZero) {
  ThreadCounters c;
  c.total.committed = 100;
  const pipeline::QuantumRates r = pipeline::rates_for_quantum(c, 0);
  EXPECT_EQ(r.ipc, 0.0);
}

}  // namespace
}  // namespace smt::policy
