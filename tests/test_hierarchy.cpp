// Unit tests: two-level hierarchy (mem/hierarchy.hpp).
#include <gtest/gtest.h>

#include <stdexcept>

#include "mem/hierarchy.hpp"

namespace smt::mem {
namespace {

HierarchyConfig tiny() {
  HierarchyConfig cfg;
  cfg.l1i = CacheConfig{"L1I", 1024, 32, 2};
  cfg.l1d = CacheConfig{"L1D", 1024, 32, 2};
  cfg.l2 = CacheConfig{"L2", 8192, 64, 4};
  cfg.l1_latency = 1;
  cfg.l2_latency = 10;
  cfg.mem_latency = 100;
  cfg.max_threads = 4;
  return cfg;
}

TEST(Hierarchy, ColdAccessCostsMemoryLatency) {
  Hierarchy h(tiny());
  const AccessResult r = h.lookup_data(0, 0x1000, false);
  EXPECT_TRUE(r.l1_miss);
  EXPECT_TRUE(r.l2_miss);
  EXPECT_EQ(r.latency, 100u);
}

TEST(Hierarchy, SecondAccessHitsL1) {
  Hierarchy h(tiny());
  h.lookup_data(0, 0x1000, false);
  const AccessResult r = h.lookup_data(0, 0x1000, false);
  EXPECT_FALSE(r.l1_miss);
  EXPECT_EQ(r.latency, 1u);
}

TEST(Hierarchy, L1EvictionFallsBackToL2) {
  Hierarchy h(tiny());
  // L1D: 16 sets... 1024/(32*2)=16 sets. Fill set of 0x0 with 2 ways then
  // a third conflicting line -> first evicted, but L2 still holds it.
  const std::uint64_t stride = 16 * 32;  // set span
  h.lookup_data(0, 0, false);
  h.lookup_data(0, stride, false);
  h.lookup_data(0, 2 * stride, false);  // evicts line 0 from L1
  const AccessResult r = h.lookup_data(0, 0, false);
  EXPECT_TRUE(r.l1_miss);
  EXPECT_FALSE(r.l2_miss);
  EXPECT_EQ(r.latency, 10u);
}

TEST(Hierarchy, InstrAndDataStreamsSeparateAtL1ShareL2) {
  Hierarchy h(tiny());
  h.lookup_instr(0, 0x2000);
  // Same address via the data port: misses L1D (separate), hits L2.
  const AccessResult r = h.lookup_data(0, 0x2000, false);
  EXPECT_TRUE(r.l1_miss);
  EXPECT_FALSE(r.l2_miss);
}

TEST(Hierarchy, PerThreadStatsAreSeparate) {
  Hierarchy h(tiny());
  h.lookup_data(0, 0x100, false);
  h.lookup_data(0, 0x100, false);
  h.lookup_data(1, 0x5000, false);
  EXPECT_EQ(h.data_stats(0).accesses, 2u);
  EXPECT_EQ(h.data_stats(0).l1_misses, 1u);
  EXPECT_EQ(h.data_stats(1).accesses, 1u);
  EXPECT_EQ(h.data_stats(1).l1_misses, 1u);
  EXPECT_EQ(h.instr_stats(0).accesses, 0u);
}

TEST(Hierarchy, ThreadsShareTheCaches) {
  Hierarchy h(tiny());
  h.lookup_data(0, 0x3000, false);
  // Another thread touching the same line hits: the L1 is shared.
  const AccessResult r = h.lookup_data(1, 0x3000, false);
  EXPECT_FALSE(r.l1_miss);
}

TEST(Hierarchy, ResetThreadStatsKeepsCacheContents) {
  Hierarchy h(tiny());
  h.lookup_data(0, 0x40, false);
  h.reset_thread_stats();
  EXPECT_EQ(h.data_stats(0).accesses, 0u);
  const AccessResult r = h.lookup_data(0, 0x40, false);
  EXPECT_FALSE(r.l1_miss) << "reset must not flush the cache";
}

TEST(Hierarchy, WritePropagatesDirtyInstall) {
  Hierarchy h(tiny());
  h.lookup_data(0, 0x80, true);
  EXPECT_EQ(h.l1d().dirty_evictions(), 0u);
  // Conflict-evict the dirty line.
  const std::uint64_t stride = 16 * 32;
  h.lookup_data(0, 0x80 + stride, false);
  h.lookup_data(0, 0x80 + 2 * stride, false);
  EXPECT_EQ(h.l1d().dirty_evictions(), 1u);
}

TEST(Hierarchy, DefaultConfigMatchesDesignDoc) {
  const HierarchyConfig cfg;
  EXPECT_EQ(cfg.l1i.size_bytes, 32u * 1024);
  EXPECT_EQ(cfg.l1d.size_bytes, 32u * 1024);
  EXPECT_EQ(cfg.l2.size_bytes, 2u * 1024 * 1024);
  EXPECT_EQ(cfg.l1_latency, 1u);
  EXPECT_GE(cfg.mem_latency, cfg.l2_latency);
}

TEST(Hierarchy, RejectsASetSpanUnderThirtyTwoBytes) {
  // Under a 32-byte line × sets span a data tag could reach 2^31, the
  // packed tags' high region.
  HierarchyConfig cfg = tiny();
  cfg.l1d = CacheConfig{"L1D", 16 * 4, 16, 4};  // one set of 16-byte lines
  EXPECT_THROW(Hierarchy{cfg}, std::invalid_argument);
  cfg.l1d = CacheConfig{"L1D", 16 * 2 * 4, 16, 4};  // two sets: 32 bytes
  EXPECT_NO_THROW(Hierarchy{cfg});
  cfg.l2 = CacheConfig{"L2", 8 * 2 * 2, 8, 2};  // 16 bytes
  EXPECT_THROW(Hierarchy{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace smt::mem
