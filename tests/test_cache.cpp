// Unit tests: set-associative cache (mem/cache.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mem/cache.hpp"
#include "workload/stream_cache.hpp"

namespace smt::mem {
namespace {

/// The counter-LRU model the rank layout replaced, kept as the reference:
/// 16-byte lines, each with a per-set recency counter that an access sets
/// above every other; the victim is the first invalid way, else the
/// lowest counter.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& cfg)
      : cfg_(cfg), sets_(cfg.num_sets()), lines_(sets_ * cfg.ways) {}

  bool access(std::uint64_t addr, bool write) {
    Line* const base = &lines_[(addr / cfg_.line_bytes) % sets_ * cfg_.ways];
    const std::uint64_t tag = addr / cfg_.line_bytes / sets_;
    std::uint32_t max_lru = 0;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
      max_lru = std::max(max_lru, base[w].lru);
    }
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
      Line& line = base[w];
      if (line.valid && line.tag == tag) {
        line.lru = max_lru + 1;
        line.dirty = line.dirty || write;
        ++hits;
        return true;
      }
    }
    ++misses;
    Line* victim = nullptr;
    for (std::uint32_t w = 0; w < cfg_.ways && victim == nullptr; ++w) {
      if (!base[w].valid) victim = &base[w];
    }
    if (victim == nullptr) {
      victim = base;
      for (std::uint32_t w = 1; w < cfg_.ways; ++w) {
        if (base[w].lru < victim->lru) victim = &base[w];
      }
      ++evictions;
      if (victim->dirty) ++dirty_evictions;
    }
    *victim = Line{tag, max_lru + 1, true, write};
    return false;
  }

  [[nodiscard]] bool contains(std::uint64_t addr) const {
    const Line* const base =
        &lines_[(addr / cfg_.line_bytes) % sets_ * cfg_.ways];
    const std::uint64_t tag = addr / cfg_.line_bytes / sets_;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
      if (base[w].valid && base[w].tag == tag) return true;
    }
    return false;
  }

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint32_t lru = 0;  ///< higher = more recently used
    bool valid = false;
    bool dirty = false;
  };
  CacheConfig cfg_;
  std::uint64_t sets_;
  std::vector<Line> lines_;
};

CacheConfig small_cfg() {
  // 4 sets x 2 ways x 64 B lines = 512 B.
  return CacheConfig{"test", 512, 64, 2};
}

TEST(Cache, ColdMissThenHit) {
  Cache c(small_cfg());
  EXPECT_FALSE(c.access(0x100, false));
  EXPECT_TRUE(c.access(0x100, false));
  EXPECT_TRUE(c.access(0x13F, false)) << "same 64B line must hit";
  EXPECT_FALSE(c.access(0x140, false)) << "next line is cold";
}

TEST(Cache, StatsCount) {
  Cache c(small_cfg());
  c.access(0, false);
  c.access(0, false);
  c.access(64, false);
  EXPECT_EQ(c.misses(), 2u);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_NEAR(c.miss_rate(), 2.0 / 3.0, 1e-12);
}

TEST(Cache, LruEvictionOrder) {
  Cache c(small_cfg());  // 2 ways per set; set stride = 4 sets * 64 = 256
  const std::uint64_t a = 0x000;
  const std::uint64_t b = 0x100;  // same set (4 sets x 64B → set 0)
  const std::uint64_t d = 0x200;  // same set again
  c.access(a, false);
  c.access(b, false);
  c.access(a, false);      // a more recent than b
  c.access(d, false);      // evicts b (LRU)
  EXPECT_TRUE(c.contains(a));
  EXPECT_FALSE(c.contains(b));
  EXPECT_TRUE(c.contains(d));
}

TEST(Cache, ContainsDoesNotMutate) {
  Cache c(small_cfg());
  c.access(0, false);
  const std::uint64_t hits = c.hits();
  const std::uint64_t misses = c.misses();
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(0x40));
  EXPECT_EQ(c.hits(), hits);
  EXPECT_EQ(c.misses(), misses);
}

TEST(Cache, DirtyEvictionTracking) {
  Cache c(small_cfg());
  c.access(0x000, true);   // dirty line in set 0
  c.access(0x100, false);  // clean line, same set
  c.access(0x200, false);  // evicts the dirty LRU line
  EXPECT_EQ(c.evictions(), 1u);
  EXPECT_EQ(c.dirty_evictions(), 1u);
}

TEST(Cache, WriteMarksExistingLineDirty) {
  Cache c(small_cfg());
  c.access(0x000, false);  // clean install
  c.access(0x000, true);   // dirty it
  c.access(0x100, false);
  c.access(0x200, false);  // evict 0x000
  EXPECT_EQ(c.dirty_evictions(), 1u);
}

TEST(Cache, DifferentSetsDoNotConflict) {
  Cache c(small_cfg());
  // 4 sets: fill one line in each; no evictions possible.
  for (std::uint64_t s = 0; s < 4; ++s) c.access(s * 64, false);
  for (std::uint64_t s = 0; s < 4; ++s) EXPECT_TRUE(c.contains(s * 64));
  EXPECT_EQ(c.evictions(), 0u);
}

TEST(Cache, ClearEmptiesEverything) {
  Cache c(small_cfg());
  c.access(0, false);
  c.clear();
  EXPECT_FALSE(c.contains(0));
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(Cache(CacheConfig{"bad", 512, 63, 2}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{"bad", 512, 64, 0}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{"bad", 768, 64, 2}), std::invalid_argument);
  // The recency rank has room for kMaxWays ways, no more.
  EXPECT_NO_THROW(Cache(CacheConfig{"max", 64 * Cache::kMaxWays, 64,
                                    Cache::kMaxWays}));
  EXPECT_THROW(Cache(CacheConfig{"wide", 128 * Cache::kMaxWays, 64,
                                 2 * Cache::kMaxWays}),
               std::invalid_argument);
}

TEST(Cache, FullAssociativityWorks) {
  // One set, 8 ways.
  Cache c(CacheConfig{"fa", 512, 64, 8});
  for (std::uint64_t i = 0; i < 8; ++i) c.access(i * 64, false);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_TRUE(c.contains(i * 64));
  c.access(8 * 64, false);
  EXPECT_FALSE(c.contains(0)) << "LRU way evicted";
}

TEST(Cache, CopyIsIndependentState) {
  Cache a(small_cfg());
  a.access(0, false);
  Cache b = a;
  b.access(0x40, false);
  EXPECT_TRUE(b.contains(0x40));
  EXPECT_FALSE(a.contains(0x40));
}

class CacheSweepTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheSweepTest, WorkingSetLargerThanCacheThrashes) {
  const std::uint32_t ways = GetParam();
  Cache c(CacheConfig{"sweep", 4096, 64, ways});
  // Cyclic sweep over 2x the capacity: with true LRU every access misses.
  const std::uint64_t lines = 2 * 4096 / 64;
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t i = 0; i < lines; ++i) c.access(i * 64, false);
  }
  EXPECT_DOUBLE_EQ(c.miss_rate(), 1.0);
}

TEST_P(CacheSweepTest, WorkingSetWithinCacheEventuallyAllHits) {
  const std::uint32_t ways = GetParam();
  Cache c(CacheConfig{"sweep", 4096, 64, ways});
  const std::uint64_t lines = 4096 / 64;
  for (std::uint64_t i = 0; i < lines; ++i) c.access(i * 64, false);
  const std::uint64_t misses_after_fill = c.misses();
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t i = 0; i < lines; ++i) c.access(i * 64, false);
  }
  EXPECT_EQ(c.misses(), misses_after_fill) << "resident set must not miss";
}

INSTANTIATE_TEST_SUITE_P(Associativities, CacheSweepTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

/// Drive `c` and `ref` with the same `n` accesses from `rng` and require
/// the same outcome for each; lines are drawn from a pool of `lines`
/// (some hot, so there are hits as well as evictions), a third written.
void run_in_step(Cache& c, ReferenceCache& ref, Rng& rng, std::uint64_t lines,
                 int n) {
  constexpr std::uint64_t kLine = 64;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t line =
        rng.chance(0.5) ? rng.below(lines / 8 + 1) : rng.below(lines);
    const std::uint64_t addr = line * kLine + rng.below(kLine);
    const bool write = rng.below(3) == 0;
    ASSERT_EQ(c.access(addr, write), ref.access(addr, write))
        << "access " << i << " to line " << line;
  }
  EXPECT_EQ(c.hits(), ref.hits);
  EXPECT_EQ(c.misses(), ref.misses);
  EXPECT_EQ(c.evictions(), ref.evictions);
  EXPECT_EQ(c.dirty_evictions(), ref.dirty_evictions);
  for (std::uint64_t line = 0; line < lines; ++line) {
    ASSERT_EQ(c.contains(line * kLine), ref.contains(line * kLine)) << line;
  }
}

TEST(CacheProperty, RankLayoutMatchesCounterLru) {
  for (const std::uint32_t ways : {1u, 2u, 4u, 8u, 16u, Cache::kMaxWays}) {
    for (const std::uint64_t sets : {1u, 4u, 64u}) {
      SCOPED_TRACE(testing::Message() << ways << " ways x " << sets << " sets");
      const CacheConfig cfg{"prop", sets * ways * 64, 64, ways};
      // Three times the capacity: every set fills and keeps evicting.
      const std::uint64_t lines = 3 * sets * ways;
      Rng rng(ways * 1000 + sets);
      Cache c(cfg);
      ReferenceCache ref(cfg);
      run_in_step(c, ref, rng, lines, 2000);

      // Copies taken mid-stream, by construction and by assignment over
      // a cache with other contents, continue exactly as the reference
      // copy does, and the originals are unaffected by them.
      Cache copy = c;
      Cache assigned(cfg);
      assigned.access(1 << 20, true);
      assigned = c;
      ReferenceCache ref_copy = ref;
      ReferenceCache ref_assigned = ref;
      Rng rng_copy = rng;
      Rng rng_assigned(rng.next());
      run_in_step(copy, ref_copy, rng_copy, lines, 2000);
      run_in_step(assigned, ref_assigned, rng_assigned, lines, 2000);
      run_in_step(c, ref, rng, lines, 2000);
    }
  }
}

/// Line addresses in the model's real regions: in each of threads 0–7's
/// data segments (up to 2^32 bytes from (tid + 1) × kDataSegmentStride)
/// and code segments (up to kCodeSegmentStride from kCodeRegionBase +
/// tid × kCodeSegmentStride), `per_segment` lines each, half of them
/// within 64 KiB of the base and half anywhere, the last byte included.
std::vector<std::uint64_t> region_addresses(Rng& rng, int per_segment) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t tid = 0; tid < 8; ++tid) {
    const std::uint64_t data = (tid + 1) * workload::kDataSegmentStride;
    const std::uint64_t code =
        workload::kCodeRegionBase + tid * workload::kCodeSegmentStride;
    for (const auto& [base, size] :
         {std::pair{data, std::uint64_t{1} << 32},
          std::pair{code, workload::kCodeSegmentStride}}) {
      out.push_back(base + size - 1);
      for (int i = 1; i < per_segment; ++i) {
        const std::uint64_t span = i % 2 == 0 ? std::uint64_t{1} << 16 : size;
        out.push_back(base + rng.below(span));
      }
    }
  }
  return out;
}

/// Drive `c` and `ref` with `n` accesses to `addrs` (a quarter of them
/// hot, so sets both hit and evict) and require the same outcome each
/// time, then the same counters and contents.
void run_over(Cache& c, ReferenceCache& ref, Rng& rng,
              const std::vector<std::uint64_t>& addrs, int n) {
  for (int i = 0; i < n; ++i) {
    const std::uint64_t addr =
        addrs[rng.chance(0.5) ? rng.below(addrs.size() / 4 + 1)
                              : rng.below(addrs.size())];
    const bool write = rng.below(3) == 0;
    ASSERT_EQ(c.access(addr, write), ref.access(addr, write))
        << "access " << i << " to " << addr;
  }
  EXPECT_EQ(c.hits(), ref.hits);
  EXPECT_EQ(c.misses(), ref.misses);
  EXPECT_EQ(c.evictions(), ref.evictions);
  EXPECT_EQ(c.dirty_evictions(), ref.dirty_evictions);
  for (const std::uint64_t addr : addrs) {
    ASSERT_EQ(c.contains(addr), ref.contains(addr)) << addr;
  }
}

TEST(CacheProperty, PackedTagsMatchFullTagsOverTheModelsRegions) {
  // Spans from the 32-byte minimum (where data tags reach 2^31 - 1) to
  // the default L2's 256 KiB.
  const std::vector<CacheConfig> geometries = {
      {"span32", 32 * 4, 32, 4},     {"line8", 8 * 4 * 2, 8, 2},
      {"l1", 32 * 1024, 32, 4},      {"direct", 4096, 64, 1},
      {"l2", 2 * 1024 * 1024, 64, 8}, {"wide", 128 * 64 * 16, 128, 16}};
  for (const CacheConfig& cfg : geometries) {
    SCOPED_TRACE(cfg.name);
    Rng rng(cfg.size_bytes + cfg.ways);
    const std::vector<std::uint64_t> addrs = region_addresses(rng, 24);
    Cache c(cfg);
    ReferenceCache ref(cfg);
    run_over(c, ref, rng, addrs, 4000);

    // Copies taken mid-stream continue exactly as the reference does.
    Cache copy = c;
    Cache assigned(cfg);
    assigned.access(workload::kCodeRegionBase, true);
    assigned = c;
    ReferenceCache ref_copy = ref;
    ReferenceCache ref_assigned = ref;
    Rng rng_copy = rng;
    Rng rng_assigned(rng.next());
    run_over(copy, ref_copy, rng_copy, addrs, 4000);
    run_over(assigned, ref_assigned, rng_assigned, addrs, 4000);
    run_over(c, ref, rng, addrs, 4000);
  }
}

TEST(Cache, ThirdTagRegionThrowsAndIsNeverContained) {
  Cache c(small_cfg());
  const std::uint64_t code = workload::kCodeRegionBase;
  const std::uint64_t third = 1ULL << 62;
  EXPECT_FALSE(c.contains(code)) << "no high region recorded yet";
  c.access(0x100, false);
  c.access(code, true);
  const std::uint64_t misses = c.misses();
  EXPECT_THROW(c.access(third, false), std::invalid_argument);
  EXPECT_EQ(c.misses(), misses) << "a rejected access changes nothing";
  EXPECT_TRUE(c.contains(0x100));
  EXPECT_TRUE(c.contains(code));
  // The code line's twins in the low and the third region: same set,
  // same low 31 tag bits.
  EXPECT_FALSE(c.contains(code - workload::kCodeRegionBase));
  EXPECT_FALSE(c.contains(third));

  // clear() forgets the high region along with the lines.
  c.clear();
  EXPECT_NO_THROW(c.access(third, false));
  EXPECT_TRUE(c.contains(third));
  EXPECT_THROW(c.access(code, false), std::invalid_argument);
}

}  // namespace
}  // namespace smt::mem
