// StreamCache retention-pool tests: LRU eviction under a byte budget,
// checkpoint regeneration of evicted chunks, and the contract the whole
// design rests on — retention is purely a performance knob, so a run
// under a starved cache produces bit-identical results to an
// unconstrained one.
//
// StreamCache::local() is thread-local and reads SMT_STREAM_CACHE_MB once
// at construction, so every budget-sensitive scenario runs in a fresh
// std::thread spawned after setenv: the new thread's first local() call
// constructs a cache under the test's budget, without disturbing the
// caches of sibling test threads.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"
#include "workload/app_profile.hpp"
#include "workload/mix.hpp"
#include "workload/stream_cache.hpp"

namespace smt::workload {
namespace {

/// Run `fn` on a fresh thread whose StreamCache is constructed under the
/// given SMT_STREAM_CACHE_MB value (nullptr = unset, i.e. the default).
template <typename Fn>
void with_cache_budget(const char* mb, Fn fn) {
  if (mb != nullptr) {
    ::setenv("SMT_STREAM_CACHE_MB", mb, 1);
  } else {
    ::unsetenv("SMT_STREAM_CACHE_MB");
  }
  std::thread t(fn);
  t.join();
  ::unsetenv("SMT_STREAM_CACHE_MB");
}

bool same_instruction(const isa::Instruction& a, const isa::Instruction& b) {
  return a.cls == b.cls && a.dep1 == b.dep1 && a.dep2 == b.dep2 &&
         a.pc == b.pc && a.mem_addr == b.mem_addr &&
         a.branch_target == b.branch_target && a.taken == b.taken;
}

TEST(RetentionPool, EvictsLeastRecentlyTouchedFirst) {
  // Direct pool test, no env needed: budget for exactly two chunks.
  RetentionPool pool(2 * sizeof(StreamChunk));
  auto c0 = std::make_shared<const StreamChunk>();
  auto c1 = std::make_shared<const StreamChunk>();
  auto c2 = std::make_shared<const StreamChunk>();
  std::weak_ptr<const StreamChunk> w0 = c0;
  std::weak_ptr<const StreamChunk> w1 = c1;
  std::weak_ptr<const StreamChunk> w2 = c2;

  pool.touch(c0);
  pool.touch(c1);
  EXPECT_EQ(pool.resident_bytes(), 2 * sizeof(StreamChunk));
  pool.touch(c0);  // c1 is now the least recently touched
  pool.touch(c2);  // over budget: one eviction
  EXPECT_EQ(pool.resident_bytes(), 2 * sizeof(StreamChunk));

  // Only the pool holds them now; expiry tells us who was evicted.
  c0.reset();
  c1.reset();
  c2.reset();
  EXPECT_FALSE(w0.expired());
  EXPECT_TRUE(w1.expired());
  EXPECT_FALSE(w2.expired());

  pool.clear();
  EXPECT_EQ(pool.resident_bytes(), 0u);
  EXPECT_TRUE(w0.expired());
  EXPECT_TRUE(w2.expired());
}

TEST(StreamCache, TinyBudgetEvictsAndRegeneratesIdentically) {
  with_cache_budget("1", [] {
    StreamCache& cache = StreamCache::local();
    cache.clear();
    const std::shared_ptr<StreamEntry> entry =
        cache.entry(profile("mcf"), /*thread_id=*/0, /*seed=*/2003);

    // Remember chunk 0's decoded content by value (holding the
    // shared_ptr itself would pin it against eviction).
    std::vector<isa::Instruction> first;
    {
      const std::shared_ptr<const StreamChunk> c0 = entry->chunk_for(0);
      first.assign(c0->instrs.begin(), c0->instrs.end());
      cache.pool().touch(c0);
    }
    const std::uint64_t generated_before = entry->chunks_generated();

    // March the frontier far past the 1 MiB budget (a chunk is ~160 KiB,
    // so ~6 fit): the pool must stay within budget and chunk 0 must fall
    // off the LRU end.
    constexpr std::uint64_t kChunks = 24;
    for (std::uint64_t i = 1; i < kChunks; ++i) {
      cache.pool().touch(entry->chunk_for(i * kStreamChunkInstrs));
    }
    EXPECT_LE(cache.stats().resident_bytes, 1u << 20);
    EXPECT_LT(cache.stats().resident_bytes,
              kChunks * sizeof(StreamChunk));

    // Re-requesting chunk 0 finds its weak_ptr dead and regenerates from
    // the per-chunk StreamGen checkpoint — counted as a generation, not
    // a hit, and bit-identical to the original decode.
    const std::shared_ptr<const StreamChunk> again = entry->chunk_for(0);
    EXPECT_GT(entry->chunks_generated(), generated_before + (kChunks - 1))
        << "chunk 0 was still resident; eviction never fired";
    ASSERT_EQ(first.size(), again->instrs.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      ASSERT_TRUE(same_instruction(first[i], again->instrs[i]))
          << "regenerated instruction " << i << " diverged";
    }
  });
}

TEST(StreamCache, HitsCountOnlyLiveChunks) {
  with_cache_budget("1", [] {
    StreamCache& cache = StreamCache::local();
    cache.clear();
    const std::shared_ptr<StreamEntry> entry =
        cache.entry(profile("gzip"), 0, 7);
    const auto c0 = entry->chunk_for(0);
    const std::uint64_t hits_before = entry->chunk_hits();
    const auto c0_again = entry->chunk_for(1);  // same chunk, still alive
    EXPECT_EQ(entry->chunk_hits(), hits_before + 1);
    EXPECT_EQ(c0.get(), c0_again.get());
  });
}

/// Counters that must not move with the cache budget. Worth spelling out
/// field-by-field rather than digesting: a mismatch names the counter.
struct RunFingerprint {
  std::uint64_t cycles = 0;
  std::uint64_t committed = 0;
  std::uint64_t fetched = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t wrong_path = 0;
  std::uint64_t charged_stalls = 0;
  std::uint64_t switches = 0;

  bool operator==(const RunFingerprint& o) const {
    return cycles == o.cycles && committed == o.committed &&
           fetched == o.fetched && mispredicts == o.mispredicts &&
           wrong_path == o.wrong_path && charged_stalls == o.charged_stalls &&
           switches == o.switches;
  }
};

RunFingerprint run_mix(bool adts) {
  sim::SimConfig cfg = sim::make_config(mix("mem8"), 8, 2003);
  cfg.adts.quantum_cycles = 1024;
  cfg.use_adts = adts;
  sim::Simulator s(cfg);
  s.run(16 * 1024);
  RunFingerprint f;
  f.cycles = s.pipeline().stats().cycles;
  f.committed = s.committed();
  f.fetched = s.pipeline().stats().fetched;
  f.mispredicts = s.pipeline().stats().mispredicts;
  f.wrong_path = s.pipeline().stats().fetched_wrong_path;
  f.charged_stalls = s.pipeline().charged_stall_slots();
  f.switches = s.detector().stats().switches;
  return f;
}

TEST(StreamCache, StarvedCacheIsBitIdenticalToUnconstrained) {
  // Budget 0 MiB is the harshest legal setting: the pool retains at most
  // one chunk, so the simulator's streams evict and regenerate behind
  // every fetch frontier. Results must not move by a single count.
  for (const bool adts : {false, true}) {
    RunFingerprint starved;
    RunFingerprint roomy;
    with_cache_budget("0", [&starved, adts] {
      StreamCache::local().clear();
      starved = run_mix(adts);
      // The budget had to actually bite for this test to mean anything.
      EXPECT_LE(StreamCache::local().stats().resident_bytes,
                sizeof(StreamChunk));
    });
    with_cache_budget(nullptr, [&roomy, adts] {
      StreamCache::local().clear();
      roomy = run_mix(adts);
    });
    EXPECT_TRUE(starved == roomy)
        << (adts ? "adts" : "fixed")
        << ": starved cache perturbed simulated results (cycles "
        << starved.cycles << "/" << roomy.cycles << ", committed "
        << starved.committed << "/" << roomy.committed << ", fetched "
        << starved.fetched << "/" << roomy.fetched << ")";
  }
}

/// Peak RSS, in MB, of a forked child that runs `cycles` of ilp8.
long child_peak_rss_mb(std::uint64_t cycles) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    // The child leaves only through _exit: an escaping exception would
    // unwind into gtest and run the rest of the suite in the child.
    try {
      sim::SimConfig cfg = sim::make_config(mix("ilp8"), 8, 2003);
      cfg.check = check::CheckMode::kOff;
      sim::Simulator s(cfg);
      s.run(cycles);
    } catch (...) {
      ::_exit(1);
    }
    ::_exit(0);
  }
  int status = 0;
  rusage usage{};
  if (pid < 0 || ::wait4(pid, &status, 0, &usage) != pid ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return -1;
  }
  return usage.ru_maxrss / 1024;  // ru_maxrss is in KiB on Linux
}

TEST(StreamCache, PeakRssStaysFlatAsTheRunGrows) {
  // Dead chunks must hand their storage back: a chunk allocated together
  // with its control block stays resident until the last weak_ptr in
  // StreamEntry::chunks_ goes, which is never, so RSS grew ~150 MB per
  // million ilp8 cycles whatever the retention budget.
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "ASan's free quarantine holds freed chunks resident";
#else
  const long one = child_peak_rss_mb(1'000'000);
  const long two = child_peak_rss_mb(2'000'000);
  ASSERT_GT(one, 0);
  ASSERT_GT(two, 0);
  EXPECT_LE(two, one + 32) << "1M cycles: " << one << " MB, 2M cycles: "
                           << two << " MB";
#endif
}

}  // namespace
}  // namespace smt::workload
