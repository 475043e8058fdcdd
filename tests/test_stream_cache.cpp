// Chunk-chain tests: copies of a ThreadProgram share one decoded chain,
// the first reader past a chunk's end builds the next chunk exactly once
// (also when copies race on pool workers), chunks are freed behind their
// last reader, and a long run's peak RSS stays flat.
//
// StreamCache::local() counts per thread, so each test reads deltas of
// the counters of the thread that did the work.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <vector>

#include "par/thread_pool.hpp"
#include "sim/simulator.hpp"
#include "workload/app_profile.hpp"
#include "workload/mix.hpp"
#include "workload/stream_cache.hpp"
#include "workload/thread_program.hpp"

namespace smt::workload {
namespace {

bool same_instruction(const isa::Instruction& a, const isa::Instruction& b) {
  return a.cls == b.cls && a.dep1 == b.dep1 && a.dep2 == b.dep2 &&
         a.pc == b.pc && a.mem_addr == b.mem_addr &&
         a.branch_target == b.branch_target && a.taken == b.taken;
}

std::vector<isa::Instruction> take(ThreadProgram& p, std::uint64_t n) {
  std::vector<isa::Instruction> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(p.next());
  return out;
}

void expect_same_stream(const std::vector<isa::Instruction>& want,
                        const std::vector<isa::Instruction>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(same_instruction(want[i], got[i]))
        << "instruction " << i << " diverged";
  }
}

std::int64_t live_bytes() {
  return static_cast<std::int64_t>(
      StreamCache::local().stats().resident_bytes);
}

// Three chunk boundaries, plus one instruction into the fourth chunk.
constexpr std::uint64_t kPastThreeChunks = 3 * kStreamChunkInstrs + 1;

TEST(StreamChain, TenCopiesBuildEachChunkOnceAndMatchALoneProgram) {
  ThreadProgram lone(profile("mcf"), 0, 2003);
  const std::vector<isa::Instruction> want = take(lone, kPastThreeChunks);

  const ThreadProgram base(profile("mcf"), 0, 2003);
  std::vector<ThreadProgram> copies(10, base);
  const StreamCache::Stats before = StreamCache::local().stats();
  for (ThreadProgram& c : copies) {
    expect_same_stream(want, take(c, kPastThreeChunks));
  }
  const StreamCache::Stats after = StreamCache::local().stats();
  EXPECT_EQ(after.chunks_generated - before.chunks_generated, 3u);
  EXPECT_EQ(after.chunk_hits - before.chunk_hits, 27u);
}

TEST(StreamChain, ConcurrentCopiesBuildEachChunkOnce) {
  constexpr std::uint64_t kChunks = 6;
  constexpr std::uint64_t kInstrs = kChunks * kStreamChunkInstrs + 1;
  ThreadProgram lone(profile("gcc"), 3, 11);
  const std::vector<isa::Instruction> want = take(lone, kInstrs);

  const ThreadProgram base(profile("gcc"), 3, 11);
  std::vector<ThreadProgram> copies(8, base);
  std::vector<std::vector<isa::Instruction>> got(copies.size());
  std::vector<std::uint64_t> generated(copies.size(), 0);
  std::vector<std::uint64_t> hits(copies.size(), 0);
  par::ThreadPool pool(4);
  par::parallel_for(pool, copies.size(), [&](std::size_t i) {
    const StreamCache::Stats before = StreamCache::local().stats();
    got[i] = take(copies[i], kInstrs);
    const StreamCache::Stats after = StreamCache::local().stats();
    generated[i] = after.chunks_generated - before.chunks_generated;
    hits[i] = after.chunk_hits - before.chunk_hits;
  });

  std::uint64_t total_generated = 0;
  std::uint64_t total_hits = 0;
  for (std::size_t i = 0; i < copies.size(); ++i) {
    expect_same_stream(want, got[i]);
    total_generated += generated[i];
    total_hits += hits[i];
  }
  EXPECT_EQ(total_generated, kChunks);
  EXPECT_EQ(total_hits, kChunks * (copies.size() - 1));
}

TEST(StreamChain, ChunksAreFreedBehindTheLastReader) {
  const std::int64_t chunk = sizeof(StreamChunk);
  const std::int64_t baseline = live_bytes();
  {
    ThreadProgram base(profile("gzip"), 0, 7);
    ThreadProgram ahead = base;
    (void)take(ahead, 4 * kStreamChunkInstrs + 1);
    // `base` still reads chunk 0, so chunks 0..4 stay alive.
    EXPECT_EQ(live_bytes() - baseline, 5 * chunk);

    base = ThreadProgram();
    EXPECT_EQ(live_bytes() - baseline, chunk)
        << "chunks behind the last reader were not freed";

    // A second stream read alone holds only the chunk it is in.
    ThreadProgram other(profile("swim"), 1, 7);
    (void)take(other, 2 * kStreamChunkInstrs + 1);
    EXPECT_EQ(live_bytes() - baseline, 2 * chunk);
  }
  EXPECT_EQ(live_bytes(), baseline);
}

/// Peak RSS, in MB, of a forked child that runs `cycles` of ilp8. Unused
/// under ASan, which skips the one test that calls it.
[[maybe_unused]] long child_peak_rss_mb(std::uint64_t cycles) {
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
  // A run holds one or two chunks per thread, whatever its length: every
  // chunk behind the last reader is freed.
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "ASan's free quarantine holds freed chunks resident";
#else
  const long one = child_peak_rss_mb(1'000'000);
  const long two = child_peak_rss_mb(2'000'000);
  ASSERT_GT(one, 0);
  ASSERT_GT(two, 0);
  EXPECT_LE(one, 32) << "1M cycles: " << one << " MB";
  EXPECT_LE(two, 32) << "2M cycles: " << two << " MB";
  EXPECT_LE(two, one + 4) << "1M cycles: " << one << " MB, 2M cycles: "
                          << two << " MB";
#endif
}

}  // namespace
}  // namespace smt::workload
