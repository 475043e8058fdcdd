// Unit tests: the heap footprint of Simulator copies and oracle trials.
//
// The oracle copies the machine once per candidate trial, so the size of
// a copy and the number of copies alive at once bound its memory. This
// binary replaces the global operator new to count heap bytes (its own
// binary: the replacement applies process-wide).
#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "policy/fetch_policy.hpp"
#include "sim/oracle.hpp"
#include "sim/simulator.hpp"
#include "workload/app_profile.hpp"
#include "workload/mix.hpp"
#include "workload/stream_cache.hpp"
#include "workload/thread_program.hpp"

namespace {
bool g_counting = false;
std::size_t g_bytes = 0;  ///< bytes requested while g_counting
std::atomic<std::int64_t> g_live{0};  ///< usable bytes allocated, not freed
std::atomic<std::int64_t> g_peak{0};  ///< high-water mark of g_live
}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  if (g_counting) g_bytes += n;
  const std::int64_t live =
      g_live += static_cast<std::int64_t>(malloc_usable_size(p));
  for (std::int64_t peak = g_peak.load();
       live > peak && !g_peak.compare_exchange_weak(peak, live);) {
  }
  return p;
}
void operator delete(void* p) noexcept {
  if (p != nullptr) g_live -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}
void operator delete(void* p, std::size_t /*n*/) noexcept {
  operator delete(p);
}

namespace smt::sim {
namespace {

Simulator warmed_bal1() {
  SimConfig cfg = make_config(workload::mix("bal1"), 8, 2003);
  cfg.check = check::CheckMode::kOff;
  Simulator sim(cfg);
  sim.run(4 * 8192);
  return sim;
}

TEST(SimulatorFootprint, WarmedBal1CopyAllocatesAtMost380KB) {
  // The default machine's caches hold 34816 lines (L1I and L1D 1024
  // each, L2 32768); at 16 bytes a line a copy allocated about 921 KB.
  // Nine-byte lines and 24-byte instructions in the windows brought it
  // to about 560 KB; five-byte lines (32-bit tags), 8-byte completion
  // entries and windows without a per-slot age or pipeview index bring
  // it to about 355 KB.
  Simulator sim = warmed_bal1();
  for (int quantum = 0; quantum < 4; ++quantum) {
    g_bytes = 0;
    g_counting = true;
    const Simulator copy = sim;
    g_counting = false;
    EXPECT_LE(g_bytes, 380u * 1000u) << "copy at cycle " << copy.now();
    sim.run(8192);
  }
}

TEST(StreamChunkFootprint, OneChunkIsEightBytesAnInstructionPlusItsGenerator) {
  // A chunk stores 8-byte rows, not 24-byte instructions, next to the
  // generator state it resumes from and the link to its successor.
  using workload::StreamCache;
  const std::uint64_t before = StreamCache::local().stats().resident_bytes;
  const workload::ThreadProgram prog(workload::profile("mcf"), 0, 2003);
  const std::uint64_t chunk =
      StreamCache::local().stats().resident_bytes - before;
  EXPECT_EQ(chunk, sizeof(workload::StreamChunk));
  EXPECT_LE(chunk, workload::kStreamChunkInstrs * 8 +
                       sizeof(workload::StreamGen) +
                       sizeof(par::OnceSlot<workload::StreamChunk>));
}

TEST(SimulatorFootprint, OracleHoldsTwoTrialsPerWorker) {
  // The ten-policy oracle used to keep every candidate's trial until it
  // picked the winner: 11 copies with its base. A worker now holds its
  // running trial and its best, and a worker with one candidate only
  // that one: the base and min(10, 2 x jobs) trials, plus at most one
  // copy's worth of other heap.
  const Simulator sim = warmed_bal1();
  std::int64_t copy_bytes = 0;
  {
    const std::int64_t before = g_live;
    const Simulator copy = sim;
    copy_bytes = g_live - before;
  }
  OracleConfig cfg;
  cfg.candidates = policy::all_policies();
  cfg.quantum_cycles = 1024;
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    const std::int64_t before = g_live;
    g_peak = before;
    (void)run_oracle(sim, 2, cfg, jobs);
    const double copies =
        static_cast<double>(g_peak - before) / static_cast<double>(copy_bytes);
    const std::size_t trials = std::min<std::size_t>(10, 2 * jobs);
    EXPECT_LE(copies, 1.0 + static_cast<double>(trials) + 1.0)
        << "jobs " << jobs;
  }
}

}  // namespace
}  // namespace smt::sim
