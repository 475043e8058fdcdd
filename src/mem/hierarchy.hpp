// Two-level cache hierarchy: private-by-construction L1I/L1D (they are
// physically shared, but each thread's segments are disjoint so sharing
// manifests as capacity/conflict pressure, as on a real SMT) backed by a
// shared unified L2 and a flat-latency main memory.
//
// lookup_* returns the access latency in cycles and updates per-thread
// miss statistics — the counters the detector thread reads (L1MISSCOUNT /
// L1IMISSCOUNT / L1DMISSCOUNT policies, COND_MEM condition).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "mem/cache.hpp"

namespace smt::mem {

struct HierarchyConfig {
  CacheConfig l1i{"L1I", 32 * 1024, 32, 4};
  CacheConfig l1d{"L1D", 32 * 1024, 32, 4};
  /// Unified second level; 2 MB stands in for the era's L2+L3 capacity.
  CacheConfig l2{"L2", 2 * 1024 * 1024, 64, 8};
  std::uint32_t l1_latency = 1;
  std::uint32_t l2_latency = 8;
  std::uint32_t mem_latency = 70;
  std::uint32_t max_threads = 9;  ///< 8 contexts + detector thread slot
};

/// Per-thread miss accounting for one access stream.
struct ThreadMemStats {
  std::uint64_t accesses = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_misses = 0;

  void reset() { *this = ThreadMemStats{}; }
};

struct AccessResult {
  std::uint32_t latency = 1;
  bool l1_miss = false;
  bool l2_miss = false;
};

class Hierarchy {
 public:
  /// Smallest line × sets span a level may have. The model's data
  /// addresses lie below 2^36, so at this span or more their tags stay
  /// below 2^31, the low region of a packed cache tag (mem/cache.hpp);
  /// the code segments above kCodeRegionBase are each cache's high one.
  static constexpr std::uint64_t kMinSetSpanBytes = 32;

  Hierarchy() : Hierarchy(HierarchyConfig{}) {}
  /// Throws std::invalid_argument for a level whose span is under
  /// kMinSetSpanBytes (and, through Cache, for a malformed geometry).
  explicit Hierarchy(const HierarchyConfig& cfg);

  /// Instruction fetch of the block containing `pc`.
  AccessResult lookup_instr(std::uint32_t tid, std::uint64_t pc);

  /// Data access.
  AccessResult lookup_data(std::uint32_t tid, std::uint64_t addr, bool write);

  [[nodiscard]] const HierarchyConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const Cache& l1i() const noexcept { return l1i_; }
  [[nodiscard]] const Cache& l1d() const noexcept { return l1d_; }
  [[nodiscard]] const Cache& l2() const noexcept { return l2_; }

  [[nodiscard]] const ThreadMemStats& instr_stats(std::uint32_t tid) const {
    return istats_[tid];
  }
  [[nodiscard]] const ThreadMemStats& data_stats(std::uint32_t tid) const {
    return dstats_[tid];
  }
  void reset_thread_stats();

 private:
  HierarchyConfig cfg_;
  Cache l1i_;
  Cache l1d_;
  Cache l2_;
  std::vector<ThreadMemStats> istats_;
  std::vector<ThreadMemStats> dstats_;
};

}  // namespace smt::mem
