// Set-associative cache model with true-LRU replacement.
//
// Tag-only (no data payloads): a lookup reports hit/miss and updates
// recency; a miss fills the line, evicting the LRU way. The model is
// shared by L1I, L1D and the unified L2. It is value-semantic so
// simulator snapshots copy the full cache state — required for the oracle
// scheduler's exact quantum re-runs.
//
// Storage is two set-major arrays: the tags, and one byte per way that
// packs the way's recency rank with its valid and dirty bits. A set's
// ranks are always a permutation of 0..ways-1 (0 = most recently used,
// invalid ways included), so an access moves one way to rank 0 and ages
// the ways it passed; no counter grows and none ever needs rebasing.
// Nine bytes a line instead of a padded 16 keep a snapshot small: the
// caches are most of a Simulator copy (DESIGN.md §17).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace smt::mem {

struct CacheConfig {
  std::string name = "cache";
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t line_bytes = 32;
  std::uint32_t ways = 4;

  [[nodiscard]] std::uint64_t num_sets() const noexcept {
    return size_bytes / (static_cast<std::uint64_t>(line_bytes) * ways);
  }
};

class Cache {
 public:
  /// Largest associativity the packed rank field can order.
  static constexpr std::uint32_t kMaxWays = 64;

  Cache() : Cache(CacheConfig{}) {}
  explicit Cache(const CacheConfig& cfg);

  /// Access `addr`; returns true on hit. On miss the line is filled into
  /// the first invalid way, else over the LRU way. `write` marks the
  /// installed/updated line dirty; dirtiness only feeds the writeback
  /// statistics — latency of writebacks is folded into the miss latency
  /// by the hierarchy.
  bool access(std::uint64_t addr, bool write);

  /// Probe without changing any state (for tests and occupancy queries).
  [[nodiscard]] bool contains(std::uint64_t addr) const;

  void clear();

  [[nodiscard]] const CacheConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }
  [[nodiscard]] std::uint64_t dirty_evictions() const noexcept {
    return dirty_evictions_;
  }
  [[nodiscard]] double miss_rate() const noexcept {
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(misses_) / static_cast<double>(total)
                 : 0.0;
  }

 private:
  // Way byte: rank << kRankShift | kDirty | kValid.
  static constexpr std::uint8_t kValid = 1u << 0;
  static constexpr std::uint8_t kDirty = 1u << 1;
  static constexpr std::uint8_t kState = kValid | kDirty;
  static constexpr unsigned kRankShift = 2;
  static constexpr std::uint8_t kRankOne = 1u << kRankShift;

  [[nodiscard]] std::uint64_t set_index(std::uint64_t addr) const noexcept;
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t addr) const noexcept;
  /// Make `way` the set's most recently used, ageing every way that was
  /// more recent than it.
  void touch(std::uint8_t* ways, std::uint32_t way) const noexcept;

  CacheConfig cfg_;
  std::uint64_t sets_ = 1;
  unsigned line_shift_ = 0;  ///< log2(line_bytes)
  unsigned set_shift_ = 0;   ///< log2(sets_)
  std::vector<std::uint64_t> tags_;  ///< sets_ * ways, set-major
  std::vector<std::uint8_t> ways_;   ///< rank and state, same indexing
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t dirty_evictions_ = 0;
};

}  // namespace smt::mem
