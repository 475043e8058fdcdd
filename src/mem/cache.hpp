// Set-associative cache model with true-LRU replacement.
//
// Tag-only (no data payloads): a lookup reports hit/miss and updates
// recency; a miss fills the line, evicting the LRU way. The model is
// shared by L1I, L1D and the unified L2. It is value-semantic so
// simulator snapshots copy the full cache state — required for the oracle
// scheduler's exact quantum re-runs.
//
// Storage is two set-major arrays: the 32-bit packed tags, and one byte
// per way that packs the way's recency rank with its valid and dirty
// bits. A set's ranks are always a permutation of 0..ways-1 (0 = most
// recently used, invalid ways included), so an access moves one way to
// rank 0 and ages the ways it passed; no counter grows and none ever
// needs rebasing. Five bytes a line instead of a padded 16 keep a
// snapshot small: the caches are most of a Simulator copy (DESIGN.md
// §17).
//
// Packed tags: a tag below 2^31 is stored as it is. The cache accepts
// one high region besides: the first tag of 2^31 or more records its
// bits from 31 up (`high_`), and every tag with those high bits is
// stored as its low 31 bits with bit 31 set. So the packing is
// one-to-one on every tag the cache accepts; a tag of a third region
// (2^31 or more with other high bits) would alias, so access() throws
// for it and contains() reports it absent.
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
  /// an invalid way, else over the LRU way. `write` marks the
  /// installed/updated line dirty; dirtiness only feeds the writeback
  /// statistics — latency of writebacks is folded into the miss latency
  /// by the hierarchy. Throws std::invalid_argument for an address whose
  /// tag lies in neither the low region nor the cache's high one.
  /// Inline up to the hit, so a hit costs no call.
  bool access(std::uint64_t addr, bool write) {
    const std::uint64_t full = addr >> tag_shift_;
    const std::uint64_t region = full >> 31;
    if (region != 0 && region != high_) [[unlikely]] adopt_high(region);
    const std::uint32_t tag = pack(full);
    const std::uint64_t first = set_index(addr) * cfg_.ways;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
      if (tags_[first + w] == tag && (ways_[first + w] & kValid)) {
        std::uint8_t* const ways = &ways_[first];
        touch(ways, w);
        if (write) ways[w] |= kDirty;
        ++hits_;
        return true;
      }
    }
    fill(first, tag, write);
    return false;
  }

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

  /// Tags at or above this hold their region in the bits from 31 up.
  static constexpr std::uint64_t kLowTags = 1ULL << 31;

  [[nodiscard]] std::uint64_t set_index(std::uint64_t addr) const noexcept {
    return (addr >> line_shift_) & (sets_ - 1);
  }
  /// The stored form of `tag`: itself below kLowTags, else its low 31 bits
  /// with bit 31 set. Exact only when `tag >> 31` is 0 or high_.
  [[nodiscard]] static std::uint32_t pack(std::uint64_t tag) noexcept {
    return static_cast<std::uint32_t>(tag) |
           static_cast<std::uint32_t>(tag >= kLowTags) << 31;
  }
  /// Record `region` (nonzero, != high_) as the high region if there is
  /// none yet; throw if there is.
  void adopt_high(std::uint64_t region);
  /// Make `way` the set's most recently used, ageing every way that was
  /// more recent than it.
  void touch(std::uint8_t* ways, std::uint32_t way) const noexcept {
    const std::uint8_t rank = ways[way] & ~kState;
    if (rank == 0) return;  // already the most recent: nothing ages
    // The state bits sit below the rank, so comparing whole bytes against
    // the touched way's rank finds exactly the ways ranked more recent.
    // Branch-free, since which ways age follows the access pattern; `n`
    // is a local because the byte stores may alias cfg_.
    const std::uint32_t n = cfg_.ways;
    for (std::uint32_t w = 0; w < n; ++w) {
      ways[w] =
          static_cast<std::uint8_t>(ways[w] + (ways[w] < rank) * kRankOne);
    }
    ways[way] &= kState;
  }
  /// The miss half of access(): count it and fill `tag` into the set
  /// starting at `first`.
  void fill(std::uint64_t first, std::uint32_t tag, bool write);

  CacheConfig cfg_;
  std::uint64_t sets_ = 1;
  unsigned line_shift_ = 0;  ///< log2(line_bytes)
  unsigned tag_shift_ = 0;   ///< log2(line_bytes * sets_)
  /// The high region's tag bits from 31 up; 0 until a high tag is seen.
  std::uint64_t high_ = 0;
  std::vector<std::uint32_t> tags_;  ///< packed, sets_ * ways, set-major
  std::vector<std::uint8_t> ways_;   ///< rank and state, same indexing
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t dirty_evictions_ = 0;
};

}  // namespace smt::mem
