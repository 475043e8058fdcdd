#include "mem/cache.hpp"

#include <bit>
#include <stdexcept>

namespace smt::mem {

namespace {
[[nodiscard]] constexpr bool is_pow2(std::uint64_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}
}  // namespace

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  if (cfg.line_bytes == 0 || !is_pow2(cfg.line_bytes)) {
    throw std::invalid_argument(cfg.name + ": line size must be a power of 2");
  }
  if (cfg.ways == 0 || cfg.ways > kMaxWays) {
    throw std::invalid_argument(cfg.name + ": ways must be in [1, " +
                                std::to_string(kMaxWays) + "]");
  }
  sets_ = cfg.num_sets();
  if (sets_ == 0 || !is_pow2(sets_)) {
    throw std::invalid_argument(cfg.name +
                                ": size/(line*ways) must be a power of 2");
  }
  line_shift_ = static_cast<unsigned>(std::countr_zero(cfg.line_bytes));
  set_shift_ = static_cast<unsigned>(std::countr_zero(sets_));
  tags_.resize(sets_ * cfg.ways);
  ways_.resize(sets_ * cfg.ways);
  clear();
}

std::uint64_t Cache::set_index(std::uint64_t addr) const noexcept {
  return (addr >> line_shift_) & (sets_ - 1);
}

std::uint64_t Cache::tag_of(std::uint64_t addr) const noexcept {
  return addr >> line_shift_ >> set_shift_;
}

void Cache::touch(std::uint8_t* ways, std::uint32_t way) const noexcept {
  const std::uint8_t rank = ways[way] & ~kState;
  if (rank == 0) return;  // already the most recent: nothing ages
  // The state bits sit below the rank, so comparing whole bytes against
  // the touched way's rank finds exactly the ways ranked more recent.
  // Branch-free, since which ways age follows the access pattern; `n` is
  // a local because the byte stores may alias cfg_.
  const std::uint32_t n = cfg_.ways;
  for (std::uint32_t w = 0; w < n; ++w) {
    ways[w] = static_cast<std::uint8_t>(ways[w] + (ways[w] < rank) * kRankOne);
  }
  ways[way] &= kState;
}

bool Cache::access(std::uint64_t addr, bool write) {
  const std::uint64_t first = set_index(addr) * cfg_.ways;
  const std::uint64_t tag = tag_of(addr);
  const std::uint64_t* const tags = &tags_[first];
  std::uint8_t* const ways = &ways_[first];
  const std::uint32_t n = cfg_.ways;

  for (std::uint32_t w = 0; w < n; ++w) {
    if (tags[w] == tag && (ways[w] & kValid)) {
      touch(ways, w);
      if (write) ways[w] |= kDirty;
      ++hits_;
      return true;
    }
  }

  // Miss: fill into the first invalid way, else evict the LRU way (the
  // one ranked last).
  ++misses_;
  std::uint32_t victim = 0;
  while (victim < n && (ways[victim] & kValid)) ++victim;
  if (victim == n) {
    const auto lru = static_cast<std::uint8_t>((n - 1) << kRankShift);
    for (std::uint32_t w = 0; w < n; ++w) {
      if ((ways[w] & ~kState) == lru) victim = w;
    }
    ++evictions_;
    if (ways[victim] & kDirty) ++dirty_evictions_;
  }
  tags_[first + victim] = tag;
  ways[victim] = static_cast<std::uint8_t>((ways[victim] & ~kState) | kValid |
                                          (write ? kDirty : 0));
  touch(ways, victim);
  return false;
}

bool Cache::contains(std::uint64_t addr) const {
  const std::uint64_t first = set_index(addr) * cfg_.ways;
  const std::uint64_t tag = tag_of(addr);
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (tags_[first + w] == tag && (ways_[first + w] & kValid)) return true;
  }
  return false;
}

void Cache::clear() {
  // Way w of every set starts invalid at rank w: a permutation, as every
  // access keeps it.
  for (std::size_t i = 0; i < ways_.size(); ++i) {
    tags_[i] = 0;
    ways_[i] = static_cast<std::uint8_t>((i % cfg_.ways) << kRankShift);
  }
  hits_ = misses_ = evictions_ = dirty_evictions_ = 0;
}

}  // namespace smt::mem
