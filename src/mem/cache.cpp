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
  tag_shift_ = line_shift_ + static_cast<unsigned>(std::countr_zero(sets_));
  tags_.resize(sets_ * cfg.ways);
  ways_.resize(sets_ * cfg.ways);
  clear();
}

void Cache::adopt_high(std::uint64_t region) {
  if (high_ != 0) {
    throw std::invalid_argument(
        cfg_.name + ": a tag outside the cache's two regions would alias");
  }
  high_ = region;
}

void Cache::fill(std::uint64_t first, std::uint32_t tag, bool write) {
  // The victim is the way ranked last. Invalid ways are never touched, so
  // they stay ranked below every valid way: while the set has one, the
  // way ranked last is invalid; once it is full, that way is the LRU.
  std::uint8_t* const ways = &ways_[first];
  const std::uint32_t n = cfg_.ways;
  const auto last = static_cast<std::uint8_t>((n - 1) << kRankShift);
  std::uint32_t victim = 0;
  for (std::uint32_t w = 0; w < n; ++w) {
    if ((ways[w] & ~kState) == last) victim = w;
  }
  ++misses_;
  if (ways[victim] & kValid) {
    ++evictions_;
    if (ways[victim] & kDirty) ++dirty_evictions_;
  }
  tags_[first + victim] = tag;
  // Every other way was more recent than the victim, so every way ages.
  for (std::uint32_t w = 0; w < n; ++w) {
    ways[w] = static_cast<std::uint8_t>(ways[w] + kRankOne);
  }
  ways[victim] = static_cast<std::uint8_t>(kValid | (write ? kDirty : 0));
}

bool Cache::contains(std::uint64_t addr) const {
  const std::uint64_t full = addr >> tag_shift_;
  const std::uint64_t region = full >> 31;
  if (region != 0 && region != high_) return false;  // never stored
  const std::uint64_t first = set_index(addr) * cfg_.ways;
  const std::uint32_t tag = pack(full);
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
  high_ = 0;  // every way is invalid, so no stored tag names a region
  hits_ = misses_ = evictions_ = dirty_evictions_ = 0;
}

}  // namespace smt::mem
