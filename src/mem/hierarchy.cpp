#include "mem/hierarchy.hpp"

#include <stdexcept>
#include <string>

namespace smt::mem {

Hierarchy::Hierarchy(const HierarchyConfig& cfg)
    : cfg_(cfg),
      l1i_(cfg.l1i),
      l1d_(cfg.l1d),
      l2_(cfg.l2),
      istats_(cfg.max_threads),
      dstats_(cfg.max_threads) {
  for (const CacheConfig* c : {&cfg.l1i, &cfg.l1d, &cfg.l2}) {
    if (c->line_bytes * c->num_sets() < kMinSetSpanBytes) {
      throw std::invalid_argument(c->name +
                                  ": line x sets span must be at least " +
                                  std::to_string(kMinSetSpanBytes) + " bytes");
    }
  }
}

AccessResult Hierarchy::lookup_instr(std::uint32_t tid, std::uint64_t pc) {
  AccessResult r;
  ThreadMemStats& s = istats_[tid];
  ++s.accesses;
  r.latency = cfg_.l1_latency;
  if (l1i_.access(pc, /*write=*/false)) return r;

  r.l1_miss = true;
  ++s.l1_misses;
  r.latency = cfg_.l2_latency;
  if (l2_.access(pc, /*write=*/false)) return r;

  r.l2_miss = true;
  ++s.l2_misses;
  r.latency = cfg_.mem_latency;
  return r;
}

AccessResult Hierarchy::lookup_data(std::uint32_t tid, std::uint64_t addr,
                                    bool write) {
  AccessResult r;
  ThreadMemStats& s = dstats_[tid];
  ++s.accesses;
  r.latency = cfg_.l1_latency;
  if (l1d_.access(addr, write)) return r;

  r.l1_miss = true;
  ++s.l1_misses;
  r.latency = cfg_.l2_latency;
  if (l2_.access(addr, write)) return r;

  r.l2_miss = true;
  ++s.l2_misses;
  r.latency = cfg_.mem_latency;
  return r;
}

void Hierarchy::reset_thread_stats() {
  for (auto& s : istats_) s.reset();
  for (auto& s : dstats_) s.reset();
}

}  // namespace smt::mem
