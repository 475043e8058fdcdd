#include "policy/fetch_policy.hpp"

#include <stdexcept>

#include "pipeline/counters.hpp"

namespace smt::policy {

std::string_view name(FetchPolicy p) noexcept {
  switch (p) {
    case FetchPolicy::kIcount: return "ICOUNT";
    case FetchPolicy::kBrcount: return "BRCOUNT";
    case FetchPolicy::kLdcount: return "LDCOUNT";
    case FetchPolicy::kMemcount: return "MEMCOUNT";
    case FetchPolicy::kL1MissCount: return "L1MISSCOUNT";
    case FetchPolicy::kL1IMissCount: return "L1IMISSCOUNT";
    case FetchPolicy::kL1DMissCount: return "L1DMISSCOUNT";
    case FetchPolicy::kAccIpc: return "ACCIPC";
    case FetchPolicy::kStallCount: return "STALLCOUNT";
    case FetchPolicy::kRoundRobin: return "RR";
  }
  return "?";
}

FetchPolicy parse_policy(std::string_view s) {
  for (FetchPolicy p : all_policies()) {
    if (name(p) == s) return p;
  }
  throw std::out_of_range("unknown fetch policy: " + std::string(s));
}

const std::vector<FetchPolicy>& all_policies() {
  static const std::vector<FetchPolicy> ps = {
      FetchPolicy::kIcount,       FetchPolicy::kBrcount,
      FetchPolicy::kLdcount,      FetchPolicy::kMemcount,
      FetchPolicy::kL1MissCount,  FetchPolicy::kL1IMissCount,
      FetchPolicy::kL1DMissCount, FetchPolicy::kAccIpc,
      FetchPolicy::kStallCount,   FetchPolicy::kRoundRobin,
  };
  return ps;
}

double priority_key(FetchPolicy p, const pipeline::ThreadCounters& c,
                    std::uint32_t tid, std::uint32_t num_threads,
                    std::uint64_t cycle) noexcept {
  switch (p) {
    case FetchPolicy::kIcount:
      return c.icount;
    case FetchPolicy::kBrcount:
      return c.brcount;
    case FetchPolicy::kLdcount:
      return c.ldcount;
    case FetchPolicy::kMemcount:
      return c.memcount;
    case FetchPolicy::kL1MissCount:
      return c.l1_outstanding();
    case FetchPolicy::kL1IMissCount:
      return c.l1i_outstanding;
    case FetchPolicy::kL1DMissCount:
      return c.l1d_outstanding;
    case FetchPolicy::kAccIpc:
      // Higher accumulated IPC drains the pipeline faster → fetch first.
      return -c.acc_ipc(cycle);
    case FetchPolicy::kStallCount:
      return static_cast<double>(c.since_quantum().stalls);
    case FetchPolicy::kRoundRobin: {
      if (num_threads == 0) return 0.0;
      // Rotating offset: the thread whose turn it is gets key 0.
      const std::uint64_t lead = cycle % num_threads;
      return static_cast<double>((tid + num_threads -
                                  static_cast<std::uint32_t>(lead)) %
                                 num_threads);
    }
  }
  return 0.0;
}

}  // namespace smt::policy
