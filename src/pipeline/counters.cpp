#include "pipeline/counters.hpp"

namespace smt::pipeline {

QuantumRates rates_for_quantum(const ThreadCounters& c,
                               std::uint64_t quantum_cycles) noexcept {
  QuantumRates r;
  if (quantum_cycles == 0) return r;
  const auto q = static_cast<double>(quantum_cycles);
  const EventCounts e = c.since_quantum();
  r.ipc = static_cast<double>(e.committed) / q;
  r.cond_branches_per_cycle = static_cast<double>(e.cond_branches) / q;
  r.mispredicts_per_cycle = static_cast<double>(e.mispredicts) / q;
  r.l1_misses_per_cycle =
      static_cast<double>(e.l1d_misses + e.l1i_misses) / q;
  r.lsq_full_per_cycle = static_cast<double>(e.lsq_full_events) / q;
  return r;
}

}  // namespace smt::pipeline
