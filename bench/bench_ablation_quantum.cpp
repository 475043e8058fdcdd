// Ablation: scheduling-quantum size (paper default: 8K cycles).
//
// Sweeps the quantum from 1K to 64K cycles at the best configuration
// (Type 3, m=2). Short quanta are noisy (IPC estimates over few cycles →
// spurious switches); long quanta adapt too slowly relative to workload
// phases. The 8K default should sit near the sweet spot.
#include <iostream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/detector.hpp"
#include "core/heuristics.hpp"
#include "sim/experiment.hpp"
#include "sim/sampling.hpp"

int main() {
  using namespace smt;
  const sim::ExperimentScale scale = sim::ExperimentScale::from_env();
  const auto& mixes = scale.mixes;

  print_banner(std::cout, "Ablation: scheduling quantum size (Type 3, m=2)");

  Table t({"quantum (cycles)", "mean IPC", "mean switches", "P(benign)"});
  for (const std::uint64_t q : {1024u, 2048u, 4096u, 8192u, 16384u, 32768u,
                                65536u}) {
    std::vector<double> ipcs;
    double switches = 0;
    std::uint64_t benign = 0;
    std::uint64_t scored = 0;
    for (const auto& mname : mixes) {
      core::AdtsConfig overrides;
      overrides.quantum_cycles = q;
      const sim::SampleResult r =
          sim::run_adts(workload::mix(mname), core::HeuristicType::kType3,
                        2.0, 8, scale, &overrides);
      ipcs.push_back(r.ipc());
      switches += static_cast<double>(r.switches);
      benign += r.benign_switches;
      scored += r.benign_switches + r.malignant_switches;
    }
    t.add_row({std::to_string(q), Table::num(mean(ipcs)),
               Table::num(switches / static_cast<double>(mixes.size()), 1),
               Table::num(scored ? static_cast<double>(benign) /
                                       static_cast<double>(scored)
                                 : 0.0,
                          2)});
  }
  t.print(std::cout);
  std::cout << "\npaper default: 8192 cycles.\n";
  return 0;
}
