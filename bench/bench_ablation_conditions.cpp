// Ablation: the Type 3 condition thresholds (paper §4.3.2).
//
// The paper calibrates COND_MEM / COND_BR trigger levels by simulation
// and notes "there can be no single golden reference measures". This
// ablation perturbs the calibrated thresholds by global scale factors and
// measures the Type 3 (m=2) outcome — quantifying how sensitive the
// heuristic is to that calibration (the argument for a *programmable*
// detector thread whose thresholds the kernel can update via DMA).
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

  print_banner(std::cout,
               "Ablation: Type 3 condition-threshold calibration (m=2)");

  Table t({"threshold scale", "mean IPC", "mean switches", "P(benign)"});
  for (const double f : {0.25, 0.5, 1.0, 2.0, 4.0, 1e9}) {
    std::vector<double> ipcs;
    double switches = 0;
    std::uint64_t benign = 0;
    std::uint64_t scored = 0;
    for (const auto& mname : mixes) {
      core::AdtsConfig overrides;
      overrides.conditions.l1_miss_per_cycle *= f;
      overrides.conditions.lsq_full_per_cycle *= f;
      overrides.conditions.mispredict_per_cycle *= f;
      overrides.conditions.cond_branch_per_cycle *= f;
      const sim::SampleResult r =
          sim::run_adts(workload::mix(mname), core::HeuristicType::kType3,
                        2.0, 8, scale, &overrides);
      ipcs.push_back(r.ipc());
      switches += static_cast<double>(r.switches);
      benign += r.benign_switches;
      scored += r.benign_switches + r.malignant_switches;
    }
    t.add_row({f > 1e6 ? "inf (conds never fire)" : Table::num(f, 2) + "x",
               Table::num(mean(ipcs)),
               Table::num(switches / static_cast<double>(mixes.size()), 1),
               Table::num(scored ? static_cast<double>(benign) /
                                       static_cast<double>(scored)
                                 : 0.0,
                          2)});
  }
  t.print(std::cout);
  std::cout << "\n1.0x = values calibrated on this simulator by the "
               "paper's own methodology (§4.3.2); 'inf' reduces Type 3 to "
               "never leaving ICOUNT.\n";
  return 0;
}
