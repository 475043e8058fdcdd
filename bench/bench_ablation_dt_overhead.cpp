// Ablation: detector-thread execution cost (DESIGN.md §8.3).
//
// The DT retires its monitoring/decision code only through idle fetch
// slots, so a switch is delayed until that work drains — and is skipped
// entirely when the pipeline keeps the DT starved (paper §3 argues this
// is acceptable). This ablation compares:
//   * instant  — zero-cost switching at the quantum boundary (upper bound)
//   * default  — paper-scale DT cost (96-instr check + 512-instr decide)
//   * heavy    — 10x DT cost
//   * enormous — DT practically never finishes (ADTS disabled de facto)
// on the best configuration (Type 3, m=2).
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

  struct Variant {
    const char* name;
    bool instant;
    std::uint64_t check;
    std::uint64_t decide;
  };
  const Variant variants[] = {
      {"instant", true, 0, 0},
      {"default", false, 96, 512},
      {"heavy(10x)", false, 960, 5120},
      {"enormous", false, 1u << 22, 1u << 22},
  };

  print_banner(std::cout,
               "Ablation: detector-thread cost model (Type 3, m=2)");

  Table t({"variant", "mean IPC", "mean switches", "skipped (DT starved)"});
  for (const Variant& v : variants) {
    std::vector<double> ipcs;
    double switches = 0;
    double skipped = 0;
    for (const auto& mname : mixes) {
      core::AdtsConfig overrides;
      overrides.instant_switch = v.instant;
      overrides.dt_check_instrs = v.check;
      overrides.dt_decide_instrs = v.decide;
      const sim::SampleResult r =
          sim::run_adts(workload::mix(mname), core::HeuristicType::kType3,
                        2.0, 8, scale, &overrides);
      ipcs.push_back(r.ipc());
      switches += static_cast<double>(r.switches);
      skipped += static_cast<double>(r.switches_skipped_dt_busy);
    }
    const double n = static_cast<double>(mixes.size());
    t.add_row({v.name, Table::num(mean(ipcs)), Table::num(switches / n, 1),
               Table::num(skipped / n, 1)});
  }
  t.print(std::cout);
  std::cout << "\nexpected: default ≈ instant (the DT fits its cycle "
               "budget, paper §3); enormous degrades toward fixed ICOUNT "
               "behaviour with all switches skipped.\n";
  return 0;
}
