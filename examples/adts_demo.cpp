// ADTS demo: run the detector thread with the Type 3 heuristic on a mix
// and print a per-quantum timeline — which policy was in force, the
// quantum's IPC, whether the DT saw low throughput, and each switch as it
// happens. This is Figure 2 of the paper, animated.
//
//   ./adts_demo [mix] [heuristic 1|2|3|3p|4] [ipc_threshold] [quanta]
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/table.hpp"
#include "core/heuristics.hpp"
#include "sim/simulator.hpp"
#include "workload/mix.hpp"

int main(int argc, char** argv) {
  const std::string mix_name = argc > 1 ? argv[1] : "int8";
  const smt::core::HeuristicType heuristic =
      smt::core::parse_heuristic(argc > 2 ? argv[2] : "3");
  const double threshold = argc > 3 ? std::strtod(argv[3], nullptr) : 2.0;
  const int quanta = argc > 4 ? std::atoi(argv[4]) : 32;

  smt::sim::SimConfig cfg =
      smt::sim::make_config(smt::workload::mix(mix_name), 8, 2003);
  cfg.use_adts = true;
  cfg.adts.heuristic = heuristic;
  cfg.adts.ipc_threshold = threshold;

  smt::sim::Simulator sim(cfg);
  std::cout << "ADTS on mix " << mix_name << ", heuristic "
            << smt::core::name(heuristic) << ", IPC threshold "
            << threshold << ", quantum " << cfg.adts.quantum_cycles
            << " cycles\n\n";

  smt::Table t({"quantum", "policy", "IPC", "low?", "switches", "benign",
                "clogged threads"});
  std::uint64_t prev_committed = 0;
  std::uint64_t prev_switches = 0;
  std::uint64_t prev_low = 0;
  for (int q = 1; q <= quanta; ++q) {
    sim.run(cfg.adts.quantum_cycles);
    const auto& st = sim.detector().stats();
    const std::uint64_t committed = sim.committed() - prev_committed;
    prev_committed = sim.committed();
    const bool low = st.low_throughput_quanta > prev_low;
    prev_low = st.low_throughput_quanta;
    const bool switched = st.switches > prev_switches;
    prev_switches = st.switches;

    std::string clogs;
    for (std::uint32_t tid : sim.detector().clogging_threads()) {
      if (!clogs.empty()) clogs += ',';
      clogs += std::to_string(tid);
    }
    t.add_row({std::to_string(q),
               std::string(smt::policy::name(sim.pipeline().policy())) +
                   (switched ? " *" : ""),
               smt::Table::num(static_cast<double>(committed) /
                               static_cast<double>(cfg.adts.quantum_cycles)),
               low ? "LOW" : "", std::to_string(st.switches),
               smt::Table::num(st.benign_fraction(), 2), clogs});
  }
  t.print(std::cout);

  const auto& st = sim.detector().stats();
  std::cout << "\nsummary: " << st.quanta << " quanta, "
            << st.low_throughput_quanta << " low-throughput, " << st.switches
            << " switches (" << st.benign_switches << " benign, "
            << st.malignant_switches << " malignant, "
            << st.switches_skipped_dt_busy << " skipped: DT starved)\n"
            << "aggregate IPC: " << smt::Table::num(sim.ipc()) << '\n';
  return 0;
}
