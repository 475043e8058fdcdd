// Quickstart: simulate one mix on the 8-context SMT machine and print a
// summary — the five-minute tour of the library.
//
//   ./quickstart [mix] [cycles]
//
// Defaults: mix "bal1", 200000 cycles.
#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "sim/simulator.hpp"
#include "workload/mix.hpp"

int main(int argc, char** argv) {
  const std::string mix_name = argc > 1 ? argv[1] : "bal1";
  const std::uint64_t cycles = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                        : 200000;

  // 1. Pick a workload mix (the paper's 13 mixes are built in; see
  //    workload::all_mixes()).
  const smt::workload::Mix& mix = smt::workload::mix(mix_name);
  std::cout << "mix " << mix.name << ": " << mix.description << "\n\n";

  // 2. Build a simulator. make_config fills in the ICOUNT.2.8 machine
  //    defaults; everything is overridable through SimConfig.
  smt::sim::SimConfig cfg = smt::sim::make_config(mix, /*threads=*/8,
                                                  /*workload_seed=*/2003);
  smt::sim::Simulator sim(cfg);

  // 3. Run.
  sim.run(cycles);

  // 4. Inspect.
  const auto stats = sim.pipeline().stats();
  std::cout << "cycles:            " << stats.cycles << '\n'
            << "committed:         " << stats.committed << '\n'
            << "aggregate IPC:     " << smt::Table::num(stats.ipc()) << '\n'
            << "fetched:           " << stats.fetched << " ("
            << smt::Table::num(100.0 * double(stats.fetched_wrong_path) /
                                   double(stats.fetched),
                               1)
            << "% wrong-path)\n"
            << "branch mispredict: "
            << smt::Table::num(100.0 * double(stats.mispredicts) /
                                   double(stats.branches_resolved),
                               1)
            << "%\n"
            << "L1D miss rate:     "
            << smt::Table::num(100.0 * sim.pipeline().memory().l1d().miss_rate(), 1)
            << "%\n"
            << "L2 miss rate:      "
            << smt::Table::num(100.0 * sim.pipeline().memory().l2().miss_rate(), 1)
            << "%\n\n";

  smt::Table per_thread({"thread", "app", "committed", "acc IPC", "L1D out",
                         "icount"});
  for (std::uint32_t t = 0; t < sim.pipeline().num_threads(); ++t) {
    const auto& c = sim.pipeline().counters(t);
    per_thread.add_row({std::to_string(t),
                        sim.pipeline().program(t).app().name,
                        std::to_string(c.since_load().committed),
                        smt::Table::num(c.acc_ipc(sim.now())),
                        std::to_string(c.l1d_outstanding),
                        std::to_string(c.icount)});
  }
  per_thread.print(std::cout);
  return 0;
}
