// Ablation: fetch partitioning — ICOUNT.1.8 vs .2.8 vs .4.8.
//
// Paper §5: "We limited the number of threads that can be fetched in one
// cycle to two. A study [Burns & Gaudiot, MTEAC'99] showed that fetching
// all eight instructions from one thread can adversely affect the
// performance due to fetch fragmentation." A single thread rarely fills
// the fetch width before hitting a cache-block boundary or a taken
// branch, so splitting the bandwidth over two threads recovers the lost
// slots; going much wider adds little because the block-boundary limit
// binds per thread. This bench reproduces that trade-off on all mixes.
#include <iostream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace smt;
  const sim::ExperimentScale scale = sim::ExperimentScale::from_env();
  const auto& mixes = scale.mixes;

  print_banner(std::cout,
               "Ablation: threads fetched per cycle (ICOUNT.n.8)");

  Table t({"fetch threads", "mean IPC", "vs .2.8"});
  std::vector<double> means;
  for (const std::uint32_t n : {1u, 2u, 4u, 8u}) {
    std::vector<double> ipcs;
    for (const auto& mname : mixes) {
      sim::SimConfig cfg =
          sim::make_config(workload::mix(mname), 8, scale.base_seed);
      cfg.machine.fetch_threads = n;
      ipcs.push_back(sim::run_sampled(cfg, scale.plan).ipc());
    }
    means.push_back(mean(ipcs));
  }
  const double base = means[1];  // .2.8
  const char* labels[] = {"1 (.1.8)", "2 (.2.8, paper)", "4 (.4.8)",
                          "8 (.8.8)"};
  for (std::size_t i = 0; i < means.size(); ++i) {
    t.add_row({labels[i], Table::num(means[i]),
               Table::num(100.0 * (means[i] / base - 1.0), 1) + "%"});
  }
  t.print(std::cout);
  std::cout
      << "\nreading: which n wins depends on what limits the machine. On a "
         "fetch-bandwidth-limited machine (Tullsen's), .2.8 beats .1.8 "
         "because one thread rarely fills the width past a block boundary "
         "(fetch fragmentation). On this substrate the front end is "
         "buffer/dispatch-limited, so fetch *selectivity* dominates: "
         "feeding only the single best thread per cycle keeps lower-"
         "priority threads' instructions out of the in-order dispatch "
         "stage, and .1.8 wins while .4.8/.8.8 (less selective) lose. "
         "Either way the paper's configuration (.2.8) is what every other "
         "experiment in this repo uses.\n";
  return 0;
}
