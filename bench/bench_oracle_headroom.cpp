// Oracle headroom experiment (paper §1/§7): "a single fixed thread
// scheduling policy presents much room (some 30%) for improvement
// compared to an oracle-scheduled case."
//
// For each mix, runs (a) fixed ICOUNT, (b) the per-quantum oracle over
// the three ADTS FSM policies, and (c) the oracle over all ten policies,
// all continuing from an identical warmed snapshot. Prints per-mix
// headroom and the mean/max — the bound that motivates adaptive
// scheduling. Expected shape: headroom is largest for homogeneous mixes
// (many similar applications) and near zero for uniformly memory-bound
// ones, with the mean strictly positive.
#include <iostream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "par/thread_pool.hpp"
#include "sim/experiment.hpp"
#include "sim/oracle.hpp"
#include "sim/simulator.hpp"
#include "workload/mix.hpp"

namespace {

/// Everything one mix contributes to the table.
struct MixRow {
  double fixed_ipc = 0.0;
  smt::sim::OracleResult r3;
  smt::sim::OracleResult r10;
};

}  // namespace

int main() {
  using namespace smt;
  const sim::ExperimentScale scale = sim::ExperimentScale::from_env();
  const auto& mixes = scale.mixes;

  print_banner(std::cout,
               "Oracle headroom over fixed ICOUNT (per-quantum best policy)");

  Table t({"mix", "ICOUNT", "oracle(3)", "oracle(10)", "headroom(3)",
           "headroom(10)", "oracle switches"});
  std::vector<double> head3;
  std::vector<double> head10;

  sim::OracleConfig o3;
  sim::OracleConfig o10;
  o10.candidates = policy::all_policies();

  // One task per mix (baseline + both oracles); the grain is the mix, so
  // the inner oracle runs serially rather than nesting pools.
  par::ThreadPool pool(scale.jobs);
  sim::ExperimentScale inner = scale;
  inner.jobs = 1;
  const std::vector<MixRow> rows =
      par::parallel_map(pool, mixes.size(), [&](std::size_t m) {
        const workload::Mix& mix = workload::mix(mixes[m]);
        MixRow row;

        // Fixed ICOUNT over exactly the oracle's cycle span and intervals.
        double fixed_committed = 0;
        double fixed_cycles = 0;
        for (std::uint32_t i = 0; i < scale.oracle_intervals; ++i) {
          sim::SimConfig cfg = sim::make_config(mix, 8, scale.base_seed);
          cfg.workload_seed =
              mix64(scale.base_seed ^ (0x1417ull + i * 0x9e37ull));
          sim::Simulator s(cfg);
          s.run(scale.plan.warmup_cycles);
          const std::uint64_t c0 = s.committed();
          s.run(scale.oracle_quanta * o3.quantum_cycles);
          fixed_committed += static_cast<double>(s.committed() - c0);
          fixed_cycles +=
              static_cast<double>(scale.oracle_quanta * o3.quantum_cycles);
        }
        row.fixed_ipc = fixed_committed / fixed_cycles;
        row.r3 = sim::run_oracle_on_mix(mix, 8, inner, o3);
        row.r10 = sim::run_oracle_on_mix(mix, 8, inner, o10);
        return row;
      });

  for (std::size_t m = 0; m < mixes.size(); ++m) {
    const MixRow& row = rows[m];
    const double h3 = 100.0 * (row.r3.ipc() / row.fixed_ipc - 1.0);
    const double h10 = 100.0 * (row.r10.ipc() / row.fixed_ipc - 1.0);
    head3.push_back(h3);
    head10.push_back(h10);

    t.add_row({mixes[m], Table::num(row.fixed_ipc), Table::num(row.r3.ipc()),
               Table::num(row.r10.ipc()), Table::num(h3, 1) + "%",
               Table::num(h10, 1) + "%", std::to_string(row.r10.switches)});
  }
  t.print(std::cout);

  double max3 = 0;
  double max10 = 0;
  for (double h : head3) max3 = std::max(max3, h);
  for (double h : head10) max10 = std::max(max10, h);
  std::cout << "\nmean headroom: oracle(3) " << Table::num(mean(head3), 1)
            << "%, oracle(10) " << Table::num(mean(head10), 1) << "%\n"
            << "max headroom:  oracle(3) " << Table::num(max3, 1)
            << "%, oracle(10) " << Table::num(max10, 1) << "%\n"
            << "paper: \"some 30%\" best-case room over fixed scheduling.\n";
  return 0;
}
