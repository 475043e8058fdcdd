// Table 1 companion experiment: aggregate IPC of every fixed fetch policy
// on every mix, 8 threads.
//
// The paper's Table 1 lists the ten policies; the claim carried from
// Tullsen et al. [20] and restated in §1 is that ICOUNT "yields the best
// average performance" while no policy wins everywhere. This bench
// regenerates that comparison on the reproduced machine: per-mix IPC for
// each policy, the per-policy mean, and which policy won each mix.
#include <iostream>
#include <map>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "par/thread_pool.hpp"
#include "policy/fetch_policy.hpp"
#include "sim/experiment.hpp"

int main() {
  using namespace smt;
  const sim::ExperimentScale scale = sim::ExperimentScale::from_env();
  const auto& mixes = scale.mixes;
  const auto& policies = policy::all_policies();

  print_banner(std::cout,
               "Table 1: fixed fetch policies — aggregate IPC per mix "
               "(8 threads)");

  std::vector<std::string> headers{"mix"};
  for (auto p : policies) headers.emplace_back(policy::name(p));
  headers.emplace_back("winner");
  Table t(headers);

  std::map<policy::FetchPolicy, std::vector<double>> per_policy;
  std::map<policy::FetchPolicy, int> wins;

  // The (mix × policy) grid is independent runs; fan it across the pool
  // (policy-fastest, matching the serial loop order) and reduce serially.
  par::ThreadPool pool(scale.jobs);
  const std::vector<double> grid = par::parallel_map(
      pool, mixes.size() * policies.size(), [&](std::size_t idx) {
        return sim::run_fixed(workload::mix(mixes[idx / policies.size()]),
                              policies[idx % policies.size()], 8, scale)
            .ipc();
      });

  for (std::size_t m = 0; m < mixes.size(); ++m) {
    std::vector<std::string> row{mixes[m]};
    policy::FetchPolicy best = policies.front();
    double best_ipc = -1.0;
    for (std::size_t pi = 0; pi < policies.size(); ++pi) {
      const policy::FetchPolicy p = policies[pi];
      const double ipc = grid[m * policies.size() + pi];
      per_policy[p].push_back(ipc);
      row.push_back(Table::num(ipc));
      if (ipc > best_ipc) {
        best_ipc = ipc;
        best = p;
      }
    }
    wins[best]++;
    row.emplace_back(policy::name(best));
    t.add_row(std::move(row));
  }

  std::vector<std::string> mean_row{"MEAN"};
  policy::FetchPolicy best_avg = policies.front();
  double best_mean = -1.0;
  for (auto p : policies) {
    const double m = mean(per_policy[p]);
    mean_row.push_back(Table::num(m));
    if (m > best_mean) {
      best_mean = m;
      best_avg = p;
    }
  }
  mean_row.emplace_back("");
  t.add_row(std::move(mean_row));
  t.print(std::cout);

  std::cout << "\nbest on average: " << policy::name(best_avg)
            << " (paper/Tullsen: ICOUNT best on average; no policy wins "
               "every mix)\n";
  std::cout << "per-mix winners:";
  for (const auto& [p, n] : wins) {
    std::cout << ' ' << policy::name(p) << "x" << n;
  }
  std::cout << '\n';
  return 0;
}
