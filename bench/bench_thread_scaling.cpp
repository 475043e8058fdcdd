// Thread-scaling / saturation experiment (paper §1, §7): fixed-policy
// SMT throughput "often saturates and in some cases even degrades" past
// ~4 threads; ADTS "can significantly extend the saturation point".
//
// Runs each mix at 2/4/6/8 threads (members randomly excluded, as in the
// paper §5) under fixed ICOUNT and under ADTS (Type 3, m=2), printing the
// scaling curves and the marginal gain from 4→8 threads.
#include <iostream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/heuristics.hpp"
#include "policy/fetch_policy.hpp"
#include "sim/experiment.hpp"
#include "workload/mix.hpp"

int main() {
  using namespace smt;
  const sim::ExperimentScale scale = sim::ExperimentScale::from_env();
  const auto& mixes = scale.mixes;
  const std::size_t thread_counts[] = {2, 4, 6, 8};

  print_banner(std::cout,
               "Thread scaling: fixed ICOUNT vs ADTS (Type 3, m=2)");

  Table t({"mix", "policy", "2T", "4T", "6T", "8T", "8T/4T"});
  std::vector<double> fixed_curve(4, 0.0);
  std::vector<double> adts_curve(4, 0.0);

  for (const auto& mname : mixes) {
    const workload::Mix& mix = workload::mix(mname);
    std::vector<std::string> frow{mname, "ICOUNT"};
    std::vector<std::string> arow{"", "ADTS"};
    double f4 = 0;
    double f8 = 0;
    double a4 = 0;
    double a8 = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t n = thread_counts[i];
      const double fixed =
          sim::run_fixed(mix, policy::FetchPolicy::kIcount, n, scale).ipc();
      const double adts =
          sim::run_adts(mix, core::HeuristicType::kType3, 2.0, n, scale)
              .ipc();
      fixed_curve[i] += fixed;
      adts_curve[i] += adts;
      frow.push_back(Table::num(fixed));
      arow.push_back(Table::num(adts));
      if (n == 4) {
        f4 = fixed;
        a4 = adts;
      }
      if (n == 8) {
        f8 = fixed;
        a8 = adts;
      }
    }
    frow.push_back(Table::num(f4 > 0 ? f8 / f4 : 0, 2) + "x");
    arow.push_back(Table::num(a4 > 0 ? a8 / a4 : 0, 2) + "x");
    t.add_row(std::move(frow));
    t.add_row(std::move(arow));
  }
  t.print(std::cout);

  const double n = static_cast<double>(mixes.size());
  std::cout << "\nmean scaling (IPC): fixed ICOUNT ";
  for (double v : fixed_curve) std::cout << Table::num(v / n) << ' ';
  std::cout << "| ADTS ";
  for (double v : adts_curve) std::cout << Table::num(v / n) << ' ';
  std::cout << "\n4→8T mean speedup: fixed "
            << Table::num(fixed_curve[3] / fixed_curve[1], 2) << "x, ADTS "
            << Table::num(adts_curve[3] / adts_curve[1], 2)
            << "x (paper: sublinear for fixed — saturation — with ADTS "
               "extending the saturation point)\n";
  return 0;
}
