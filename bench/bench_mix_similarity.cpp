// Mix-similarity experiment (paper §6/§7): "greater improvements can be
// achieved when more similar applications are found in a mixture. With a
// mixture of various applications, less improvement was achieved."
//
// Sorts the mixes by behavioural diversity (mean pairwise profile
// distance), measures the ADTS gain over fixed ICOUNT for each, and
// reports the rank correlation between diversity and gain — expected to
// be negative.
#include <algorithm>
#include <iostream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/detector.hpp"
#include "core/heuristics.hpp"
#include "policy/fetch_policy.hpp"
#include "sim/experiment.hpp"
#include "workload/mix.hpp"

namespace {

/// Spearman rank correlation (no ties handling beyond stable sort; fine
/// for 13 distinct real values).
double spearman(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = x.size();
  auto ranks = [n](const std::vector<double>& v) {
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    std::vector<double> r(n);
    for (std::size_t i = 0; i < n; ++i) r[idx[i]] = static_cast<double>(i);
    return r;
  };
  const auto rx = ranks(x);
  const auto ry = ranks(y);
  double d2 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    d2 += (rx[i] - ry[i]) * (rx[i] - ry[i]);
  }
  const double dn = static_cast<double>(n);
  return 1.0 - 6.0 * d2 / (dn * (dn * dn - 1.0));
}

}  // namespace

int main() {
  using namespace smt;
  const sim::ExperimentScale scale = sim::ExperimentScale::from_env();
  const auto& mixes = scale.mixes;

  print_banner(std::cout,
               "Mix similarity vs ADTS improvement (Type 3, m=2, adaptive "
               "conditions)");

  struct Row {
    std::string name;
    double diversity;
    double gain;
  };
  // The adaptive (EWMA-profiled) conditions are the configuration in
  // which the Type 3 conditions actually discriminate per-mix (see
  // bench_adts_vs_fixed); the similarity relationship is about where
  // *working* adaptivity pays.
  core::AdtsConfig adaptive;
  adaptive.adaptive_conditions = true;

  std::vector<Row> rows;
  for (const auto& mname : mixes) {
    const workload::Mix& mix = workload::mix(mname);
    const double fixed =
        sim::run_fixed(mix, policy::FetchPolicy::kIcount, 8, scale).ipc();
    const double adts = sim::run_adts(mix, core::HeuristicType::kType3, 2.0,
                                      8, scale, &adaptive)
                            .ipc();
    rows.push_back({mname, mix.diversity(), 100.0 * (adts / fixed - 1.0)});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.diversity < b.diversity; });

  Table t({"mix (sorted by diversity)", "diversity", "ADTS gain"});
  std::vector<double> div;
  std::vector<double> gain;
  for (const Row& r : rows) {
    div.push_back(r.diversity);
    gain.push_back(r.gain);
    t.add_row({r.name, Table::num(r.diversity, 3),
               Table::num(r.gain, 1) + "%"});
  }
  t.print(std::cout);

  const std::size_t half = rows.size() / 2;
  const double low_half =
      mean(std::vector<double>(gain.begin(), gain.begin() + half));
  const double high_half =
      mean(std::vector<double>(gain.end() - half, gain.end()));
  std::cout << "\nmean gain, most-similar half:  " << Table::num(low_half, 1)
            << "%\nmean gain, most-diverse half:  "
            << Table::num(high_half, 1)
            << "%\nSpearman(diversity, gain) = "
            << Table::num(spearman(div, gain), 2)
            << "  (paper expects negative: similar mixes gain more)\n";
  return 0;
}
