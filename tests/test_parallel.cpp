// Unit tests: deterministic thread pool (par/thread_pool.hpp) and the
// parallel-equals-serial contract of the code built on it.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "sim/experiment.hpp"
#include "sim/oracle.hpp"
#include "workload/mix.hpp"

namespace smt {
namespace {

TEST(ThreadPool, ParallelMapPreservesSubmissionOrder) {
  // Tasks take wildly different amounts of work, so completion order
  // scrambles across the four workers; the results must come back in
  // submission-index order regardless.
  par::ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  const std::vector<std::uint64_t> out =
      par::parallel_map(pool, 500, [](std::size_t i) {
        volatile std::uint64_t sink = 0;
        for (std::size_t k = 0; k < (i * 7919) % 4096; ++k) {
          sink = sink + k;
        }
        return static_cast<std::uint64_t>(i * i);
      });
  ASSERT_EQ(out.size(), 500u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<std::uint64_t>(i * i)) << "index " << i;
  }
}

TEST(ThreadPool, InlineModeRunsOnCallerWithoutWorkers) {
  par::ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 0u);
  const std::vector<int> out =
      par::parallel_map(pool, 16, [](std::size_t i) {
        return static_cast<int>(i) * 3;
      });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

TEST(ThreadPool, ThrowingTasksRethrowLowestIndexAndPoolSurvives) {
  par::ThreadPool pool(4);
  try {
    par::parallel_for(pool, 100, [](std::size_t i) {
      if (i % 10 == 3) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "parallel_for swallowed the task exceptions";
  } catch (const std::runtime_error& e) {
    // Several tasks threw; the batch must rethrow the lowest index so
    // the error a caller sees does not depend on thread timing.
    EXPECT_STREQ(e.what(), "task 3");
  }

  // The same pool stays usable after an exceptional batch.
  const std::vector<int> out =
      par::parallel_map(pool, 8, [](std::size_t i) {
        return static_cast<int>(i) + 1;
      });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) + 1);
  }
}

TEST(ParallelOracle, ResultIsIdenticalForEveryJobsValue) {
  sim::Simulator base(sim::make_config(workload::mix("bal1"), 8, 7));
  base.run(4096);
  sim::OracleConfig cfg;
  cfg.quantum_cycles = 512;

  const sim::OracleResult serial = sim::run_oracle(base, 4, cfg, 1);
  const sim::OracleResult parallel = sim::run_oracle(base, 4, cfg, 8);
  EXPECT_EQ(serial.cycles, parallel.cycles);
  EXPECT_EQ(serial.committed, parallel.committed);
  EXPECT_EQ(serial.switches, parallel.switches);
  EXPECT_EQ(serial.quanta_per_policy, parallel.quanta_per_policy);
}

TEST(ParallelOracle, TrialsCrossingChunkBoundariesMatchSerial) {
  // Candidate trials are Simulator copies fanned out to pool workers,
  // and every copy shares `base`'s chunk chain. Quanta long enough that
  // every trial crosses 4096-instruction chunk boundaries make the
  // copies race to build the same next chunks on different workers.
  // TSan runs of this suite (scripts/check_sanitize.sh thread) are the
  // teeth; the serial-vs-parallel equality below is the determinism half.
  // Two SMT threads: per-thread fetch bandwidth is high enough that every
  // candidate walks through several chunks per quantum.
  sim::Simulator base(sim::make_config(workload::mix("bal1"), 2, 7));
  base.run(1024);
  sim::OracleConfig cfg;
  cfg.quantum_cycles = 16384;

  const sim::OracleResult serial = sim::run_oracle(base, 2, cfg, 1);
  const sim::OracleResult parallel = sim::run_oracle(base, 2, cfg, 8);
  EXPECT_EQ(serial.cycles, parallel.cycles);
  EXPECT_EQ(serial.committed, parallel.committed);
  EXPECT_EQ(serial.switches, parallel.switches);
  EXPECT_EQ(serial.quanta_per_policy, parallel.quanta_per_policy);
}

TEST(ParallelSweep, Fig78GridIsIdenticalForEveryJobsValue) {
  // The Fig. 7/8 grid (ICOUNT baseline plus 5 heuristics x 5
  // thresholds) over 3 mixes at a tiny plan: pooled runs must reduce to
  // exactly the serial grid, cell by cell.
  sim::ExperimentScale scale;
  scale.mixes = {"ctrl8", "mem8", "bal1"};
  scale.plan.intervals = 1;
  scale.plan.warmup_cycles = 2048;
  scale.plan.measure_cycles = 8192;
  scale.jobs = 1;
  const sim::SweepGrid serial = sim::run_fig78_sweep(scale);
  scale.jobs = 3;
  const sim::SweepGrid pooled = sim::run_fig78_sweep(scale);

  EXPECT_EQ(serial.icount_baseline_ipc, pooled.icount_baseline_ipc);
  EXPECT_EQ(serial.mixes, pooled.mixes);
  ASSERT_EQ(serial.cells.size(), pooled.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    const sim::SweepCell& a = serial.cells[i];
    const sim::SweepCell& b = pooled.cells[i];
    EXPECT_EQ(a.ipc, b.ipc) << "cell " << i;
    EXPECT_EQ(a.switches, b.switches) << "cell " << i;
    EXPECT_EQ(a.benign_prob, b.benign_prob) << "cell " << i;
    EXPECT_EQ(a.low_quanta_frac, b.low_quanta_frac) << "cell " << i;
  }
}

/// One full simulation -> exported metrics as a JSON string. Everything a
/// run can observe is in here, so string equality is run equality.
std::string stats_json_for(const std::string& mix_name) {
  sim::Simulator s(sim::make_config(workload::mix(mix_name), 8, 11));
  s.run(4096);
  s.run(16384);
  obs::MetricsRegistry reg;
  s.export_metrics(reg);
  std::ostringstream os;
  reg.write_json(os);
  return os.str();
}

TEST(ParallelSim, WorkerThreadRunsAreByteIdenticalToSerial) {
  const std::vector<std::string> mixes = {"bal1", "mem8", "ilp8", "ctrl8"};
  std::vector<std::string> serial;
  serial.reserve(mixes.size());
  for (const std::string& m : mixes) serial.push_back(stats_json_for(m));

  par::ThreadPool pool(4);
  const std::vector<std::string> parallel = par::parallel_map(
      pool, mixes.size(),
      [&mixes](std::size_t i) { return stats_json_for(mixes[i]); });

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "mix " << mixes[i];
  }
}

}  // namespace
}  // namespace smt
