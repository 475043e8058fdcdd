// Experiment grids: the batch grammar, the content address of a job, the
// measured run every job shares with `smtsim`, the in-process runner
// behind `smtsim --grid FILE --out DIR`, and smtsim's option table.
//
// A grid file is a small line-based document naming the grid axes
// (mixes × seeds × scheduling variants) plus scalar run-control knobs.
// parse_batch expands it into the full job list; each job maps 1:1 onto
// an `smtsim` invocation and onto the SimConfig that invocation would
// build, so the content address of a job (job_digest) is computed from
// the *resolved* configuration — two grids that spell the same run
// differently share results.
//
// Grammar (one directive per line; '#' starts a comment):
//
//   cycles N          measured cycles per job        (scalar, default 262144)
//   warmup N          warm-up cycles per job         (scalar, default 32768)
//   threads N         contexts per job, 1..8         (scalar, default 8)
//   quantum N         ADTS quantum in cycles         (scalar, default 8192;
//                     applies only to the adts variants, so a grid
//                     without one rejects it)
//   mix A B ...       mix axis (accumulates; ≥ 1 required)
//   seed N M ...      workload-seed axis             (default: 2003)
//   policy P Q ...    fixed-policy variants (accumulates)
//   adts H@M ...      ADTS variants, heuristic@threshold (accumulates)
//
// Jobs = mix × seed × (policy variants ∪ adts variants). At least one
// scheduling variant is required. A scalar takes one value. Errors throw
// smt::ConfigError.
//
// A rerun skips every job whose document DIR/<digest>.json exists, and
// documents are published by rename, so a killed grid resumes without a
// journal (DESIGN.md §14).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/heuristics.hpp"
#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "policy/fetch_policy.hpp"
#include "prof/phase_profiler.hpp"
#include "sim/simulator.hpp"

namespace smt::sim {

/// One fully resolved experiment: a grid job, or smtsim's own options.
struct GridJob {
  std::string mix = "bal1";
  std::uint64_t seed = 2003;
  std::size_t threads = 8;
  std::uint64_t cycles = 262144;
  std::uint64_t warmup = 32768;

  bool adts = false;
  policy::FetchPolicy policy = policy::FetchPolicy::kIcount;  ///< or ADTS start
  core::HeuristicType heuristic = core::HeuristicType::kType3;
  double threshold = 2.0;
  std::uint64_t quantum = 8192;
};

/// Parse `text` into the GridJob field `field` (cycles, warmup, threads,
/// quantum, mix, seed, policy, heuristic or threshold): the one check
/// behind both smtsim's flags and the grid grammar. Throws UsageError for
/// a malformed number, ConfigError for an out-of-range or unknown value;
/// changes nothing when `field` names no such field.
void set_job_field(GridJob& job, const std::string& field,
                   const std::string& text);

/// smtsim's modes: the bits of its option table's masks.
enum SmtsimMode : unsigned {
  kFixedRun = 1U,
  kAdtsRun = 2U,
  kOracleRun = 4U,
  kGridRun = 8U,
};

/// smtsim's option table: each flag once, with the modes it applies to.
/// The run options that name a GridJob field are set through
/// set_job_field.
[[nodiscard]] const CliTable& smtsim_cli();

struct BatchSpec {
  std::vector<GridJob> jobs;
};

/// Parse and expand a grid file. Throws smt::ConfigError on malformed
/// input (unknown directive, bad value, empty grid).
[[nodiscard]] BatchSpec parse_batch(std::istream& in);

/// The SimConfig of a job: the one option → SimConfig mapping, which
/// `smtsim` also builds its single run's configuration with, so a grid
/// document and the direct run of the same options agree byte for byte.
[[nodiscard]] SimConfig sim_config_for(const GridJob& job);

/// Content address of a job's result: config_digest of the resolved
/// configuration, extended with the run-control fields (cycles, warmup)
/// that live outside SimConfig but change the stats document.
[[nodiscard]] std::uint64_t job_digest(const GridJob& job);

/// 16-digit lowercase hex (no 0x prefix) — result filenames.
[[nodiscard]] std::string digest_hex(std::uint64_t digest);

/// What the measured cycles of run_measured committed.
struct MeasuredRun {
  std::uint64_t committed = 0;
  double ipc = 0.0;
};

/// Optional host profiling of run_measured: the warm-up and measured
/// phases are timed under these nodes, and the measured cycles are
/// stride-sampled per stage (Simulator::attach_profiler).
struct RunProfile {
  prof::PhaseProfiler* profiler = nullptr;
  prof::PhaseProfiler::Node warmup = 0;
  prof::PhaseProfiler::Node measured = 0;
  std::uint64_t stride = 64;
};

/// smtsim's normal run and every grid job: `warmup` cycles, then
/// `cycles` measured cycles, then flush the trace. When `stats` is set,
/// export every subsystem's metrics plus run.warmup_cycles,
/// run.measured_cycles and run.measured_ipc into it.
MeasuredRun run_measured(Simulator& sim, std::uint64_t warmup,
                         std::uint64_t cycles, obs::MetricsRegistry* stats,
                         const RunProfile* prof = nullptr);

/// One job of a planned grid and what became of it.
struct GridCell {
  enum class Status { kPending, kCached, kRan, kViolations };
  GridJob job;
  std::uint64_t digest = 0;
  Status status = Status::kPending;
};

/// DIR/<16-hex digest>.json.
[[nodiscard]] std::string result_path(const std::string& dir,
                                      std::uint64_t digest);

/// The grid's distinct jobs (a digest that repeats runs once), in grid
/// order; a job whose document already exists in `dir` is kCached.
/// Creates `dir` when missing.
[[nodiscard]] std::vector<GridCell> plan_grid(const BatchSpec& batch,
                                              const std::string& dir);

/// Run one pending cell and publish its document (temp file, then
/// rename). A run whose invariant checker recorded violations is
/// kViolations and publishes nothing, so a rerun tries it again. Throws
/// std::runtime_error when the document cannot be written.
void run_cell(GridCell& cell, const std::string& dir);

/// Settle every cell: report each cached cell, then run the pending ones
/// on `jobs` pool workers, reporting each as it finishes.
/// `on_settled(const GridCell&)` is called on the calling thread for
/// cached cells and on a worker thread for run cells, so with jobs > 1
/// it must tolerate concurrent calls. The published documents do not
/// depend on `jobs`.
template <typename Fn>
void run_grid(std::vector<GridCell>& cells, const std::string& dir,
              std::size_t jobs, Fn&& on_settled) {
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].status == GridCell::Status::kCached) {
      on_settled(cells[i]);
    } else {
      pending.push_back(i);
    }
  }
  par::ThreadPool pool(jobs);
  par::parallel_for(pool, pending.size(), [&](std::size_t k) {
    GridCell& cell = cells[pending[k]];
    run_cell(cell, dir);
    on_settled(cell);
  });
}

}  // namespace smt::sim
