// Fleet job specification: the experiment grid a batch file describes.
//
// A batch file is the unit of work smtfleetd accepts: a small line-based
// document naming the grid axes (mixes × seeds × scheduling variants)
// plus scalar run-control knobs. parse_batch expands it into the full
// job list; each job maps 1:1 onto an `smtsim` invocation and onto the
// sim::SimConfig that invocation would build, so the content-address of
// a job (job_digest) is computed from the *resolved* configuration —
// two batches that spell the same run differently share cache entries.
//
// Grammar (one directive per line; '#' starts a comment):
//
//   cycles N          measured cycles per job        (scalar, default 262144)
//   warmup N          warm-up cycles per job         (scalar, default 32768)
//   threads N         contexts per job, 1..8         (scalar, default 8)
//   quantum N         ADTS quantum in cycles         (scalar, default 8192)
//   mix A B ...       mix axis (accumulates; ≥ 1 required)
//   seed N M ...      workload-seed axis             (default: 2003)
//   policy P Q ...    fixed-policy variants (accumulates)
//   adts H@M ...      ADTS variants, heuristic@threshold (accumulates)
//
// Jobs = mix × seed × (policy variants ∪ adts variants). At least one
// scheduling variant is required. Errors throw smt::ConfigError.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/heuristics.hpp"
#include "policy/fetch_policy.hpp"
#include "sim/simulator.hpp"

namespace smt::fleet {

/// One fully resolved experiment: everything a worker process needs.
struct FleetJob {
  std::string mix;
  std::uint64_t seed = 2003;
  std::size_t threads = 8;
  std::uint64_t cycles = 262144;
  std::uint64_t warmup = 32768;

  bool adts = false;
  policy::FetchPolicy policy = policy::FetchPolicy::kIcount;  ///< fixed runs
  core::HeuristicType heuristic = core::HeuristicType::kType3;
  std::string heuristic_token = "3";  ///< CLI spelling ("3p", not "Type 3'")
  double threshold = 2.0;
  std::uint64_t quantum = 8192;
};

struct BatchSpec {
  std::vector<FleetJob> jobs;
};

/// Parse and expand a batch file. Throws smt::ConfigError on malformed
/// input (unknown directive, bad value, empty grid).
[[nodiscard]] BatchSpec parse_batch(std::istream& in);

/// The SimConfig the worker's `smtsim` invocation will build for this
/// job — the same field-by-field mapping as src/tools/smtsim.cpp, so
/// sim::config_digest agrees between daemon and worker.
[[nodiscard]] sim::SimConfig sim_config_for(const FleetJob& job);

/// Content address of a job's result: sim::config_digest of the resolved
/// configuration, extended with the run-control fields (cycles, warmup)
/// that live outside SimConfig but change the stats document.
[[nodiscard]] std::uint64_t job_digest(const FleetJob& job);

/// Fingerprint of a whole batch (order-sensitive mix of job digests);
/// stamped into the journal header so a resume against a different
/// batch file is refused instead of silently mixing grids.
[[nodiscard]] std::uint64_t batch_digest(const BatchSpec& batch);

/// `smtsim` argument vector (excluding argv[0]) that runs this job and
/// writes its stats JSON to `stats_path`.
[[nodiscard]] std::vector<std::string> smtsim_args(const FleetJob& job,
                                                   const std::string& stats_path);

/// 16-digit lowercase hex (no 0x prefix) — cache filenames.
[[nodiscard]] std::string digest_hex(std::uint64_t digest);

/// "0x" + digest_hex — journal/log spelling, matches run.config_digest.
[[nodiscard]] std::string digest_str(std::uint64_t digest);

}  // namespace smt::fleet
