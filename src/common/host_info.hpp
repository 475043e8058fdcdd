// Host provenance: which machine produced a run.
//
// BENCH documents and traces from different hosts are only comparable
// when they say what they ran on, so the CPU model, core count and the
// resolved SMT_JOBS value are stamped into the build_info trace header
// and the run.* stats-JSON block. All values are fixed for the process
// lifetime and read once; none of them feed back into simulation state,
// so determinism on a given host is unaffected (the bench-suite strip
// list drops them before byte-comparing across regenerations).
#pragma once

#include <cstddef>
#include <string>

namespace smt {

struct HostInfo {
  std::string cpu_model;   ///< "model name" from /proc/cpuinfo, or "unknown"
  unsigned cores = 0;      ///< online host cores (0 when undeterminable)
  std::size_t smt_jobs = 0;  ///< smt_jobs_from_env() at first call
};

/// Worker count requested by the environment, read on every call: SMT_JOBS
/// if set to a positive integer (clamped to par::kMaxJobs = 64), else 1.
/// Parallelism is strictly opt-in; results are identical either way.
[[nodiscard]] std::size_t smt_jobs_from_env();

/// Gathered once on first call, then cached for the process lifetime.
const HostInfo& host_info();

}  // namespace smt
