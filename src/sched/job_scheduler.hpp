// System job scheduler substrate (paper §3).
//
// The paper argues the detector thread "can also help lower the overhead
// of the system job scheduler by shortening its stay in the processor and
// analyzing information before the job scheduler needs it": the DT marks
// clogging threads via thread-control flags, and the scheduler can
// "suspend a clogging thread without going through the process of
// determining which thread to suspend". This module makes that claim
// testable by co-simulating a multiprogrammed job pool on top of the SMT
// pipeline:
//
//  * a JobPool holds more runnable jobs than the machine has contexts
//    (each job's ThreadProgram keeps its position while swapped out);
//  * every job quantum the JobScheduler evicts some resident jobs and
//    loads waiting ones, either *obliviously* (round-robin over
//    residency age, cf. Parekh et al.'s baseline) or *detector-assisted*
//    (preferring to evict the threads the DT flagged as clogging).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "pipeline/config.hpp"
#include "pipeline/pipeline.hpp"
#include "workload/thread_program.hpp"

namespace smt::sched {

enum class EvictionPolicy : std::uint8_t {
  kOblivious,         ///< evict the longest-resident jobs (round-robin)
  kDetectorAssisted,  ///< evict DT-flagged clogging jobs first
};

[[nodiscard]] std::string_view name(EvictionPolicy p) noexcept;

struct JobSchedConfig {
  /// OS time slice, scaled to simulation budgets. (Real slices are
  /// milliseconds ≈ millions of cycles; the ratio slice/quantum is what
  /// matters for the experiment.)
  std::uint64_t job_quantum_cycles = 8 * 8192;
  /// Jobs replaced per job-quantum boundary.
  std::uint32_t swaps_per_quantum = 2;
  /// Pipeline drain + OS cost charged to a context on swap.
  std::uint64_t ctx_switch_penalty = 400;
  EvictionPolicy eviction = EvictionPolicy::kOblivious;
};

/// A job waiting to run (or swapped out): its program keeps the position
/// at which it was preempted.
struct Job {
  std::uint32_t id = 0;
  std::string app;
  workload::ThreadProgram program;
  std::uint64_t committed = 0;  ///< instructions retired so far (all stints)
  std::uint32_t stints = 0;     ///< times scheduled onto a context
};

struct JobSchedStats {
  std::uint64_t job_quanta = 0;
  std::uint64_t swaps = 0;
  std::uint64_t assisted_evictions = 0;  ///< evictions chosen via DT flags
};

class JobScheduler {
 public:
  /// `waiting` are jobs beyond the machine's contexts; the pipeline must
  /// already be running the first `contexts` jobs, whose descriptors are
  /// `resident`. (Use make_multiprogrammed() to set both up.)
  JobScheduler(const JobSchedConfig& cfg, std::vector<Job> resident,
               std::vector<Job> waiting);

  /// Call after every pipeline step (and after the detector's tick, so
  /// fresh clog flags are visible). Performs swaps at job-quantum
  /// boundaries; consumes (and clears) the detector's sticky clog marks.
  void tick(pipeline::Pipeline& pipe, core::DetectorThread* dt);

  [[nodiscard]] const JobSchedStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const JobSchedConfig& config() const noexcept { return cfg_; }
  /// Jobs currently on the machine, indexed by context.
  [[nodiscard]] const std::vector<Job>& resident() const noexcept {
    return resident_;
  }
  [[nodiscard]] std::size_t waiting_count() const noexcept {
    return waiting_.size();
  }

 private:
  [[nodiscard]] std::vector<std::uint32_t> pick_victims(
      const pipeline::Pipeline& pipe, core::DetectorThread* dt);

  JobSchedConfig cfg_;
  std::vector<Job> resident_;       ///< index = hardware context
  std::deque<Job> waiting_;         ///< FIFO of swapped-out jobs
  JobSchedStats stats_;
};

/// Build a multiprogrammed setup: `apps` (size > contexts) become jobs;
/// the first `contexts` start resident. Returns the pipeline plus the
/// scheduler primed with the remainder.
struct MultiprogrammedSystem {
  pipeline::Pipeline pipeline;
  JobScheduler scheduler;
};

[[nodiscard]] MultiprogrammedSystem make_multiprogrammed(
    const pipeline::PipelineConfig& machine, const JobSchedConfig& sched,
    const std::vector<std::string>& apps, std::uint32_t contexts,
    std::uint64_t seed);

}  // namespace smt::sched
