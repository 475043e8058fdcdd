#include "sched/job_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/detector.hpp"
#include "pipeline/config.hpp"
#include "pipeline/pipeline.hpp"
#include "workload/app_profile.hpp"
#include "workload/thread_program.hpp"

namespace smt::sched {

std::string_view name(EvictionPolicy p) noexcept {
  switch (p) {
    case EvictionPolicy::kOblivious: return "oblivious";
    case EvictionPolicy::kDetectorAssisted: return "dt-assisted";
  }
  return "?";
}

JobScheduler::JobScheduler(const JobSchedConfig& cfg, std::vector<Job> resident,
                           std::vector<Job> waiting)
    : cfg_(cfg),
      resident_(std::move(resident)),
      waiting_(waiting.begin(), waiting.end()) {
  if (cfg.job_quantum_cycles == 0) {
    throw std::invalid_argument("JobSchedConfig: job_quantum_cycles == 0");
  }
  if (resident_.empty()) {
    throw std::invalid_argument("JobScheduler: no resident jobs");
  }
}

std::vector<std::uint32_t> JobScheduler::pick_victims(
    const pipeline::Pipeline& pipe, core::DetectorThread* dt) {
  const std::uint32_t want =
      std::min<std::uint32_t>(cfg_.swaps_per_quantum,
                              static_cast<std::uint32_t>(waiting_.size()));
  std::vector<std::uint32_t> victims;
  if (want == 0) return victims;

  if (cfg_.eviction == EvictionPolicy::kDetectorAssisted && dt != nullptr) {
    // The DT already marked the clogging threads over the elapsed job
    // quantum — the scheduler takes them as pre-computed eviction
    // candidates (paper §3/§4: "the job scheduler can later suspend them
    // ... without going through the possibly long process of identifying
    // them for itself") and consumes the marks.
    for (std::uint32_t tid : dt->clog_marks()) {
      if (victims.size() < want &&
          tid < static_cast<std::uint32_t>(resident_.size())) {
        victims.push_back(tid);
        ++stats_.assisted_evictions;
      }
    }
    dt->clear_clog_marks();
  }

  // Fill the remainder by residency age (round-robin over contexts): the
  // context whose program was loaded first goes first.
  std::vector<std::uint32_t> by_age(resident_.size());
  for (std::uint32_t i = 0; i < by_age.size(); ++i) by_age[i] = i;
  std::stable_sort(by_age.begin(), by_age.end(),
                   [&pipe](std::uint32_t a, std::uint32_t b) {
                     return pipe.counters(a).load_mark.cycle <
                            pipe.counters(b).load_mark.cycle;
                   });
  for (std::uint32_t tid : by_age) {
    if (victims.size() >= want) break;
    if (std::find(victims.begin(), victims.end(), tid) == victims.end()) {
      victims.push_back(tid);
    }
  }
  return victims;
}

void JobScheduler::tick(pipeline::Pipeline& pipe, core::DetectorThread* dt) {
  if (pipe.now() == 0 || pipe.now() % cfg_.job_quantum_cycles != 0) return;
  ++stats_.job_quanta;

  for (std::uint32_t tid : pick_victims(pipe, dt)) {
    // Account the outgoing job's progress over this stint.
    Job& out_job = resident_[tid];
    out_job.committed += pipe.counters(tid).since_load().committed;

    Job incoming = std::move(waiting_.front());
    waiting_.pop_front();
    ++incoming.stints;

    workload::ThreadProgram outgoing_prog = pipe.swap_program(
        tid, std::move(incoming.program), cfg_.ctx_switch_penalty);
    out_job.program = std::move(outgoing_prog);

    waiting_.push_back(std::move(out_job));
    resident_[tid] = std::move(incoming);
    ++stats_.swaps;
  }
}

MultiprogrammedSystem make_multiprogrammed(
    const pipeline::PipelineConfig& machine, const JobSchedConfig& sched,
    const std::vector<std::string>& apps, std::uint32_t contexts,
    std::uint64_t seed) {
  if (apps.size() < contexts) {
    throw std::invalid_argument(
        "make_multiprogrammed: need at least as many jobs as contexts");
  }
  std::vector<Job> resident;
  std::vector<Job> waiting;
  std::vector<workload::ThreadProgram> programs;
  for (std::uint32_t i = 0; i < apps.size(); ++i) {
    Job j;
    j.id = i;
    j.app = apps[i];
    // Job programs get ids beyond the context count so each job keeps a
    // distinct code/data segment even as it migrates between contexts.
    j.program = workload::ThreadProgram(workload::profile(apps[i]), i, seed);
    if (i < contexts) {
      j.stints = 1;
      programs.push_back(j.program);  // copy: pipeline runs it
      resident.push_back(std::move(j));
    } else {
      waiting.push_back(std::move(j));
    }
  }
  return MultiprogrammedSystem{
      pipeline::Pipeline(machine, std::move(programs)),
      JobScheduler(sched, std::move(resident), std::move(waiting))};
}

}  // namespace smt::sched
