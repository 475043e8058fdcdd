#include "sim/grid.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/build_info.hpp"
#include "common/cli.hpp"
#include "core/heuristics.hpp"
#include "obs/metrics.hpp"
#include "policy/fetch_policy.hpp"
#include "prof/phase_profiler.hpp"
#include "sim/simulator.hpp"
#include "workload/mix.hpp"

namespace smt::sim {

namespace {

std::uint64_t batch_u64(const std::string& directive, const std::string& tok) {
  const std::optional<std::uint64_t> v = parse_u64(tok);
  if (!v.has_value()) {
    throw ConfigError("batch: '" + directive + "' needs an unsigned integer, "
                      "got '" + tok + "'");
  }
  return *v;
}

double batch_double(const std::string& directive, const std::string& tok) {
  const std::optional<double> v = parse_double(tok);
  if (!v.has_value()) {
    throw ConfigError("batch: '" + directive + "' needs a finite number, "
                      "got '" + tok + "'");
  }
  return *v;
}

}  // namespace

BatchSpec parse_batch(std::istream& in) {
  std::vector<std::string> mixes;
  std::vector<std::uint64_t> seeds;
  // Scheduling variants as job templates; per (mix, seed) the grid runs
  // the fixed-policy ones first, then the ADTS ones.
  std::vector<GridJob> fixed, adaptive;
  std::uint64_t cycles = 262144, warmup = 32768, quantum = 8192;
  std::uint64_t threads = 8;
  bool saw_cycles = false, saw_warmup = false, saw_threads = false,
       saw_quantum = false;

  const auto scalar_once = [](bool& seen, const std::string& directive) {
    if (seen) {
      throw ConfigError("batch: duplicate '" + directive +
                        "' directive (scalars may appear once)");
    }
    seen = true;
  };

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream tokens(line);
    std::string directive;
    if (!(tokens >> directive)) continue;  // blank / comment-only line

    std::vector<std::string> args;
    for (std::string tok; tokens >> tok;) args.push_back(tok);
    if (args.empty()) {
      throw ConfigError("batch line " + std::to_string(lineno) + ": '" +
                        directive + "' needs at least one value");
    }

    if (directive == "cycles") {
      scalar_once(saw_cycles, directive);
      cycles = batch_u64(directive, args[0]);
      if (cycles == 0) throw ConfigError("batch: cycles must be > 0");
    } else if (directive == "warmup") {
      scalar_once(saw_warmup, directive);
      warmup = batch_u64(directive, args[0]);
    } else if (directive == "threads") {
      scalar_once(saw_threads, directive);
      threads = batch_u64(directive, args[0]);
      if (threads < 1 || threads > 8) {
        throw ConfigError("batch: threads must be 1..8, got " + args[0]);
      }
    } else if (directive == "quantum") {
      scalar_once(saw_quantum, directive);
      quantum = batch_u64(directive, args[0]);
      if (quantum == 0) throw ConfigError("batch: quantum must be > 0");
    } else if (directive == "mix") {
      for (const std::string& m : args) {
        try {
          (void)workload::mix(m);
        } catch (const std::exception&) {
          throw ConfigError("batch: unknown mix '" + m + "'");
        }
        mixes.push_back(m);
      }
    } else if (directive == "seed") {
      for (const std::string& s : args) seeds.push_back(batch_u64(directive, s));
    } else if (directive == "policy") {
      for (const std::string& p : args) {
        GridJob& j = fixed.emplace_back();
        try {
          j.policy = policy::parse_policy(p);
        } catch (const std::exception&) {
          throw ConfigError("batch: unknown fetch policy '" + p + "'");
        }
      }
    } else if (directive == "adts") {
      for (const std::string& v : args) {
        const std::size_t at = v.find('@');
        if (at == std::string::npos || at == 0 || at + 1 >= v.size()) {
          throw ConfigError("batch: adts variants are heuristic@threshold "
                            "(e.g. 3@2), got '" + v + "'");
        }
        GridJob& j = adaptive.emplace_back();
        j.adts = true;
        j.heuristic = core::parse_heuristic(v.substr(0, at));
        j.threshold = batch_double(directive, v.substr(at + 1));
        if (j.threshold <= 0.0) {
          throw ConfigError("batch: adts threshold must be > 0, got '" + v +
                            "'");
        }
      }
    } else {
      throw ConfigError("batch line " + std::to_string(lineno) +
                        ": unknown directive '" + directive + "'");
    }
  }

  if (mixes.empty()) {
    throw ConfigError("batch: needs at least one 'mix' directive");
  }
  if (fixed.empty() && adaptive.empty()) {
    throw ConfigError("batch: needs at least one scheduling variant "
                      "('policy' or 'adts')");
  }
  if (seeds.empty()) seeds.push_back(2003);

  BatchSpec batch;
  for (const std::string& m : mixes) {
    for (const std::uint64_t s : seeds) {
      for (const std::vector<GridJob>* variants : {&fixed, &adaptive}) {
        for (GridJob j : *variants) {
          j.mix = m;
          j.seed = s;
          j.threads = static_cast<std::size_t>(threads);
          j.cycles = cycles;
          j.warmup = warmup;
          j.quantum = quantum;
          batch.jobs.push_back(j);
        }
      }
    }
  }
  return batch;
}

SimConfig sim_config_for(const GridJob& job) {
  SimConfig cfg;
  cfg.workload_seed = job.seed;
  cfg.apps =
      workload::mix_for_threads(workload::mix(job.mix), job.threads, job.seed);
  cfg.fixed_policy = job.policy;
  if (job.adts) {
    cfg.use_adts = true;
    cfg.adts.heuristic = job.heuristic;
    cfg.adts.ipc_threshold = job.threshold;
    cfg.adts.quantum_cycles = job.quantum;
  }
  return cfg;
}

std::uint64_t job_digest(const GridJob& job) {
  Fnv1a h;
  h.mix(config_digest(sim_config_for(job)));
  h.mix(job.cycles);
  h.mix(job.warmup);
  return h.digest();
}

std::string digest_hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string(buf);
}

MeasuredRun run_measured(Simulator& sim, std::uint64_t warmup,
                         std::uint64_t cycles, obs::MetricsRegistry* stats,
                         const RunProfile* prof) {
  using Scope = prof::PhaseProfiler::Scope;
  prof::PhaseProfiler* pp = prof != nullptr ? prof->profiler : nullptr;
  MeasuredRun r;
  {
    const Scope s(pp, prof != nullptr ? prof->warmup : 0);
    sim.run(warmup);
  }
  const std::uint64_t c0 = sim.committed();
  {
    // Per-cycle stage timing only covers the measured region: warm-up
    // is excluded from simulated stats, so it is excluded here too.
    const Scope s(pp, prof != nullptr ? prof->measured : 0);
    if (pp != nullptr) sim.attach_profiler(pp, prof->measured, prof->stride);
    sim.run(cycles);
    if (pp != nullptr) sim.attach_profiler(nullptr, 0, 1);
  }
  sim.flush_trace();
  r.committed = sim.committed() - c0;
  r.ipc = cycles == 0 ? 0.0
                      : static_cast<double>(r.committed) /
                            static_cast<double>(cycles);
  if (stats != nullptr) {
    sim.export_metrics(*stats);
    stats->set("run.warmup_cycles", warmup);
    stats->set("run.measured_cycles", cycles);
    stats->set("run.measured_ipc", r.ipc);
  }
  return r;
}

std::string result_path(const std::string& dir, std::uint64_t digest) {
  return dir + "/" + digest_hex(digest) + ".json";
}

std::vector<GridCell> plan_grid(const BatchSpec& batch,
                                const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::vector<GridCell> cells;
  std::set<std::uint64_t> seen;
  for (const GridJob& job : batch.jobs) {
    GridCell cell;
    cell.job = job;
    cell.digest = job_digest(job);
    if (!seen.insert(cell.digest).second) continue;
    if (std::filesystem::exists(result_path(dir, cell.digest))) {
      cell.status = GridCell::Status::kCached;
    }
    cells.push_back(cell);
  }
  return cells;
}

void run_cell(GridCell& cell, const std::string& dir) {
  Simulator sim(sim_config_for(cell.job));
  obs::MetricsRegistry stats;
  (void)run_measured(sim, cell.job.warmup, cell.job.cycles, &stats);
  if (sim.checking_enabled() && !sim.checker().ok()) {
    cell.status = GridCell::Status::kViolations;
    return;
  }
  // The temp name is a function of the digest alone: a temp file a
  // killed run left behind belongs to an unpublished job, and that job's
  // rerun overwrites it before the rename.
  const std::string path = result_path(dir, cell.digest);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    stats.write_json(out);
    out.close();
    if (!out) throw std::runtime_error("cannot write '" + tmp + "'");
  }
  std::filesystem::rename(tmp, path);
  cell.status = GridCell::Status::kRan;
}

}  // namespace smt::sim
