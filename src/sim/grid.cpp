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

void set_job_field(GridJob& job, const std::string& field,
                   const std::string& text) {
  const auto u64 = [&] {
    const std::optional<std::uint64_t> v = parse_u64(text);
    if (!v.has_value()) {
      throw UsageError(field + " expects an unsigned integer, got '" + text +
                       "'");
    }
    return *v;
  };
  try {
    if (field == "cycles" || field == "quantum") {
      const std::uint64_t n = u64();
      if (n == 0) throw ConfigError(field + " must be > 0 cycles");
      (field == "cycles" ? job.cycles : job.quantum) = n;
    } else if (field == "warmup" || field == "seed") {
      (field == "warmup" ? job.warmup : job.seed) = u64();
    } else if (field == "threads") {
      const std::uint64_t n = u64();
      if (n < 1 || n > 8) {
        throw ConfigError("threads must be between 1 and 8 (the machine has "
                          "8 hardware contexts), got " + text);
      }
      job.threads = static_cast<std::size_t>(n);
    } else if (field == "mix") {
      (void)workload::mix(text);  // std::out_of_range when unknown
      job.mix = text;
    } else if (field == "policy") {
      job.policy = policy::parse_policy(text);  // std::out_of_range likewise
    } else if (field == "heuristic") {
      job.heuristic = core::parse_heuristic(text);
    } else if (field == "threshold") {
      const std::optional<double> v = parse_double(text);
      if (!v.has_value()) {
        throw UsageError("threshold expects a finite number, got '" + text +
                         "'");
      }
      if (*v <= 0.0) {
        throw ConfigError("threshold must be > 0 (IPC units), got " + text);
      }
      job.threshold = *v;
    }
  } catch (const std::out_of_range& e) {
    throw ConfigError(std::string(e.what()) + " (see smtsim --list)");
  }
}

namespace {

constexpr unsigned kRuns = kFixedRun | kAdtsRun | kOracleRun;
constexpr unsigned kSimRuns = kFixedRun | kAdtsRun;  // no oracle copies

const CliTable kSmtsimCli = {
    R"(usage: smtsim [options]

A run is fixed-policy unless --adts, --oracle or --grid picks its mode. An
option outside the modes its heading names is a usage error (exit 2).

)",
    {"fixed-policy runs", "--adts runs", "--oracle runs", "--grid"},
    {
        {"mix", "NAME", kRuns, "one of the 13 mixes (--list; default bal1)"},
        {"apps", "a,b,...", kRuns, "explicit application list (max 8)", {},
         {"mix", "threads"}},
        {"threads", "N", kRuns, "contexts of the mix to use, 1..8 (default 8)"},
        {"seed", "N", kRuns, "workload seed (default 2003)"},
        {"policy", "NAME", kRuns,
         "fixed fetch policy; under --adts the starting one, under --oracle "
         "the warm-up's (default ICOUNT)"},
        {"warmup", "N", kRuns, "warm-up cycles, not measured (default 32768)"},
        {"csv", "", kRuns, "machine-readable output"},
        {"check", "", kRuns,
         "validate microarchitectural invariants every cycle (also "
         "SMT_CHECK=1); violations report on stderr and the run exits 4",
         {}, {}, true},
        {"prof", "", kRuns,
         "time host phases and stride-sampled per-cycle stages, exported as "
         "prof.* in --stats-json and summed up in the report; simulated "
         "results are unchanged",
         {"stats-json", "prof-folded", "!csv"}},
        {"prof-folded", "PATH", kRuns,
         "write folded stacks (\"run;measured;cycle 1234\") to PATH for "
         "speedscope / flamegraph.pl (implies --prof)"},
        {"quantum", "CYCLES", kAdtsRun | kOracleRun,
         "scheduling quantum, > 0 (default 8192)"},
        {"cycles", "N", kSimRuns, "cycles to simulate (default 262144)"},
        {"trace", "PATH", kSimRuns,
         "write the JSONL event trace to PATH ('-' = stdout, which it then "
         "holds alone: not with --csv or --stats-json -); see smttrace"},
        {"pipeview", "N@CYCLE", kSimRuns,
         "trace the per-stage lifecycle of the N instructions fetched from "
         "CYCLE on; comma-separable (64@0,64@131072)",
         {"trace"}},
        {"stats-json", "PATH", kSimRuns,
         "write every subsystem's end-of-run metrics as JSON to PATH ('-' = "
         "stdout, which it then holds alone: not with --csv)"},
        {"cpi", "", kSimRuns,
         "CPI stacks: charge every commit slot to one cause per thread; "
         "cpi.* keys in --stats-json, cpi_stack rows in the trace",
         {"trace", "stats-json"}},
        {"prof-stride", "N", kSimRuns,
         "time 1 of every N cycles, a power of two (default 64)",
         {"prof", "prof-folded"}},
        {"adts", "", kAdtsRun, "adaptive scheduling (detector thread)"},
        {"heuristic", "H", kAdtsRun, "heuristic, 1|2|3|3p|4 (default 3)"},
        {"threshold", "M", kAdtsRun, "IPC threshold, > 0 (default 2)"},
        {"instant", "", kAdtsRun, "zero-cost switching (ablation)"},
        {"oracle", "", kOracleRun,
         "per-quantum oracle over ICOUNT, BRCOUNT and L1MISSCOUNT; its "
         "trials run on copies, which drop every observer"},
        {"all-policies", "", kOracleRun, "oracle over all ten policies"},
        {"quanta", "N", kOracleRun, "oracle quanta, > 0 (default 16)"},
        {"grid", "FILE", kGridRun,
         "run every job of FILE (grammar in src/sim/grid.hpp), which sets "
         "every run option; one \"ran\" or \"cached\" line per job",
         {"out"}},
        {"out", "DIR", kGridRun,
         "publish each job as DIR/<job digest>.json, equal to its direct "
         "--stats-json run; jobs already in DIR are skipped, so a killed grid "
         "resumes",
         {"grid"}},
        {"jobs", "N", kAllModes,
         "worker threads for oracle trials and grid jobs (default: SMT_JOBS "
         "or 1); results do not depend on it",
         {}, {}, true},
        {"list", "", kAllModes, "list mixes, applications and policies"},
        {"version", "", kAllModes, "version, commit, compiler and build flags"},
        {"help", "", kAllModes, "this text"},
    },
    R"(
exit codes:
  0  success
  2  usage error (unknown, repeated, malformed or out-of-mode option, stray
     argument)
  3  configuration error (valid syntax, invalid value)
  4  invariant violations detected (--check / SMT_CHECK=1); under
     --grid, a job with violations is reported and not published
)"};

}  // namespace

const CliTable& smtsim_cli() { return kSmtsimCli; }

BatchSpec parse_batch(std::istream& in) {
  GridJob scalars;  // cycles, warmup, threads and quantum of every job
  std::set<std::string> scalars_seen;
  // The axes as one job per value; per (mix, seed) the grid runs the
  // fixed-policy variants first, then the ADTS ones.
  std::vector<GridJob> mixes, seeds, fixed, adaptive;

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
    // Every error of a line is a configuration error (exit 3), a
    // malformed number included: the file, not the command line, is bad.
    try {
      if (args.empty()) {
        throw ConfigError("'" + directive + "' needs at least one value");
      }
      if (directive == "cycles" || directive == "warmup" ||
          directive == "threads" || directive == "quantum") {
        if (!scalars_seen.insert(directive).second || args.size() != 1) {
          throw ConfigError("'" + directive + "' is a scalar: one value, "
                            "on one line");
        }
        set_job_field(scalars, directive, args[0]);
      } else if (directive == "mix" || directive == "seed" ||
                 directive == "policy") {
        std::vector<GridJob>& axis = directive == "mix"    ? mixes
                                     : directive == "seed" ? seeds
                                                           : fixed;
        for (const std::string& v : args) {
          set_job_field(axis.emplace_back(), directive, v);
        }
      } else if (directive == "adts") {
        for (const std::string& v : args) {
          const std::size_t at = v.find('@');
          if (at == std::string::npos || at == 0 || at + 1 >= v.size()) {
            throw ConfigError("adts variants are heuristic@threshold "
                              "(e.g. 3@2), got '" + v + "'");
          }
          GridJob& j = adaptive.emplace_back();
          j.adts = true;
          set_job_field(j, "heuristic", v.substr(0, at));
          set_job_field(j, "threshold", v.substr(at + 1));
        }
      } else {
        throw ConfigError("unknown directive '" + directive + "'");
      }
    } catch (const std::invalid_argument& e) {
      throw ConfigError("batch line " + std::to_string(lineno) + ": " +
                        e.what());
    }
  }

  if (mixes.empty()) {
    throw ConfigError("batch: needs at least one 'mix' directive");
  }
  if (fixed.empty() && adaptive.empty()) {
    throw ConfigError("batch: needs at least one scheduling variant "
                      "('policy' or 'adts')");
  }
  if (adaptive.empty() && scalars_seen.count("quantum") != 0) {
    // Only the detector has quanta; a fixed job's digest and document
    // would be the same without the directive.
    throw ConfigError("batch: 'quantum' applies only to 'adts' variants, "
                      "and the grid has none");
  }
  if (seeds.empty()) seeds.emplace_back();  // GridJob's default seed

  BatchSpec batch;
  for (const GridJob& m : mixes) {
    for (const GridJob& s : seeds) {
      for (const std::vector<GridJob>* variants : {&fixed, &adaptive}) {
        for (GridJob j : *variants) {
          j.mix = m.mix;
          j.seed = s.seed;
          j.threads = scalars.threads;
          j.cycles = scalars.cycles;
          j.warmup = scalars.warmup;
          j.quantum = scalars.quantum;
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
