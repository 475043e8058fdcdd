// smtsim — command-line driver for the SMT/ADTS simulator.
//
// Runs a mix (or an explicit application list) under a fixed fetch
// policy, under ADTS, or under the oracle, with the machine knobs
// exposed as options. Prints a human-readable report or CSV. With
// --grid it runs a whole experiment grid in-process instead, one stats
// document per job (sim/grid.hpp).
//
// Exit codes: common/exit_codes.hpp (documented in --help).
//
// Examples:
//   smtsim --mix int8 --cycles 500000
//   smtsim --apps gzip,mcf,swim,crafty --policy BRCOUNT
//   smtsim --mix ctrl8 --adts --heuristic 3 --threshold 2
//   smtsim --mix bal1 --oracle --quanta 16
//   smtsim --mix fp8 --threads 4 --csv
//   smtsim --mix mem8 --adts --trace - | smttrace summary -
//   smtsim --grid fig7.grid --out results/fig7 --jobs 4
#include <cstddef>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "check/invariants.hpp"
#include "common/build_info.hpp"
#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "common/host_info.hpp"
#include "common/table.hpp"
#include "core/heuristics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "pipeline/pipeline.hpp"
#include "prof/phase_profiler.hpp"
#include "sim/grid.hpp"
#include "sim/oracle.hpp"
#include "sim/simulator.hpp"
#include "workload/app_profile.hpp"
#include "workload/mix.hpp"

namespace {

constexpr const char* kUsage = R"(usage: smtsim [options]

workload (one of):
  --mix NAME            one of the 13 built-in mixes (see --list)
  --apps a,b,c,...      explicit application list (max 8)
  --threads N           contexts to use from the mix, 1..8 (default 8)
  --seed N              workload seed (default 2003)

scheduling (one of; --heuristic, --threshold and --instant without
--adts, or --quanta and --all-policies without --oracle, exit 2):
  --policy NAME         fixed fetch policy (default ICOUNT)
  --adts                adaptive scheduling (detector thread)
    --heuristic 1|2|3|3p|4    (default 3)
    --threshold M             IPC threshold, > 0 (default 2)
    --quantum CYCLES          scheduling quantum, > 0 (default 8192);
                              also the oracle's quantum
    --instant                 zero-cost switching (ablation)
  --oracle              per-quantum oracle over {ICOUNT,BRCOUNT,L1MISSCOUNT}
    --all-policies            oracle over all ten policies
    --quanta N                oracle quanta, > 0 (default 16)
    --jobs N                  worker threads for the oracle's candidate
                              trials and for --grid jobs (default:
                              SMT_JOBS or 1; results are bit-identical
                              for every value)

grids (instead of a single run; only --jobs may accompany them):
  --grid FILE           run every job of the grid file FILE (grammar in
                        src/sim/grid.hpp), printing one "ran" or "cached"
                        line per job
  --out DIR             publish each job as DIR/<job digest>.json, equal
                        to its direct --stats-json run; jobs already in
                        DIR are skipped, so a killed grid resumes

observability (normal runs; a usage error under --oracle):
  --trace PATH          write the JSONL event trace to PATH after the run
                        ('-' = stdout; stdout then carries only the trace,
                        so --stats-json - and --csv are rejected alongside
                        it). Analyze with smttrace; `smttrace chrome`
                        exports it for Perfetto / chrome://tracing
  --pipeview N@CYCLE    sample the full pipeline lifecycle (fetch through
                        commit/squash, cycle-stamped per stage) of the N
                        instructions fetched from CYCLE onward, as
                        pipeview events in the trace. Comma-separable:
                        --pipeview 64@0,64@131072. Needs --trace.
                        Analyze with smttrace pipeview.
  --stats-json PATH     write end-of-run metrics from every subsystem as
                        nested JSON to PATH ('-' = stdout; stdout then
                        carries only the document, so --csv is rejected
                        alongside it)
  --cpi                 per-slot commit-loss accounting (CPI stacks):
                        charge every commit slot of every cycle to one
                        cause per thread — committed, ROB-empty (by fetch
                        stall cause), dependency wait, memory latency,
                        FU/port contention (by co-runner), structural
                        full, squash recovery, switch overhead. Exports
                        cpi.* keys in --stats-json and per-quantum
                        cpi_stack trace rows. Analyze with smttrace cpi.

host profiling (host-time observability; simulated results unchanged):
  --prof                collect hierarchical host-phase timings — run
                        phases (init/warmup/measured) plus stride-sampled
                        per-cycle stages (pipeline commit/complete/issue/
                        dispatch/fetch, detector, checker, trace); exported
                        as prof.* in --stats-json. Host time never enters
                        the --trace file, which holds simulated time only.
  --prof-folded PATH    write folded stacks ("run;measured;cycle 1234") to
                        PATH for speedscope / flamegraph.pl (implies --prof)
  --prof-stride N       time 1 of every N cycles, power of two (default 64;
                        1 = every cycle)

run control:
  --cycles N            cycles to simulate (default 262144)
  --warmup N            warm-up cycles excluded from stats (default 32768)
  --check               validate microarchitectural invariants every cycle
                        (src/check/; also enabled by SMT_CHECK=1 in the
                        environment); violations report on stderr and the
                        run exits 4
  --csv                 machine-readable output
  --list                list mixes, applications and policies, then exit
  --version             build provenance (version, commit, compiler, flags)
  --help                this text

exit codes:
  0  success
  2  usage error (unknown or malformed option, stray argument)
  3  configuration error (valid syntax, invalid value)
  4  invariant violations detected (--check / SMT_CHECK=1); under
     --grid, a job with violations is reported and not published
)";

void list_everything() {
  std::cout << "mixes:\n";
  for (const auto& m : smt::workload::all_mixes()) {
    std::cout << "  " << m.name << " — " << m.description << '\n';
  }
  std::cout << "applications:";
  for (const auto& a : smt::workload::all_profile_names()) {
    std::cout << ' ' << a;
  }
  std::cout << "\npolicies:";
  for (auto p : smt::policy::all_policies()) {
    std::cout << ' ' << smt::policy::name(p);
  }
  std::cout << "\nheuristics: 1 2 3 3p 4\n";
}

/// Parse one --pipeview window spec "N@CYCLE".
smt::pipeline::PipeviewWindow parse_pipeview_window(const std::string& spec) {
  const std::size_t at = spec.find('@');
  if (at == std::string::npos || at == 0 || at + 1 >= spec.size()) {
    throw smt::ConfigError("--pipeview windows are N@CYCLE (e.g. 64@8192), "
                           "got '" + spec + "'");
  }
  const std::optional<std::uint64_t> count =
      smt::parse_u64(std::string_view(spec).substr(0, at));
  const std::optional<std::uint64_t> start =
      smt::parse_u64(std::string_view(spec).substr(at + 1));
  if (!count.has_value() || !start.has_value()) {
    throw smt::ConfigError("--pipeview windows are N@CYCLE (e.g. 64@8192), "
                           "got '" + spec + "'");
  }
  smt::pipeline::PipeviewWindow w;
  w.count = *count;
  w.start_cycle = *start;
  if (w.count == 0) {
    throw smt::ConfigError("--pipeview window '" + spec +
                           "' samples zero instructions");
  }
  return w;
}

/// One progress line per settled grid job: status, digest, job.
std::string settle_line(const smt::sim::GridCell& cell) {
  using Status = smt::sim::GridCell::Status;
  std::ostringstream line;
  line << (cell.status == Status::kCached       ? "cached"
           : cell.status == Status::kViolations ? "violations"
                                                : "ran")
       << ' ' << smt::sim::digest_hex(cell.digest) << ' ' << cell.job.mix
       << " seed " << cell.job.seed << ' ';
  if (cell.job.adts) {
    line << "adts " << smt::core::name(cell.job.heuristic) << '@'
         << cell.job.threshold;
  } else {
    line << smt::policy::name(cell.job.policy);
  }
  line << '\n';
  return line.str();
}

/// --grid FILE --out DIR: run every job of FILE whose document DIR does
/// not hold yet.
int run_grid_file(const smt::CliArgs& args,
                  const std::vector<std::string>& keys, std::size_t jobs) {
  using namespace smt;
  if (!args.has("grid") || !args.has("out")) {
    throw UsageError("--grid FILE and --out DIR go together");
  }
  for (const std::string& key : keys) {
    if (key != "grid" && key != "out" && key != "jobs" && args.has(key)) {
      throw UsageError("--" + key + " does not apply to --grid: the grid "
                       "file sets every run option");
    }
  }
  const std::string path = args.get_or("grid", "");
  std::ifstream in(path);
  if (!in) throw ConfigError("--grid: cannot read '" + path + "'");
  const sim::BatchSpec batch = sim::parse_batch(in);
  const std::string dir = args.get_or("out", "");
  std::vector<sim::GridCell> cells = sim::plan_grid(batch, dir);
  // Workers report as they publish; one whole line per write keeps the
  // lines of concurrent jobs apart.
  sim::run_grid(cells, dir, jobs, [](const sim::GridCell& cell) {
    std::cout << settle_line(cell) << std::flush;
  });
  for (const sim::GridCell& cell : cells) {
    if (cell.status == sim::GridCell::Status::kViolations) return kExitCheck;
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace smt;
  try {
    const std::vector<std::string> keys = {
        "mix", "apps", "threads", "seed", "policy", "adts", "heuristic",
        "threshold", "quantum", "instant", "oracle", "all-policies",
        "quanta", "jobs", "cycles", "warmup", "csv", "list", "help",
        "trace", "pipeview", "stats-json",
        "cpi", "prof", "prof-folded", "prof-stride", "check", "version",
        "grid", "out"};
    const CliArgs args(argc, argv, keys,
                       /*flag_keys=*/{"adts", "instant", "oracle",
                                      "all-policies", "csv", "list", "help",
                                      "check", "cpi", "prof", "version"});
    if (!args.positional().empty()) {
      throw UsageError("unexpected argument: " + args.positional().front());
    }
    if (args.has("help")) {
      std::cout << kUsage;
      return kExitOk;
    }
    if (args.has("version")) {
      const BuildInfo& bi = build_info();
      std::cout << "smtsim " << bi.version << " (" << bi.git_sha << ", "
                << bi.compiler << ", " << bi.flags << ")\n";
      return kExitOk;
    }
    if (args.has("list")) {
      list_everything();
      return kExitOk;
    }

    // Worker threads for the oracle's candidate trials and for grid
    // jobs. The flag is harmless elsewhere (single runs have nothing to
    // fan out).
    const std::uint64_t jobs =
        args.get_u64("jobs", static_cast<std::uint64_t>(smt_jobs_from_env()));
    if (jobs == 0) {
      throw ConfigError("--jobs must be >= 1 worker threads");
    }
    if (args.has("grid") || args.has("out")) {
      return run_grid_file(args, keys, static_cast<std::size_t>(jobs));
    }

    // Each mode's own options: one the chosen mode would ignore is a
    // usage error, not a silently dropped flag.
    if (args.has("adts") && args.has("oracle")) {
      throw UsageError("--adts cannot be combined with --oracle (the "
                       "oracle picks every quantum's policy itself)");
    }
    for (const char* flag : {"heuristic", "threshold", "instant"}) {
      if (args.has(flag) && !args.has("adts")) {
        throw UsageError(std::string("--") + flag + " needs --adts");
      }
    }
    for (const char* flag : {"quanta", "all-policies"}) {
      if (args.has(flag) && !args.has("oracle")) {
        throw UsageError(std::string("--") + flag + " needs --oracle");
      }
    }
    if (args.has("oracle")) {
      // The oracle's trials run on copies, which drop every observer, so
      // none of these outputs could be written.
      for (const char* flag : {"trace", "stats-json", "cpi", "pipeview"}) {
        if (args.has(flag)) {
          throw UsageError(std::string("--") + flag +
                           " cannot be combined with --oracle");
        }
      }
    }

    // The run's options as a grid job: sim_config_for is the one
    // option → SimConfig mapping, shared with every --grid job.
    sim::GridJob job;
    job.mix = args.get_or("mix", "bal1");
    job.seed = args.get_u64("seed", 2003);
    job.threads = static_cast<std::size_t>(args.get_u64("threads", 8));
    if (job.threads < 1 || job.threads > 8) {
      throw ConfigError("--threads must be between 1 and 8 (the machine has "
                        "8 hardware contexts), got " +
                        std::to_string(job.threads));
    }
    try {
      job.policy = policy::parse_policy(args.get_or("policy", "ICOUNT"));
    } catch (const std::exception&) {
      throw ConfigError("unknown fetch policy '" +
                        args.get_or("policy", "ICOUNT") +
                        "' (see --list for the ten policies)");
    }
    job.threshold = args.get_double("threshold", 2.0);
    if (job.threshold <= 0.0) {
      throw ConfigError("--threshold must be > 0 (IPC units), got " +
                        std::to_string(job.threshold));
    }
    job.quantum = args.get_u64("quantum", 8192);
    if (job.quantum == 0) {
      throw ConfigError("--quantum must be > 0 cycles");
    }
    job.warmup = args.get_u64("warmup", 32768);
    job.cycles = args.get_u64("cycles", 262144);
    if (job.cycles == 0) {
      throw ConfigError("--cycles must be > 0");
    }
    job.adts = args.has("adts");
    job.heuristic = core::parse_heuristic(args.get_or("heuristic", "3"));

    sim::SimConfig cfg;
    try {
      cfg = sim::sim_config_for(job);
    } catch (const std::exception&) {
      throw ConfigError("unknown mix '" + job.mix +
                        "' (see --list for the 13 built-in mixes)");
    }
    if (args.has("apps")) {
      cfg.apps = split_list(args.get_or("apps", ""));
      if (cfg.apps.empty()) {
        throw ConfigError("--apps needs at least one application name "
                          "(see --list)");
      }
      if (cfg.apps.size() > 8) {
        throw ConfigError("--apps lists " + std::to_string(cfg.apps.size()) +
                          " applications but the machine has 8 contexts");
      }
    }
    const bool csv = args.has("csv");

    // Invariant checking: explicit --check forces it on; otherwise the
    // SMT_CHECK environment variable decides (CheckMode::kAuto).
    cfg.check = args.has("check") ? check::CheckMode::kOn
                                  : check::CheckMode::kAuto;

    // A failing checker turns an otherwise successful run into exit
    // code kExitCheck, with the violation report on stderr (stdout stays
    // reserved for the requested CSV/JSON document).
    const auto check_exit = [](const sim::Simulator& s) {
      if (!s.checking_enabled() || s.checker().ok()) return kExitOk;
      s.checker().write_report(std::cerr);
      return kExitCheck;
    };

    // Host-phase profiling (--prof). Observation-only: simulated results
    // and every non-prof output byte are identical with it on or off.
    const bool prof_on = args.has("prof") || args.has("prof-folded");
    const std::uint64_t prof_stride = args.get_u64("prof-stride", 64);
    if (prof_stride == 0 || (prof_stride & (prof_stride - 1)) != 0) {
      throw ConfigError("--prof-stride must be a power of two >= 1, got " +
                        std::to_string(prof_stride));
    }
    std::ofstream prof_out;
    if (args.has("prof-folded")) {
      const std::string path = args.get_or("prof-folded", "");
      prof_out.open(path);
      if (!prof_out) {
        throw ConfigError("--prof-folded: cannot open '" + path +
                          "' for writing");
      }
    }
    prof::PhaseProfiler profiler;
    prof::PhaseProfiler* pp = prof_on ? &profiler : nullptr;
    const std::uint64_t prof_t0 = prof_on ? prof::host_ticks() : 0;

    if (args.has("oracle")) {
      sim::OracleConfig ocfg;
      ocfg.quantum_cycles = job.quantum;
      if (args.has("all-policies")) ocfg.candidates = policy::all_policies();
      const std::uint64_t quanta = args.get_u64("quanta", 16);
      if (quanta == 0) {
        throw ConfigError("--quanta must be > 0 oracle quanta");
      }

      const auto n_warm = profiler.child(prof::PhaseProfiler::kRoot, "warmup");
      const auto n_orc = profiler.child(prof::PhaseProfiler::kRoot, "oracle");

      sim::Simulator base(cfg);
      {
        const prof::PhaseProfiler::Scope s(pp, n_warm);
        base.run(job.warmup);
      }
      sim::OracleResult r;
      {
        const prof::PhaseProfiler::Scope s(pp, n_orc);
        r = sim::run_oracle(base, quanta, ocfg, static_cast<std::size_t>(jobs));
      }
      if (csv) {
        std::cout << "mode,ipc,cycles,committed,switches\noracle,"
                  << r.ipc() << ',' << r.cycles << ',' << r.committed << ','
                  << r.switches << '\n';
      } else {
        std::cout << "oracle IPC " << Table::num(r.ipc()) << " over "
                  << quanta << " quanta (" << r.switches << " switches)\n";
        for (auto p : ocfg.candidates) {
          std::cout << "  " << policy::name(p) << ": "
                    << r.quanta_per_policy[static_cast<std::size_t>(p)]
                    << " quanta\n";
        }
        if (prof_on) {
          std::cout << "host profile: warmup "
                    << prof::ticks_to_ns(profiler.inclusive_ticks(n_warm)) /
                           1000000
                    << " ms, oracle "
                    << prof::ticks_to_ns(profiler.inclusive_ticks(n_orc)) /
                           1000000
                    << " ms\n";
        }
      }
      if (prof_out.is_open()) profiler.write_folded(prof_out);
      // Only the warm-up of `base` ran checked: the oracle re-runs policy
      // trials on copies, and copies drop checking by design.
      return check_exit(base);
    }

    cfg.adts.instant_switch = args.has("instant");
    cfg.cpi = args.has("cpi");

    if (args.has("pipeview")) {
      if (!args.has("trace")) {
        throw ConfigError("--pipeview samples into the event trace and "
                          "needs --trace");
      }
      for (const std::string& spec : split_list(args.get_or("pipeview", ""))) {
        cfg.pipeview.push_back(parse_pipeview_window(spec));
      }
      if (cfg.pipeview.empty()) {
        throw ConfigError("--pipeview needs at least one N@CYCLE window");
      }
    }

    // Open output files before the (potentially long) run so a bad path
    // fails in milliseconds, not after the full simulation.
    const bool stats_to_stdout =
        args.has("stats-json") && args.get_or("stats-json", "-") == "-";
    if (stats_to_stdout && csv) {
      throw UsageError("--stats-json - claims stdout for the stats "
                       "document; it cannot be combined with --csv (the "
                       "CSV would be dropped)");
    }
    std::ofstream stats_out;
    if (args.has("stats-json") && !stats_to_stdout) {
      const std::string path = args.get_or("stats-json", "-");
      stats_out.open(path);
      if (!stats_out) {
        throw ConfigError("--stats-json: cannot open '" + path +
                          "' for writing");
      }
    }
    const bool trace_to_stdout =
        args.has("trace") && args.get_or("trace", "-") == "-";
    if (trace_to_stdout && (stats_to_stdout || csv)) {
      throw UsageError("--trace - claims stdout for the trace; it cannot be "
                       "combined with --stats-json - or --csv (their output "
                       "would interleave)");
    }
    std::ofstream trace_out;
    if (args.has("trace") && !trace_to_stdout) {
      const std::string path = args.get_or("trace", "");
      trace_out.open(path);
      if (!trace_out) {
        throw ConfigError("--trace: cannot open '" + path + "' for writing");
      }
    }

    const auto n_init = profiler.child(prof::PhaseProfiler::kRoot, "init");
    const auto n_warm = profiler.child(prof::PhaseProfiler::kRoot, "warmup");
    const auto n_meas = profiler.child(prof::PhaseProfiler::kRoot, "measured");

    const std::uint64_t t_init = prof_on ? prof::host_ticks() : 0;
    sim::Simulator sim(cfg);
    obs::TraceSink sink;
    if (args.has("trace")) {
      const BuildInfo& bi = build_info();
      const HostInfo& hi = host_info();
      obs::RunInfo info;
      info.tool = "smtsim";
      info.version = std::string(bi.version);
      info.git_sha = std::string(bi.git_sha);
      info.compiler = std::string(bi.compiler);
      info.flags = std::string(bi.flags);
      info.seed = cfg.workload_seed;
      info.config_digest = sim::config_digest(cfg);
      info.host_cpu = hi.cpu_model;
      info.host_cores = hi.cores;
      info.smt_jobs = hi.smt_jobs;
      sink.set_run_info(info);
      sim.attach_trace(&sink);
    }
    if (prof_on) profiler.add(n_init, prof::host_ticks() - t_init);

    sim::RunProfile run_prof;
    run_prof.profiler = pp;
    run_prof.warmup = n_warm;
    run_prof.measured = n_meas;
    run_prof.stride = prof_stride;
    obs::MetricsRegistry reg;
    const sim::MeasuredRun run =
        sim::run_measured(sim, job.warmup, job.cycles,
                          args.has("stats-json") ? &reg : nullptr, &run_prof);

    if (args.has("stats-json")) {
      if (prof_on) {
        // Wall time from profiler start to here: the reference the phase
        // tree's telescoping exclusive sum is checked against.
        reg.set("prof.total_ns",
                prof::ticks_to_ns(prof::host_ticks() - prof_t0));
        profiler.export_metrics(reg);
      }
      if (stats_to_stdout) {
        reg.write_json(std::cout);
      } else {
        reg.write_json(stats_out);
      }
    }

    if (prof_out.is_open()) profiler.write_folded(prof_out);

    if (args.has("trace")) {
      sink.write(trace_to_stdout ? std::cout : trace_out);
      if (trace_to_stdout) return check_exit(sim);
    }
    if (stats_to_stdout) {
      // stdout carries the JSON document; the violation report (if any)
      // goes to stderr.
      return check_exit(sim);
    }

    const auto& st = sim.pipeline().stats();
    const auto& dt = sim.detector().stats();
    if (csv) {
      std::cout << "mode,ipc,cycles,committed,switches,benign,mispredicts,"
                   "wrong_path_fetched\n"
                << (cfg.use_adts ? "adts" : "fixed") << ',' << run.ipc << ','
                << job.cycles << ',' << run.committed << ',' << dt.switches
                << ',' << dt.benign_switches << ',' << st.mispredicts << ','
                << st.fetched_wrong_path << '\n';
      return check_exit(sim);
    }

    std::cout << (cfg.use_adts
                      ? "ADTS (" + std::string(core::name(cfg.adts.heuristic)) +
                            ", m=" + Table::num(cfg.adts.ipc_threshold, 1) + ")"
                      : "fixed " + std::string(policy::name(cfg.fixed_policy)))
              << " on";
    for (const auto& a : cfg.apps) std::cout << ' ' << a;
    std::cout << "\nmeasured IPC " << Table::num(run.ipc) << " over "
              << job.cycles << " cycles (+" << job.warmup << " warm-up)\n";
    if (cfg.use_adts) {
      std::cout << dt.quanta << " quanta, " << dt.low_throughput_quanta
                << " low-throughput, " << dt.switches << " switches ("
                << dt.benign_switches << " benign / " << dt.malignant_switches
                << " malignant / " << dt.switches_skipped_dt_busy
                << " skipped)\n";
    }
    if (prof_on) {
      const auto ms = [](std::uint64_t ticks) {
        return prof::ticks_to_ns(ticks) / 1000000;
      };
      std::cout << "host profile: init " << ms(profiler.inclusive_ticks(n_init))
                << " ms, warmup " << ms(profiler.inclusive_ticks(n_warm))
                << " ms, measured " << ms(profiler.inclusive_ticks(n_meas))
                << " ms (cycle stages sampled 1/" << prof_stride
                << "; full tree via --stats-json / --prof-folded)\n";
    }
    return check_exit(sim);
  } catch (const UsageError& e) {
    std::cerr << "smtsim: " << e.what() << "\n\n" << kUsage;
    return kExitUsage;
  } catch (const ConfigError& e) {
    std::cerr << "smtsim: " << e.what() << '\n';
    return kExitConfig;
  } catch (const std::exception& e) {
    std::cerr << "smtsim: " << e.what() << '\n';
    return kExitConfig;
  }
}
