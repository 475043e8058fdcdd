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
  const std::optional<std::uint64_t> count =
      smt::parse_u64(std::string_view(spec).substr(0, at));
  const std::optional<std::uint64_t> start =
      at == std::string::npos
          ? std::nullopt
          : smt::parse_u64(std::string_view(spec).substr(at + 1));
  if (!count.has_value() || !start.has_value()) {
    throw smt::ConfigError("--pipeview windows are N@CYCLE (e.g. 64@8192), "
                           "got '" + spec + "'");
  }
  if (*count == 0) {
    throw smt::ConfigError("--pipeview window '" + spec +
                           "' samples zero instructions");
  }
  return {.start_cycle = *start, .count = *count};
}

/// The file --`key` names, opened for writing: a bad path fails before
/// the (potentially long) run, not after it.
std::ofstream open_output(const smt::CliArgs& args, const std::string& key) {
  const std::string path = args.get_or(key, "");
  std::ofstream out(path);
  if (!out) {
    throw smt::ConfigError("--" + key + ": cannot open '" + path +
                           "' for writing");
  }
  return out;
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
int run_grid_file(const smt::CliArgs& args, std::size_t jobs) {
  using namespace smt;
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
    const CliTable& cli = sim::smtsim_cli();
    const CliArgs args(argc, argv, cli);
    if (!args.positional().empty()) {
      throw UsageError("unexpected argument: " + args.positional().front());
    }
    if (args.has("help")) {
      write_help(std::cout, cli);
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
    args.check_mode(args.has("grid") || args.has("out") ? sim::kGridRun
                    : args.has("oracle")                ? sim::kOracleRun
                    : args.has("adts")                  ? sim::kAdtsRun
                                                        : sim::kFixedRun);

    const std::uint64_t jobs =
        args.get_u64("jobs", static_cast<std::uint64_t>(smt_jobs_from_env()));
    if (jobs == 0) {
      throw ConfigError("--jobs must be >= 1 worker threads");
    }
    if (args.has("grid")) {
      return run_grid_file(args, static_cast<std::size_t>(jobs));
    }

    // The run's options as a grid job: sim_config_for is the one
    // option → SimConfig mapping, shared with every --grid job.
    sim::GridJob job;
    job.adts = args.has("adts");
    for (const CliOption& o : cli.options) {
      if (const auto v = args.get(o.name)) sim::set_job_field(job, o.name, *v);
    }
    sim::SimConfig cfg = sim::sim_config_for(job);
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
    if (args.has("prof-folded")) prof_out = open_output(args, "prof-folded");
    prof::PhaseProfiler profiler;
    prof::PhaseProfiler* pp = prof_on ? &profiler : nullptr;
    const auto ms = [&profiler](prof::PhaseProfiler::Node n) {
      return prof::ticks_to_ns(profiler.inclusive_ticks(n)) / 1000000;
    };
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
          std::cout << "host profile: warmup " << ms(n_warm) << " ms, oracle "
                    << ms(n_orc) << " ms\n";
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
      stats_out = open_output(args, "stats-json");
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
      trace_out = open_output(args, "trace");
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

    const auto st = sim.pipeline().stats();
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
      std::cout << dt.quanta() << " quanta, " << dt.low_throughput_quanta
                << " low-throughput, " << dt.switches << " switches ("
                << dt.benign_switches << " benign / " << dt.malignant_switches
                << " malignant / " << dt.switches_skipped_dt_busy
                << " skipped)\n";
    }
    if (prof_on) {
      std::cout << "host profile: init " << ms(n_init) << " ms, warmup "
                << ms(n_warm) << " ms, measured " << ms(n_meas)
                << " ms (cycle stages sampled 1/" << prof_stride
                << "; full tree via --stats-json / --prof-folded)\n";
    }
    return check_exit(sim);
  } catch (const UsageError& e) {
    std::cerr << "smtsim: " << e.what() << "\n\n";
    write_help(std::cerr, sim::smtsim_cli());
    return kExitUsage;
  } catch (const ConfigError& e) {
    std::cerr << "smtsim: " << e.what() << '\n';
    return kExitConfig;
  } catch (const std::exception& e) {
    std::cerr << "smtsim: " << e.what() << '\n';
    return kExitConfig;
  }
}
