// smtsim — command-line driver for the SMT/ADTS simulator.
//
// Runs a mix (or an explicit application list) under a fixed fetch
// policy, under ADTS, or under the oracle, with the machine knobs
// exposed as options. Prints a human-readable report or CSV.
//
// Exit codes: common/exit_codes.hpp (documented in --help).
//
// Examples:
//   smtsim --mix int8 --cycles 500000
//   smtsim --apps gzip,mcf,swim,crafty --policy BRCOUNT
//   smtsim --mix ctrl8 --adts --heuristic 3 --threshold 2
//   smtsim --mix bal1 --oracle --quanta 16
//   smtsim --mix fp8 --threads 4 --csv
//   smtsim --mix mem8 --adts --trace - --trace-format csv
#include <algorithm>
#include <csignal>
#include <fstream>
#include <iostream>
#include <string>

#include "check/invariants.hpp"
#include "common/build_info.hpp"
#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "common/host_info.hpp"
#include "common/table.hpp"
#include "core/heuristics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_sink.hpp"
#include "par/thread_pool.hpp"
#include "pipeline/pipeline.hpp"
#include "prof/phase_profiler.hpp"
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

scheduling (one of):
  --policy NAME         fixed fetch policy (default ICOUNT)
  --adts                adaptive scheduling (detector thread)
    --heuristic 1|2|3|3p|4    (default 3)
    --threshold M             IPC threshold, > 0 (default 2)
    --quantum CYCLES          scheduling quantum, > 0 (default 8192)
    --instant                 zero-cost switching (ablation)
  --oracle              per-quantum oracle over {ICOUNT,BRCOUNT,L1MISSCOUNT}
    --all-policies            oracle over all ten policies
    --quanta N                oracle quanta (default 16)
    --jobs N                  worker threads for the oracle's candidate
                              trials (default: SMT_JOBS or 1; results are
                              bit-identical for every value)

observability (normal runs; ignored under --oracle):
  --trace PATH          write the event trace to PATH after the run
                        ('-' = stdout; stdout then carries only the trace,
                        so --stats-json - and --csv are rejected alongside
                        it)
  --trace-format F      trace backend: csv | jsonl | chrome (default
                        jsonl; chrome loads in Perfetto / chrome://tracing)
  --pipeview N@CYCLE    sample the full pipeline lifecycle (fetch through
                        commit/squash, cycle-stamped per stage) of the N
                        instructions fetched from CYCLE onward, as
                        pipeview events in the trace. Comma-separable:
                        --pipeview 64@0,64@131072. Needs --trace.
                        Analyze with smttrace pipeview.
  --stats-json PATH     write end-of-run metrics from every subsystem as
                        nested JSON to PATH ('-' = stdout)
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
                        as prof.* in --stats-json and as prof events in
                        --trace. Under --oracle, also reports the candidate-
                        trial pool's per-worker busy time.
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
  2  usage error (unknown or malformed option)
  3  configuration error (valid syntax, invalid value)
  4  invariant violations detected (--check / SMT_CHECK=1)
  5  cancelled: SIGTERM/SIGINT during a normal run; --stats-json and
     --trace output is flushed for the cycles already simulated (the
     stats document carries run.cancelled=true), so a supervisor can
     tell a graceful stop from a crash that drops all output
)";

// Graceful shutdown (SIGTERM/SIGINT): the handler only raises a flag;
// the run loop polls it between slices, then the normal output path
// flushes whatever was requested and main exits kExitCancelled. The
// fleet daemon (smtfleetd) relies on this code to distinguish
// "cancelled, partial output is coherent" from "crashed, discard".
volatile std::sig_atomic_t g_cancel_signal = 0;

void on_cancel_signal(int sig) { g_cancel_signal = sig; }

/// Run in slices, polling the cancellation flag. Simulator::run is a
/// plain step loop, so slicing is bit-identical to one run(cycles) call;
/// a signal lands within kSlice cycles of delivery. Returns the cycles
/// actually simulated.
std::uint64_t run_cancellable(smt::sim::Simulator& sim, std::uint64_t cycles) {
  constexpr std::uint64_t kSlice = 4096;
  std::uint64_t done = 0;
  while (done < cycles && g_cancel_signal == 0) {
    const std::uint64_t n = std::min(kSlice, cycles - done);
    sim.run(n);
    done += n;
  }
  return done;
}

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

smt::core::HeuristicType parse_heuristic(const std::string& s) {
  using smt::core::HeuristicType;
  if (s == "1") return HeuristicType::kType1;
  if (s == "2") return HeuristicType::kType2;
  if (s == "3") return HeuristicType::kType3;
  if (s == "3p" || s == "3'") return HeuristicType::kType3Prime;
  if (s == "4") return HeuristicType::kType4;
  throw smt::ConfigError("--heuristic must be one of 1|2|3|3p|4, got '" + s +
                         "'");
}

/// Parse one --pipeview window spec "N@CYCLE".
smt::pipeline::PipeviewWindow parse_pipeview_window(const std::string& spec) {
  const std::size_t at = spec.find('@');
  if (at == std::string::npos || at == 0 || at + 1 >= spec.size()) {
    throw smt::ConfigError("--pipeview windows are N@CYCLE (e.g. 64@8192), "
                           "got '" + spec + "'");
  }
  smt::pipeline::PipeviewWindow w;
  try {
    std::size_t used = 0;
    w.count = std::stoull(spec.substr(0, at), &used);
    if (used != at) throw std::invalid_argument(spec);
    const std::string cyc = spec.substr(at + 1);
    w.start_cycle = std::stoull(cyc, &used);
    if (used != cyc.size()) throw std::invalid_argument(spec);
  } catch (const std::exception&) {
    throw smt::ConfigError("--pipeview windows are N@CYCLE (e.g. 64@8192), "
                           "got '" + spec + "'");
  }
  if (w.count == 0) {
    throw smt::ConfigError("--pipeview window '" + spec +
                           "' samples zero instructions");
  }
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace smt;
  try {
    const CliArgs args(
        argc, argv,
        {"mix", "apps", "threads", "seed", "policy", "adts", "heuristic",
         "threshold", "quantum", "instant", "oracle", "all-policies",
         "quanta", "jobs", "cycles", "warmup", "csv", "list", "help",
         "trace", "trace-format", "pipeview", "stats-json",
         "cpi", "prof", "prof-folded", "prof-stride", "check", "version"},
        /*flag_keys=*/{"adts", "instant", "oracle", "all-policies",
                       "csv", "list", "help", "check",
                       "cpi", "prof", "version"});
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

    sim::SimConfig cfg;
    cfg.workload_seed = args.get_u64("seed", 2003);
    const std::uint64_t threads = args.get_u64("threads", 8);
    if (threads < 1 || threads > 8) {
      throw ConfigError("--threads must be between 1 and 8 (the machine has "
                        "8 hardware contexts), got " +
                        std::to_string(threads));
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
    } else {
      try {
        cfg.apps = workload::mix_for_threads(
            workload::mix(args.get_or("mix", "bal1")),
            static_cast<std::size_t>(threads), cfg.workload_seed);
      } catch (const std::exception&) {
        throw ConfigError("unknown mix '" + args.get_or("mix", "bal1") +
                          "' (see --list for the 13 built-in mixes)");
      }
    }
    try {
      cfg.fixed_policy = policy::parse_policy(args.get_or("policy", "ICOUNT"));
    } catch (const std::exception&) {
      throw ConfigError("unknown fetch policy '" +
                        args.get_or("policy", "ICOUNT") +
                        "' (see --list for the ten policies)");
    }

    const double threshold = args.get_double("threshold", 2.0);
    if (threshold <= 0.0) {
      throw ConfigError("--threshold must be > 0 (IPC units), got " +
                        std::to_string(threshold));
    }
    const std::uint64_t quantum = args.get_u64("quantum", 8192);
    if (quantum == 0) {
      throw ConfigError("--quantum must be > 0 cycles");
    }

    const std::uint64_t warmup = args.get_u64("warmup", 32768);
    const std::uint64_t cycles = args.get_u64("cycles", 262144);
    if (cycles == 0) {
      throw ConfigError("--cycles must be > 0");
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

    // Worker threads for the oracle's per-quantum candidate trials. The
    // flag is harmless elsewhere (single runs have nothing to fan out).
    const std::uint64_t jobs =
        args.get_u64("jobs", static_cast<std::uint64_t>(par::default_jobs()));
    if (jobs == 0) {
      throw ConfigError("--jobs must be >= 1 worker threads");
    }

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
      ocfg.quantum_cycles = quantum;
      if (args.has("all-policies")) ocfg.candidates = policy::all_policies();
      const std::uint64_t quanta = args.get_u64("quanta", 16);

      const auto n_warm = profiler.child(prof::PhaseProfiler::kRoot, "warmup");
      const auto n_orc = profiler.child(prof::PhaseProfiler::kRoot, "oracle");

      sim::Simulator base(cfg);
      {
        const prof::PhaseProfiler::Scope s(pp, n_warm);
        base.run(warmup);
      }
      sim::OracleTelemetry tel;
      sim::OracleResult r;
      {
        const prof::PhaseProfiler::Scope s(pp, n_orc);
        r = sim::run_oracle(base, quanta, ocfg, static_cast<std::size_t>(jobs),
                            prof_on ? &prof::host_ticks : nullptr,
                            prof_on ? &tel : nullptr);
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
                    << " ms across " << tel.workers << " pool workers\n";
          for (std::size_t w = 0; w < tel.slots.size(); ++w) {
            std::cout << "  worker " << w << ": " << tel.slots[w].tasks
                      << " trials, "
                      << prof::ticks_to_ns(tel.slots[w].busy_ticks) / 1000000
                      << " ms busy\n";
          }
        }
      }
      if (prof_out.is_open()) profiler.write_folded(prof_out);
      // Only the warm-up of `base` ran checked: the oracle re-runs policy
      // trials on copies, and copies drop checking by design.
      return check_exit(base);
    }

    if (args.has("adts")) {
      cfg.use_adts = true;
      cfg.adts.heuristic = parse_heuristic(args.get_or("heuristic", "3"));
      cfg.adts.ipc_threshold = threshold;
      cfg.adts.quantum_cycles = quantum;
      cfg.adts.instant_switch = args.has("instant");
    }
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

    obs::TraceFormat trace_format = obs::TraceFormat::kJsonl;
    if (args.has("trace-format")) {
      const std::string f = args.get_or("trace-format", "jsonl");
      const auto parsed = obs::parse_trace_format(f);
      if (!parsed) {
        throw ConfigError("--trace-format must be csv, jsonl or chrome, got '" +
                          f + "'");
      }
      trace_format = *parsed;
    }

    // Open output files before the (potentially long) run so a bad path
    // fails in milliseconds, not after the full simulation.
    const bool stats_to_stdout =
        args.has("stats-json") && args.get_or("stats-json", "-") == "-";
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
    // From here the run is cancellable: SIGTERM/SIGINT stops the slice
    // loop, the requested outputs are flushed below as usual, and main
    // returns kExitCancelled instead of the check verdict.
    std::signal(SIGTERM, on_cancel_signal);
    std::signal(SIGINT, on_cancel_signal);

    std::uint64_t warmup_done = 0;
    {
      const prof::PhaseProfiler::Scope s(pp, n_warm);
      warmup_done = run_cancellable(sim, warmup);
    }
    const std::uint64_t c0 = sim.committed();
    std::uint64_t measured = 0;
    if (warmup_done >= warmup) {
      // Per-cycle stage timing only covers the measured region: warm-up
      // is excluded from simulated stats, so it is excluded here too.
      const prof::PhaseProfiler::Scope s(pp, n_meas);
      if (prof_on) sim.attach_profiler(&profiler, n_meas, prof_stride);
      measured = run_cancellable(sim, cycles);
      if (prof_on) sim.attach_profiler(nullptr, 0, 1);
    }
    sim.flush_trace();
    const bool cancelled = g_cancel_signal != 0;
    const auto finish = [&check_exit, &cancelled](const sim::Simulator& s) {
      return cancelled ? kExitCancelled : check_exit(s);
    };
    const double ipc =
        measured == 0 ? 0.0
                      : static_cast<double>(sim.committed() - c0) /
                            static_cast<double>(measured);

    if (args.has("stats-json")) {
      obs::MetricsRegistry reg;
      sim.export_metrics(reg);
      reg.set("run.warmup_cycles", warmup_done);
      reg.set("run.measured_cycles", measured);
      reg.set("run.measured_ipc", ipc);
      // Only a cancelled run carries the marker: a normal run's document
      // stays byte-identical to what it was before cancellation existed.
      if (cancelled) reg.set("run.cancelled", true);
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

    if (prof_on && args.has("trace")) {
      for (const obs::TraceEvent& e : profiler.trace_events()) sink.record(e);
    }
    if (prof_out.is_open()) profiler.write_folded(prof_out);

    if (args.has("trace")) {
      sink.write(trace_to_stdout ? std::cout : trace_out, trace_format,
                 sim::trace_decoder());
      if (trace_to_stdout) return finish(sim);
    }
    if (stats_to_stdout) {
      // stdout carries the JSON document; the violation report (if any)
      // goes to stderr.
      return finish(sim);
    }

    const auto& st = sim.pipeline().stats();
    const auto& dt = sim.detector().stats();
    if (csv) {
      std::cout << "mode,ipc,cycles,committed,switches,benign,mispredicts,"
                   "wrong_path_fetched\n"
                << (cfg.use_adts ? "adts" : "fixed") << ',' << ipc << ','
                << measured << ',' << sim.committed() - c0 << ',' << dt.switches
                << ',' << dt.benign_switches << ',' << st.mispredicts << ','
                << st.fetched_wrong_path << '\n';
      return finish(sim);
    }

    std::cout << (cfg.use_adts
                      ? "ADTS (" + std::string(core::name(cfg.adts.heuristic)) +
                            ", m=" + Table::num(cfg.adts.ipc_threshold, 1) + ")"
                      : "fixed " + std::string(policy::name(cfg.fixed_policy)))
              << " on";
    for (const auto& a : cfg.apps) std::cout << ' ' << a;
    std::cout << "\nmeasured IPC " << Table::num(ipc) << " over " << measured
              << " cycles (+" << warmup_done << " warm-up)\n";
    if (cancelled) {
      std::cout << "cancelled by signal " << static_cast<int>(g_cancel_signal)
                << " after " << measured << " of " << cycles
                << " measured cycles\n";
    }
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
    return finish(sim);
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
