// smtfleetd — crash-tolerant experiment-fleet daemon.
//
// Accepts a batch file describing a mix × policy/adts × threshold × seed
// grid, shards the jobs across supervised `smtsim` worker processes, and
// makes the whole batch survive anything short of disk loss:
//
//   * content-addressed result cache keyed on the job digest
//     (sim::config_digest + run-control fields) — a digest computed once
//     is never simulated again, across runs and across batches;
//   * append-only JSONL journal: a SIGKILLed daemon restarted with the
//     same arguments resumes exactly where it stopped;
//   * per-job wall-clock timeouts, bounded retries with deterministic
//     exponential backoff, crash/hang detection via exit codes/signals;
//   * graceful SIGTERM/SIGINT drain: in-flight jobs finish, the journal
//     is flushed, exit kExitCancelled; a second signal force-kills.
//
// Chaos options (--chaos-*) deliberately kill or stall workers on a
// seeded schedule; scripts/check_fleet.sh uses them as its test rig.
//
// Exit codes: common/exit_codes.hpp (documented in --help).
//
// Examples:
//   smtfleetd --batch grid.batch --out results/
//   smtfleetd --batch grid.batch --out results/ --workers 4 --timeout-ms 60000
//   smtfleetd --batch grid.batch --out results/ --list-jobs
//   smtfleetd --batch grid.batch --out results/ --chaos-kill 0.3 --chaos-seed 7
#include <time.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "common/rng.hpp"
#include "fleet/job_spec.hpp"
#include "fleet/journal.hpp"
#include "fleet/result_cache.hpp"
#include "fleet/scheduler.hpp"
#include "fleet/supervisor.hpp"

namespace {

constexpr const char* kUsage = R"(usage: smtfleetd --batch FILE --out DIR [options]

batch:
  --batch FILE          batch file: the experiment grid (see DESIGN.md §14)
  --out DIR             output directory; holds cache/ (one stats-JSON per
                        job digest) and journal.jsonl (crash recovery)
  --smtsim PATH         worker binary (default: smtsim next to this binary)

robustness:
  --workers N           concurrent worker processes (default 2)
  --retries K           worker starts per job before it fails (default 3)
  --timeout-ms T        per-job wall-clock budget; 0 = no hang detection
                        (default 120000)
  --backoff-ms B        base retry delay; attempt k waits min(cap, B<<(k-1))
                        (default 250)
  --backoff-cap-ms C    retry delay ceiling (default 8000)
  --poll-ms P           supervisor poll interval (default 20)

chaos (deliberate worker faults, for testing the fleet itself):
  --chaos-kill P        probability a started worker is SIGKILLed mid-run
  --chaos-stall P       probability a started worker is SIGSTOPped (hangs
                        until the per-job timeout reaps it)
  --chaos-window-ms W   strike lands uniformly within W ms of the worker
                        start — pick W below the typical job runtime so
                        victims die mid-run (default 500)
  --chaos-seed N        chaos schedule seed (default 0xF1EE7)

telemetry:
  --status PATH         maintain a JSON progress snapshot at PATH, updated
                        atomically (write tmp + rename) every interval:
                        queued/running/settled/retry counts, throughput and
                        ETA. Safe to read concurrently (smtprof status PATH)
  --status-interval-ms I  snapshot refresh interval (default 1000)

inspection:
  --list-jobs           print "digest<TAB>smtsim args" per job and exit
  --help                this text

exit codes:
  0  batch complete: every job done or served from cache
  2  usage error (unknown or malformed option)
  3  configuration error (unreadable batch/out, invalid value)
  5  drained on SIGTERM/SIGINT before the batch completed (journal and
     cache are consistent; rerun with the same arguments to resume)
  6  batch settled with permanently failed jobs (see journal 'fail'
     records)
)";

volatile std::sig_atomic_t g_signals_seen = 0;

void on_drain_signal(int) { g_signals_seen = g_signals_seen + 1; }

/// Monotonic milliseconds (CLOCK_MONOTONIC — tools may read clocks; the
/// library scheduler only ever sees these values as opaque numbers).
std::uint64_t now_ms() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000u +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000000u;
}

void sleep_ms(std::uint64_t ms) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>((ms % 1000) * 1000000);
  nanosleep(&ts, nullptr);
}

double get_prob(const smt::CliArgs& args, const std::string& key) {
  const double p = args.get_double(key, 0.0);
  if (p < 0.0 || p > 1.0) {
    throw smt::ConfigError("--" + key + " is a probability and must be in "
                           "[0,1], got " + std::to_string(p));
  }
  return p;
}

/// smtsim binary co-located with this daemon, unless overridden.
std::string default_smtsim(const std::string& argv0) {
  const std::size_t slash = argv0.rfind('/');
  if (slash == std::string::npos) return "smtsim";
  return argv0.substr(0, slash + 1) + "smtsim";
}

/// Chaos plan for one worker attempt, decided at spawn time from the
/// seeded stream: what to do and how long after the start to do it.
struct ChaosAction {
  enum class Kind { kNone, kKill, kStall } kind = Kind::kNone;
  std::uint64_t at_ms = 0;
  bool fired = false;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace smt;
  try {
    const CliArgs args(argc, argv,
                       {"batch", "out", "smtsim", "workers", "retries",
                        "timeout-ms", "backoff-ms", "backoff-cap-ms",
                        "poll-ms", "chaos-kill", "chaos-stall",
                        "chaos-window-ms", "chaos-seed", "status",
                        "status-interval-ms", "list-jobs", "help"},
                       /*flag_keys=*/{"list-jobs", "help"});
    if (args.has("help")) {
      std::cout << kUsage;
      return kExitOk;
    }
    if (!args.has("batch") || !args.has("out")) {
      throw UsageError("--batch FILE and --out DIR are required");
    }

    const std::string batch_path = args.get_or("batch", "");
    std::ifstream batch_in(batch_path);
    if (!batch_in) {
      throw ConfigError("--batch: cannot read '" + batch_path + "'");
    }
    const fleet::BatchSpec batch = fleet::parse_batch(batch_in);
    const std::uint64_t batch_dig = fleet::batch_digest(batch);

    std::vector<std::uint64_t> digests;
    digests.reserve(batch.jobs.size());
    for (const fleet::FleetJob& job : batch.jobs) {
      digests.push_back(fleet::job_digest(job));
    }

    const std::string smtsim_bin =
        args.get_or("smtsim", default_smtsim(argv[0]));

    if (args.has("list-jobs")) {
      for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
        std::cout << fleet::digest_hex(digests[i]) << '\t' << smtsim_bin;
        for (const std::string& a :
             fleet::smtsim_args(batch.jobs[i], "-")) {
          std::cout << ' ' << a;
        }
        std::cout << '\n';
      }
      return kExitOk;
    }

    fleet::FleetConfig fcfg;
    fcfg.max_workers = args.get_u64("workers", 2);
    if (fcfg.max_workers == 0) {
      throw ConfigError("--workers must be >= 1");
    }
    fcfg.max_attempts = static_cast<std::uint32_t>(args.get_u64("retries", 3));
    if (fcfg.max_attempts == 0) {
      throw ConfigError("--retries must be >= 1 (it counts starts, not "
                        "re-starts)");
    }
    fcfg.timeout_ms = args.get_u64("timeout-ms", 120000);
    fcfg.backoff_base_ms = args.get_u64("backoff-ms", 250);
    fcfg.backoff_cap_ms = args.get_u64("backoff-cap-ms", 8000);
    if (fcfg.backoff_base_ms == 0 || fcfg.backoff_cap_ms < fcfg.backoff_base_ms) {
      throw ConfigError("--backoff-ms must be >= 1 and <= --backoff-cap-ms");
    }
    const std::uint64_t poll_ms_opt = args.get_u64("poll-ms", 20);
    if (poll_ms_opt == 0) {
      throw ConfigError("--poll-ms must be >= 1");
    }
    const double chaos_kill = get_prob(args, "chaos-kill");
    const double chaos_stall = get_prob(args, "chaos-stall");
    if (chaos_kill + chaos_stall > 1.0) {
      throw ConfigError("--chaos-kill + --chaos-stall must not exceed 1");
    }
    if (chaos_stall > 0.0 && fcfg.timeout_ms == 0) {
      throw ConfigError("--chaos-stall needs --timeout-ms > 0 (a stalled "
                        "worker is only ever reaped by the timeout)");
    }
    const std::uint64_t chaos_window_ms = args.get_u64("chaos-window-ms", 500);
    if ((chaos_kill > 0.0 || chaos_stall > 0.0) && chaos_window_ms == 0) {
      throw ConfigError("--chaos-window-ms must be >= 1");
    }
    Rng chaos_rng(args.get_u64("chaos-seed", 0xF1EE7));

    const std::string out_dir = args.get_or("out", "");
    fleet::ResultCache cache(out_dir + "/cache");
    const std::string journal_path = out_dir + "/journal.jsonl";

    // ---- recovery: fold the journal, then probe the cache ----------------
    std::set<std::uint64_t> settled_digests;
    {
      std::ifstream jin(journal_path);
      if (jin) {
        const std::vector<fleet::JournalRecord> past =
            fleet::read_journal(jin);
        for (const fleet::JournalRecord& rec : past) {
          if (rec.kind == fleet::JournalKind::kBatch &&
              rec.digest != batch_dig) {
            throw ConfigError(
                "journal '" + journal_path + "' belongs to a different "
                "batch (" + fleet::digest_str(rec.digest) + " vs " +
                fleet::digest_str(batch_dig) + "); use a fresh --out "
                "directory per grid");
          }
          if (rec.kind == fleet::JournalKind::kDone ||
              rec.kind == fleet::JournalKind::kCached) {
            settled_digests.insert(rec.digest);
          }
        }
      }
    }

    std::ofstream journal(journal_path, std::ios::app);
    if (!journal) {
      throw ConfigError("cannot append to journal '" + journal_path + "'");
    }
    const auto log_record = [&journal](const fleet::JournalRecord& rec) {
      fleet::write_record(journal, rec);
      journal.flush();  // one flushed line == one durable transition
    };
    const auto record_of = [&digests](fleet::JournalKind kind, std::size_t job,
                                      std::uint32_t attempt,
                                      std::string detail = "") {
      fleet::JournalRecord rec;
      rec.kind = kind;
      rec.job = job;
      rec.digest = digests[job];
      rec.attempt = attempt;
      rec.detail = std::move(detail);
      return rec;
    };

    {
      fleet::JournalRecord header;
      header.kind = fleet::JournalKind::kBatch;
      header.job = batch.jobs.size();
      header.digest = batch_dig;
      header.detail = batch_path;
      log_record(header);
    }

    fleet::FleetScheduler sched(fcfg);
    std::size_t recovered = 0;
    for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
      sched.add_job();
      // A journaled completion or a cache entry (possibly from another
      // batch sharing this digest) settles the job without a worker.
      const bool journaled = settled_digests.count(digests[i]) > 0;
      if (journaled || cache.contains(digests[i])) {
        sched.mark_cached(i);
        log_record(record_of(fleet::JournalKind::kCached, i, 0,
                             journaled ? "journal" : "cache"));
        ++recovered;
      }
    }
    std::cout << "smtfleetd: " << batch.jobs.size() << " jobs ("
              << recovered << " already settled), " << fcfg.max_workers
              << " workers, journal " << journal_path << '\n';

    std::signal(SIGTERM, on_drain_signal);
    std::signal(SIGINT, on_drain_signal);

    fleet::WorkerSupervisor supervisor;
    std::map<int, std::size_t> pid_to_job;
    std::map<int, std::string> pid_to_tmp;
    std::map<int, ChaosAction> pid_to_chaos;
    std::map<int, std::uint64_t> pid_to_start_ms;  // attempt wall-clock t0
    std::set<std::size_t> timing_out;  // killed for timeout, await reap
    bool announced_drain = false;

    // --- --status: atomic-rename JSON progress snapshots ------------------
    const std::string status_path = args.get_or("status", "");
    const std::uint64_t status_interval =
        args.get_u64("status-interval-ms", 1000);
    if (args.has("status") && status_path.empty()) {
      throw ConfigError("--status needs a file path");
    }
    if (status_interval == 0) {
      throw ConfigError("--status-interval-ms must be >= 1");
    }
    const std::uint64_t started_ms = now_ms();
    std::uint64_t last_status_ms = 0;
    std::uint64_t retries_total = 0;
    const auto write_status = [&](std::uint64_t now) {
      if (status_path.empty()) return;
      std::size_t done = 0, cached = 0, failed = 0;
      for (std::size_t i = 0; i < sched.size(); ++i) {
        switch (sched.job(i).state) {
          case fleet::JobState::kDone: ++done; break;
          case fleet::JobState::kCached: ++cached; break;
          case fleet::JobState::kFailed: ++failed; break;
          default: break;
        }
      }
      const std::size_t settled = done + cached + failed;
      const std::size_t running = pid_to_job.size();
      const std::size_t queued = sched.size() - settled - running;
      const std::uint64_t elapsed = now - started_ms;
      // Throughput counts worker-settled jobs only (cache hits are
      // instantaneous and would make the ETA wildly optimistic).
      const double mins = static_cast<double>(elapsed) / 60000.0;
      const std::size_t worked = done + failed;
      const double per_min =
          mins > 0.0 ? static_cast<double>(worked) / mins : 0.0;
      const std::uint64_t eta_ms =
          worked > 0 && queued + running > 0
              ? elapsed / worked * (queued + running)
              : 0;
      const std::string tmp = status_path + ".tmp";
      std::ofstream os(tmp, std::ios::trunc);
      if (!os) return;  // snapshot is best-effort; never kill the batch
      os << "{\"jobs\":" << sched.size() << ",\"queued\":" << queued
         << ",\"running\":" << running << ",\"done\":" << done
         << ",\"cached\":" << cached << ",\"failed\":" << failed
         << ",\"settled\":" << settled << ",\"retries\":" << retries_total
         << ",\"workers\":" << fcfg.max_workers
         << ",\"elapsed_ms\":" << elapsed << ",\"jobs_per_min\":" << per_min
         << ",\"eta_ms\":" << eta_ms
         << ",\"draining\":" << (sched.draining() ? "true" : "false")
         << "}\n";
      os.close();
      if (os) std::rename(tmp.c_str(), status_path.c_str());
      last_status_ms = now;
    };

    const auto progress = [&sched, &digests](std::size_t job,
                                             const char* what,
                                             const std::string& extra) {
      std::cout << "[" << sched.settled() << "/" << sched.size() << "] job "
                << job << " " << what << " digest="
                << fleet::digest_hex(digests[job])
                << (extra.empty() ? "" : " ") << extra << '\n';
    };

    while (true) {
      const std::uint64_t now = now_ms();

      // -- signals: first = drain, second = force-quit ---------------------
      if (g_signals_seen > 0 && !sched.draining()) {
        sched.set_draining();
        std::cout << "smtfleetd: drain requested ("
                  << supervisor.live() << " in flight)\n";
        announced_drain = true;
      }
      if (g_signals_seen > 1) {
        std::cout << "smtfleetd: force quit, killing "
                  << supervisor.live() << " workers\n";
        supervisor.kill_all(SIGKILL);
        while (supervisor.live() > 0) {
          for (const fleet::ReapedWorker& r : supervisor.poll()) {
            const std::size_t job = pid_to_job[r.pid];
            cache.discard(pid_to_tmp[r.pid]);
            (void)sched.on_exit(job, r.exit, now);
            fleet::JournalRecord rec = record_of(
                fleet::JournalKind::kRetry, job, sched.job(job).attempts,
                "force quit");
            rec.has_telemetry = true;
            rec.host_ms = now - pid_to_start_ms[r.pid];
            rec.utime_ms = r.utime_ms;
            rec.stime_ms = r.stime_ms;
            rec.maxrss_kb = r.maxrss_kb;
            ++retries_total;
            log_record(rec);
          }
          sleep_ms(1);
        }
        journal.flush();
        write_status(now_ms());
        return kExitCancelled;
      }

      // -- reap finished workers -------------------------------------------
      for (const fleet::ReapedWorker& r : supervisor.poll()) {
        const std::size_t job = pid_to_job[r.pid];
        const std::string tmp = pid_to_tmp[r.pid];
        const std::uint64_t attempt_ms = now - pid_to_start_ms[r.pid];
        pid_to_job.erase(r.pid);
        pid_to_tmp.erase(r.pid);
        pid_to_chaos.erase(r.pid);
        pid_to_start_ms.erase(r.pid);
        // Worker telemetry for the settling journal record: attempt wall
        // time plus the wait4 rusage numbers.
        const auto with_telemetry = [&r, attempt_ms](
                                        fleet::JournalRecord rec) {
          rec.has_telemetry = true;
          rec.host_ms = attempt_ms;
          rec.utime_ms = r.utime_ms;
          rec.stime_ms = r.stime_ms;
          rec.maxrss_kb = r.maxrss_kb;
          return rec;
        };

        const bool was_timeout = timing_out.erase(job) > 0;
        fleet::Outcome outcome;
        std::string how;
        if (was_timeout) {
          outcome = sched.on_timeout(job, now);
          how = "timeout";
        } else {
          outcome = sched.on_exit(job, r.exit, now);
          how = r.exit.signaled ? "signal " + std::to_string(r.exit.status)
                                : "exit " + std::to_string(r.exit.status);
        }

        if (outcome == fleet::Outcome::kAccepted) {
          // Publish only after the integrity cross-check: the document's
          // own run.config_digest must match the job's configuration.
          const std::optional<std::uint64_t> stamped =
              fleet::stats_config_digest(tmp);
          const std::uint64_t expected =
              sim::config_digest(fleet::sim_config_for(batch.jobs[job]));
          if (!stamped || *stamped != expected || !cache.commit(tmp, digests[job])) {
            cache.discard(tmp);
            std::cerr << "smtfleetd: job " << job << " produced a stats "
                      << "document that fails the digest cross-check ("
                      << (stamped ? fleet::digest_str(*stamped) : "absent")
                      << " vs " << fleet::digest_str(expected)
                      << "); check --smtsim\n";
            log_record(record_of(fleet::JournalKind::kFail, job,
                                 sched.job(job).attempts,
                                 "stats digest mismatch"));
            // The scheduler already counted success; rebuild the verdict
            // as a permanent failure by treating the batch as failed.
            // (Reaching here means the worker binary is wrong — every
            // job would fail the same way, so stop early.)
            supervisor.kill_all(SIGKILL);
            journal.flush();
            return kExitBatchFailed;
          }
          progress(job, "done", "(attempt " +
                   std::to_string(sched.job(job).attempts) + ")");
          log_record(with_telemetry(record_of(fleet::JournalKind::kDone, job,
                                              sched.job(job).attempts)));
        } else {
          cache.discard(tmp);
          if (outcome == fleet::Outcome::kRequeued) {
            const std::uint64_t delay = sched.job(job).retry_at_ms - now;
            progress(job, "requeued",
                     "(" + how + "; retry in " + std::to_string(delay) +
                     " ms)");
            ++retries_total;
            log_record(with_telemetry(
                record_of(fleet::JournalKind::kRetry, job,
                          sched.job(job).attempts,
                          how + "; retry in " + std::to_string(delay) +
                          " ms")));
          } else {
            progress(job, "FAILED", "(" + sched.job(job).failure + ")");
            log_record(with_telemetry(
                record_of(fleet::JournalKind::kFail, job,
                          sched.job(job).attempts, sched.job(job).failure)));
          }
        }
      }

      // -- hang detection: kill overdue workers, reap on a later pass ------
      for (const std::size_t job : sched.expired(now)) {
        if (timing_out.count(job) > 0) continue;  // kill already sent
        for (const auto& [pid, jid] : pid_to_job) {
          if (jid == job) {
            timing_out.insert(job);
            std::cout << "smtfleetd: job " << job << " exceeded "
                      << fcfg.timeout_ms << " ms, killing worker " << pid
                      << '\n';
            supervisor.kill_worker(pid, SIGKILL);
            break;
          }
        }
      }

      // -- chaos: fire any due scheduled faults ----------------------------
      for (auto& [pid, action] : pid_to_chaos) {
        if (action.kind == ChaosAction::Kind::kNone || action.fired ||
            now < action.at_ms) {
          continue;
        }
        action.fired = true;
        const std::size_t job = pid_to_job[pid];
        if (action.kind == ChaosAction::Kind::kKill) {
          std::cout << "smtfleetd: chaos SIGKILL worker " << pid << " (job "
                    << job << ")\n";
          supervisor.kill_worker(pid, SIGKILL);
        } else {
          std::cout << "smtfleetd: chaos SIGSTOP worker " << pid << " (job "
                    << job << ")\n";
          supervisor.kill_worker(pid, SIGSTOP);
        }
      }

      // -- start ready jobs -------------------------------------------------
      while (const std::optional<std::size_t> ready = sched.next_ready(now)) {
        const std::size_t job = *ready;
        const std::uint32_t attempt = sched.job(job).attempts + 1;
        const std::string tmp = cache.tmp_path_for(digests[job], attempt);
        std::vector<std::string> worker_argv{smtsim_bin};
        for (std::string& a : fleet::smtsim_args(batch.jobs[job], tmp)) {
          worker_argv.push_back(std::move(a));
        }
        const int pid = supervisor.spawn(worker_argv);
        if (pid < 0) {
          std::cerr << "smtfleetd: fork failed, backing off\n";
          break;
        }
        sched.on_started(job, now);
        pid_to_job[pid] = job;
        pid_to_tmp[pid] = tmp;
        pid_to_start_ms[pid] = now;

        ChaosAction action;
        if (chaos_kill > 0.0 || chaos_stall > 0.0) {
          const double roll = chaos_rng.uniform();
          if (roll < chaos_kill) {
            action.kind = ChaosAction::Kind::kKill;
          } else if (roll < chaos_kill + chaos_stall) {
            action.kind = ChaosAction::Kind::kStall;
          }
          if (action.kind != ChaosAction::Kind::kNone) {
            action.at_ms = now + 1 + chaos_rng.below(chaos_window_ms);
          }
        }
        pid_to_chaos[pid] = action;
        log_record(record_of(fleet::JournalKind::kStart, job, attempt));
        progress(job, "started",
                 "(attempt " + std::to_string(attempt) + ", pid " +
                 std::to_string(pid) + ")");
      }

      // -- status snapshot --------------------------------------------------
      if (!status_path.empty() && now - last_status_ms >= status_interval) {
        write_status(now);
      }

      // -- termination ------------------------------------------------------
      if (sched.all_settled()) break;
      if (sched.draining() && supervisor.live() == 0) break;

      // -- sleep until the next poll / deadline ----------------------------
      std::uint64_t sleep_for = poll_ms_opt;
      if (const std::optional<std::uint64_t> wake = sched.next_wake_ms(now)) {
        sleep_for = std::min(sleep_for, *wake > now ? *wake - now : 1);
      }
      sleep_ms(sleep_for);
    }

    journal.flush();
    write_status(now_ms());
    const int code = sched.batch_exit_code();
    std::size_t done = 0, cached = 0, failed = 0;
    for (std::size_t i = 0; i < sched.size(); ++i) {
      switch (sched.job(i).state) {
        case fleet::JobState::kDone: ++done; break;
        case fleet::JobState::kCached: ++cached; break;
        case fleet::JobState::kFailed: ++failed; break;
        default: break;
      }
    }
    std::cout << "smtfleetd: batch "
              << (code == kExitOk
                      ? "complete"
                      : code == kExitBatchFailed ? "FAILED" : "drained")
              << ": " << done << " run, " << cached << " cached, " << failed
              << " failed, "
              << (sched.size() - done - cached - failed) << " remaining (exit "
              << code << ")\n";
    if (announced_drain && code == kExitOk) {
      // Every job settled before the drain took effect.
      return kExitOk;
    }
    return code;
  } catch (const UsageError& e) {
    std::cerr << "smtfleetd: " << e.what() << "\n\n" << kUsage;
    return kExitUsage;
  } catch (const ConfigError& e) {
    std::cerr << "smtfleetd: " << e.what() << '\n';
    return kExitConfig;
  } catch (const std::exception& e) {
    std::cerr << "smtfleetd: " << e.what() << '\n';
    return kExitConfig;
  }
}
