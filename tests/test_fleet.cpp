// Unit tests: the fleet layer (src/fleet/) behind smtfleetd.
//
// The scheduler is a pure state machine fed literal timestamps, so the
// crash / hang / retry / drain behavior the daemon promises is asserted
// here exactly, without processes or clocks. The supervisor tests do
// fork real children — tiny /bin/sh stubs that exit, die by signal or
// hang — because waitpid classification is the one seam a pure test
// cannot reach.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "fleet/job_spec.hpp"
#include "fleet/journal.hpp"
#include "fleet/result_cache.hpp"
#include "fleet/scheduler.hpp"
#include "fleet/supervisor.hpp"

namespace smt::fleet {
namespace {

// ---------------------------------------------------------------------------
// classify_exit: the waitpid-status → retry-policy table.

TEST(ClassifyExit, Table) {
  const auto code = [](int status) {
    return classify_exit(WorkerExit{false, status});
  };
  const auto sig = [](int signo) {
    return classify_exit(WorkerExit{true, signo});
  };
  EXPECT_EQ(code(kExitOk), ExitClass::kSuccess);
  EXPECT_EQ(code(kExitCancelled), ExitClass::kCancelled);
  // Deterministic rejections: retrying replays the same failure.
  EXPECT_EQ(code(kExitUsage), ExitClass::kPermanent);
  EXPECT_EQ(code(kExitConfig), ExitClass::kPermanent);
  EXPECT_EQ(code(kExitCheck), ExitClass::kPermanent);
  EXPECT_EQ(code(127), ExitClass::kPermanent);  // exec failure
  // Anything else is environmental — worth a retry.
  EXPECT_EQ(code(1), ExitClass::kCrash);
  EXPECT_EQ(code(134), ExitClass::kCrash);  // abort() via sh
  EXPECT_EQ(sig(9), ExitClass::kCrash);
  EXPECT_EQ(sig(11), ExitClass::kCrash);
  EXPECT_EQ(sig(15), ExitClass::kCrash);
}

// ---------------------------------------------------------------------------
// FleetScheduler: retry, backoff, timeout, drain, batch verdict.

FleetConfig tight_cfg() {
  FleetConfig cfg;
  cfg.max_workers = 2;
  cfg.max_attempts = 3;
  cfg.timeout_ms = 1000;
  cfg.backoff_base_ms = 100;
  cfg.backoff_cap_ms = 400;
  return cfg;
}

TEST(FleetScheduler, HappyPathSettlesEveryJob) {
  FleetScheduler s(tight_cfg());
  for (int i = 0; i < 3; ++i) (void)s.add_job();

  std::uint64_t now = 10;
  while (!s.all_settled()) {
    while (const auto job = s.next_ready(now)) s.on_started(*job, now);
    // Reap everything currently running as success.
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s.job(i).state == JobState::kRunning) {
        EXPECT_EQ(s.on_exit(i, WorkerExit{false, 0}, now), Outcome::kAccepted);
      }
    }
    now += 5;
  }
  EXPECT_EQ(s.batch_exit_code(), kExitOk);
  EXPECT_EQ(s.failed(), 0u);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s.job(i).state, JobState::kDone);
    EXPECT_EQ(s.job(i).attempts, 1u);
  }
}

TEST(FleetScheduler, CrashRequeuesWithExponentialBackoff) {
  FleetScheduler s(tight_cfg());
  const std::size_t job = s.add_job();

  // Schedule is deterministic: base<<0, base<<1, capped thereafter.
  EXPECT_EQ(s.backoff_ms(1), 100u);
  EXPECT_EQ(s.backoff_ms(2), 200u);
  EXPECT_EQ(s.backoff_ms(3), 400u);
  EXPECT_EQ(s.backoff_ms(10), 400u) << "cap must hold";

  std::uint64_t now = 0;
  s.on_started(job, now);
  EXPECT_EQ(s.on_exit(job, WorkerExit{true, 9}, now), Outcome::kRequeued);
  EXPECT_EQ(s.job(job).state, JobState::kWaitingRetry);
  EXPECT_EQ(s.job(job).retry_at_ms, 100u);

  // Backoff is honored: not ready one tick early, ready on the deadline.
  EXPECT_FALSE(s.next_ready(99).has_value());
  ASSERT_TRUE(s.next_ready(100).has_value());

  now = 100;
  s.on_started(job, now);
  EXPECT_EQ(s.on_exit(job, WorkerExit{true, 9}, now), Outcome::kRequeued);
  EXPECT_EQ(s.job(job).retry_at_ms, 300u) << "second backoff is base<<1";
}

TEST(FleetScheduler, RetryCapSettlesFailedAndFailsTheBatch) {
  FleetScheduler s(tight_cfg());  // max_attempts = 3
  const std::size_t job = s.add_job();
  std::uint64_t now = 0;

  for (int attempt = 1; attempt <= 3; ++attempt) {
    now = s.job(job).retry_at_ms;
    s.on_started(job, now);
    const Outcome out = s.on_exit(job, WorkerExit{true, 11}, now);
    if (attempt < 3) {
      EXPECT_EQ(out, Outcome::kRequeued);
    } else {
      EXPECT_EQ(out, Outcome::kFailed);
    }
  }
  EXPECT_EQ(s.job(job).state, JobState::kFailed);
  EXPECT_EQ(s.job(job).attempts, 3u);
  EXPECT_NE(s.job(job).failure.find("retries exhausted"), std::string::npos)
      << s.job(job).failure;
  EXPECT_TRUE(s.all_settled());
  EXPECT_EQ(s.batch_exit_code(), kExitBatchFailed);
}

TEST(FleetScheduler, PermanentExitFailsWithoutRetry) {
  FleetScheduler s(tight_cfg());
  const std::size_t job = s.add_job();
  s.on_started(job, 0);
  EXPECT_EQ(s.on_exit(job, WorkerExit{false, kExitConfig}, 0),
            Outcome::kFailed);
  EXPECT_EQ(s.job(job).state, JobState::kFailed);
  EXPECT_EQ(s.job(job).attempts, 1u) << "no retry for deterministic failures";
  EXPECT_EQ(s.batch_exit_code(), kExitBatchFailed);
}

TEST(FleetScheduler, TimeoutExpiresAndRequeues) {
  FleetScheduler s(tight_cfg());  // timeout_ms = 1000
  const std::size_t job = s.add_job();
  s.on_started(job, 50);

  EXPECT_TRUE(s.expired(1049).empty());
  const std::vector<std::size_t> late = s.expired(1050);
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late[0], job);

  EXPECT_EQ(s.on_timeout(job, 1050), Outcome::kRequeued);
  EXPECT_EQ(s.job(job).state, JobState::kWaitingRetry);
  EXPECT_EQ(s.job(job).retry_at_ms, 1150u);
}

TEST(FleetScheduler, MaxWorkersAndIndexOrderGoverNextReady) {
  FleetScheduler s(tight_cfg());  // max_workers = 2
  for (int i = 0; i < 4; ++i) (void)s.add_job();

  ASSERT_EQ(s.next_ready(0), std::optional<std::size_t>(0));
  s.on_started(0, 0);
  ASSERT_EQ(s.next_ready(0), std::optional<std::size_t>(1));
  s.on_started(1, 0);
  EXPECT_FALSE(s.next_ready(0).has_value()) << "both worker slots busy";

  (void)s.on_exit(0, WorkerExit{false, 0}, 5);
  ASSERT_EQ(s.next_ready(5), std::optional<std::size_t>(2))
      << "lowest pending index starts next";
}

TEST(FleetScheduler, DrainingStopsNewStartsAndYieldsCancelledExit) {
  FleetScheduler s(tight_cfg());
  for (int i = 0; i < 2; ++i) (void)s.add_job();
  s.on_started(0, 0);
  s.set_draining();
  EXPECT_FALSE(s.next_ready(0).has_value()) << "drain blocks job 1";
  (void)s.on_exit(0, WorkerExit{false, 0}, 5);
  EXPECT_FALSE(s.all_settled());
  EXPECT_EQ(s.batch_exit_code(), kExitCancelled);
}

TEST(FleetScheduler, CachedJobsSettleWithoutRunning) {
  FleetScheduler s(tight_cfg());
  (void)s.add_job();
  (void)s.add_job();
  s.mark_cached(0);
  EXPECT_EQ(s.job(0).state, JobState::kCached);
  ASSERT_EQ(s.next_ready(0), std::optional<std::size_t>(1));
  s.on_started(1, 0);
  (void)s.on_exit(1, WorkerExit{false, 0}, 1);
  EXPECT_TRUE(s.all_settled());
  EXPECT_EQ(s.batch_exit_code(), kExitOk);
}

TEST(FleetScheduler, NextWakeTracksRetriesAndDeadlines) {
  FleetScheduler s(tight_cfg());
  (void)s.add_job();
  (void)s.add_job();
  EXPECT_FALSE(s.next_wake_ms(0).has_value()) << "nothing scheduled yet";

  s.on_started(0, 100);  // deadline 1100
  EXPECT_EQ(s.next_wake_ms(100), std::optional<std::uint64_t>(1100));

  s.on_started(1, 100);
  (void)s.on_exit(1, WorkerExit{true, 9}, 100);  // retry at 200
  EXPECT_EQ(s.next_wake_ms(100), std::optional<std::uint64_t>(200))
      << "soonest of retry deadline and timeout wins";
  EXPECT_EQ(s.next_wake_ms(250), std::optional<std::uint64_t>(250))
      << "past deadlines clamp to now (no sleeping into the past)";
}

// ---------------------------------------------------------------------------
// Journal: round-trip, torn tail, foreign lines.

JournalRecord make_rec(JournalKind kind, std::uint64_t job,
                       std::uint64_t digest, std::uint32_t attempt,
                       std::string detail) {
  JournalRecord rec;
  rec.kind = kind;
  rec.job = job;
  rec.digest = digest;
  rec.attempt = attempt;
  rec.detail = std::move(detail);
  return rec;
}

TEST(Journal, RoundTripsEveryKind) {
  const std::vector<JournalRecord> records = {
      make_rec(JournalKind::kBatch, 4, 0x1122334455667788ull, 0, ""),
      make_rec(JournalKind::kCached, 0, 0xaabbccddeeff0011ull, 0, "cache"),
      make_rec(JournalKind::kStart, 1, 0x2ull, 1, ""),
      make_rec(JournalKind::kRetry, 1, 0x2ull, 1, "signal 9; retry in 250 ms"),
      make_rec(JournalKind::kDone, 1, 0x2ull, 2, ""),
      make_rec(JournalKind::kFail, 2, 0x3ull, 3, "timeout (retries exhausted)"),
  };
  std::stringstream buf;
  for (const JournalRecord& rec : records) write_record(buf, rec);

  const std::vector<JournalRecord> parsed = read_journal(buf);
  ASSERT_EQ(parsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(parsed[i].kind, records[i].kind) << "record " << i;
    EXPECT_EQ(parsed[i].job, records[i].job) << "record " << i;
    EXPECT_EQ(parsed[i].digest, records[i].digest) << "record " << i;
    EXPECT_EQ(parsed[i].attempt, records[i].attempt) << "record " << i;
    EXPECT_EQ(parsed[i].detail, records[i].detail) << "record " << i;
  }
}

TEST(Journal, TelemetryRoundTripsAndStaysOptional) {
  JournalRecord rec = make_rec(JournalKind::kDone, 5, 0xabcull, 2, "");
  rec.has_telemetry = true;
  rec.host_ms = 1234;
  rec.utime_ms = 1000;
  rec.stime_ms = 34;
  rec.maxrss_kb = 20480;
  std::stringstream buf;
  write_record(buf, rec);
  const std::string line = buf.str();
  // The leading field order is load-bearing: recovery tooling greps for
  // kind/job/digest/attempt as a prefix, so telemetry must append.
  EXPECT_EQ(line.rfind("{\"kind\":\"done\",\"job\":5,\"digest\":\"0x", 0), 0u);
  EXPECT_NE(line.find("\"host_ms\":1234"), std::string::npos);

  const std::optional<JournalRecord> parsed =
      parse_record(line.substr(0, line.size() - 1));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->has_telemetry);
  EXPECT_EQ(parsed->host_ms, 1234u);
  EXPECT_EQ(parsed->utime_ms, 1000u);
  EXPECT_EQ(parsed->stime_ms, 34u);
  EXPECT_EQ(parsed->maxrss_kb, 20480u);

  // A record written without telemetry parses as has_telemetry == false.
  std::stringstream plain;
  write_record(plain, make_rec(JournalKind::kDone, 5, 0xabcull, 2, ""));
  const std::optional<JournalRecord> no_tel =
      parse_record(plain.str().substr(0, plain.str().size() - 1));
  ASSERT_TRUE(no_tel.has_value());
  EXPECT_FALSE(no_tel->has_telemetry);
}

TEST(Journal, TornTailLinesAreSkippedNotFatal) {
  // A daemon SIGKILLed mid-write leaves a prefix of a valid line; every
  // truncation of a valid record must parse as "no record".
  std::stringstream full;
  write_record(full,
               make_rec(JournalKind::kDone, 7, 0x31b7bcc7881f67d2ull, 2,
                        "ok"));
  std::string line = full.str();
  ASSERT_EQ(line.back(), '\n');
  line.pop_back();
  ASSERT_TRUE(parse_record(line).has_value()) << "intact line must parse";
  for (std::size_t cut = 0; cut < line.size(); ++cut) {
    EXPECT_FALSE(parse_record(line.substr(0, cut)).has_value())
        << "torn prefix of length " << cut << " parsed as a record";
  }
}

TEST(Journal, ForeignAndBlankLinesAreIgnored) {
  std::stringstream buf;
  buf << "\n"
      << "# not json\n"
      << "{\"kind\":\"no-such-kind\",\"job\":0,\"digest\":\"0x0\",\"attempt\":0}\n"
      << "{\"job\":1,\"digest\":\"0x1\",\"attempt\":1}\n";  // kind missing
  write_record(buf, make_rec(JournalKind::kStart, 3, 0x9ull, 1, ""));
  const std::vector<JournalRecord> parsed = read_journal(buf);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].kind, JournalKind::kStart);
  EXPECT_EQ(parsed[0].job, 3u);
}

TEST(Journal, DetailEscapesQuotesAndNewlines) {
  std::stringstream buf;
  write_record(buf,
               make_rec(JournalKind::kFail, 0, 0x1ull, 1,
                        "said \"no\"\ntwice"));
  const std::string line = buf.str();
  EXPECT_EQ(line.find('\n'), line.size() - 1)
      << "detail newline must be escaped; journal is one record per line";
  ASSERT_TRUE(parse_record(line.substr(0, line.size() - 1)).has_value());
}

// ---------------------------------------------------------------------------
// Batch parsing and the job content address.

BatchSpec parse(const std::string& text) {
  std::istringstream in(text);
  return parse_batch(in);
}

TEST(BatchSpec, GridIsMixBySeedByVariant) {
  const BatchSpec b = parse(
      "# comment\n"
      "cycles 32768\n"
      "warmup 8192\n"
      "mix bal1 mem8\n"
      "seed 1 2\n"
      "policy ICOUNT RR\n"
      "adts 3@2 3p@2.5\n");
  // 2 mixes × 2 seeds × (2 policies + 2 adts variants) = 16 jobs.
  ASSERT_EQ(b.jobs.size(), 16u);
  EXPECT_EQ(b.jobs[0].mix, "bal1");
  EXPECT_EQ(b.jobs[0].seed, 1u);
  EXPECT_FALSE(b.jobs[0].adts);
  EXPECT_EQ(b.jobs[0].cycles, 32768u);
  EXPECT_EQ(b.jobs[0].warmup, 8192u);
  const FleetJob& adts_job = b.jobs[2];
  EXPECT_TRUE(adts_job.adts);
  EXPECT_EQ(adts_job.heuristic_token, "3");
  EXPECT_DOUBLE_EQ(adts_job.threshold, 2.0);
  EXPECT_EQ(b.jobs.back().mix, "mem8");
  EXPECT_EQ(b.jobs.back().seed, 2u);
  EXPECT_EQ(b.jobs.back().heuristic_token, "3p");
}

TEST(BatchSpec, DefaultsApplyWhenDirectivesOmitted) {
  const BatchSpec b = parse("mix bal1\npolicy ICOUNT\n");
  ASSERT_EQ(b.jobs.size(), 1u);
  EXPECT_EQ(b.jobs[0].seed, 2003u) << "paper-year default seed";
  EXPECT_EQ(b.jobs[0].threads, 8u);
  EXPECT_EQ(b.jobs[0].cycles, 262144u);
  EXPECT_EQ(b.jobs[0].warmup, 32768u);
}

TEST(BatchSpec, MalformedInputThrowsConfigError) {
  EXPECT_THROW(parse(""), ConfigError) << "no mix";
  EXPECT_THROW(parse("mix bal1\n"), ConfigError) << "no variant";
  EXPECT_THROW(parse("mix no-such-mix\npolicy ICOUNT\n"), ConfigError);
  EXPECT_THROW(parse("mix bal1\npolicy NOPE\n"), ConfigError);
  EXPECT_THROW(parse("mix bal1\nadts 9@2\n"), ConfigError) << "bad heuristic";
  EXPECT_THROW(parse("mix bal1\nadts 3@0\n"), ConfigError) << "threshold <= 0";
  EXPECT_THROW(parse("mix bal1\nadts 3-2\n"), ConfigError) << "missing @";
  EXPECT_THROW(parse("cycles 1\ncycles 2\nmix bal1\npolicy ICOUNT\n"),
               ConfigError)
      << "duplicate scalar";
  EXPECT_THROW(parse("bogus 1\nmix bal1\npolicy ICOUNT\n"), ConfigError);
  EXPECT_THROW(parse("threads 9\nmix bal1\npolicy ICOUNT\n"), ConfigError);
  EXPECT_THROW(parse("cycles zero\nmix bal1\npolicy ICOUNT\n"), ConfigError);
}

TEST(JobDigest, RunControlFieldsExtendTheConfigDigest) {
  const BatchSpec b = parse("mix bal1\npolicy ICOUNT\n");
  FleetJob job = b.jobs[0];
  const std::uint64_t base = job_digest(job);

  FleetJob longer = job;
  longer.cycles *= 2;
  EXPECT_NE(job_digest(longer), base)
      << "cycles is outside SimConfig but changes the stats document";

  FleetJob warmer = job;
  warmer.warmup += 1;
  EXPECT_NE(job_digest(warmer), base);

  FleetJob reseeded = job;
  reseeded.seed += 1;
  EXPECT_NE(job_digest(reseeded), base);

  EXPECT_EQ(job_digest(job), base) << "digest is a pure function of the job";
}

TEST(JobDigest, BatchDigestIsOrderSensitive) {
  const BatchSpec b = parse("mix bal1 mem8\npolicy ICOUNT\n");
  ASSERT_EQ(b.jobs.size(), 2u);
  BatchSpec swapped = b;
  std::swap(swapped.jobs[0], swapped.jobs[1]);
  EXPECT_NE(batch_digest(b), batch_digest(swapped))
      << "a reordered batch is a different batch (journals must not mix)";
}

TEST(JobDigest, HexSpellingsRoundTrip) {
  const std::uint64_t d = 0x31b7bcc7881f67d2ull;
  EXPECT_EQ(digest_hex(d), "31b7bcc7881f67d2");
  EXPECT_EQ(digest_str(d), "0x31b7bcc7881f67d2");
  EXPECT_EQ(digest_hex(0), "0000000000000000") << "fixed width";
}

TEST(SmtsimArgs, CarriesEveryKnobAndTheStatsPath) {
  const BatchSpec b = parse(
      "mix bal1\nseed 7\ncycles 1024\nwarmup 256\nquantum 4096\n"
      "adts 3p@2.5\n");
  const std::vector<std::string> args = smtsim_args(b.jobs[0], "/tmp/out.json");
  const auto has = [&args](const std::string& s) {
    for (const std::string& a : args) {
      if (a == s) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("--mix") && has("bal1"));
  EXPECT_TRUE(has("--seed") && has("7"));
  EXPECT_TRUE(has("--cycles") && has("1024"));
  EXPECT_TRUE(has("--warmup") && has("256"));
  EXPECT_TRUE(has("--adts"));
  EXPECT_TRUE(has("--heuristic") && has("3p"));
  EXPECT_TRUE(has("--threshold") && has("2.5"));
  EXPECT_TRUE(has("--quantum") && has("4096"));
  EXPECT_TRUE(has("--stats-json") && has("/tmp/out.json"));
  // The degradation guard is gone: its directive is a config error
  // (exit 3), not a silently ignored knob.
  EXPECT_THROW(parse("mix bal1\nguard on\nadts 3@2\n"), ConfigError);
}

// ---------------------------------------------------------------------------
// Result cache: atomic publication and the integrity cross-check.

// A scratch cache directory wiped up front: gtest's TempDir survives
// across runs, and a leftover entry would fail the pre-commit asserts.
std::string fresh_cache_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ResultCache, CommitPublishesAtomicallyAndDiscardCleansUp) {
  const std::string dir = fresh_cache_dir("fleet_cache_test");
  ResultCache cache(dir);
  const std::uint64_t digest = 0x0123456789abcdefull;
  EXPECT_FALSE(cache.contains(digest));

  const std::string tmp = cache.tmp_path_for(digest, 1);
  {
    std::ofstream out(tmp);
    out << "{\"run\":{\"config_digest\":\"0x0123456789abcdef\"}}\n";
  }
  EXPECT_FALSE(cache.contains(digest)) << "tmp files are not entries";
  ASSERT_TRUE(cache.commit(tmp, digest));
  EXPECT_TRUE(cache.contains(digest));
  EXPECT_FALSE(std::ifstream(tmp).good()) << "tmp renamed away, not copied";

  // Committing a missing tmp reports failure instead of corrupting.
  EXPECT_FALSE(cache.commit(cache.tmp_path_for(digest, 2), digest));

  const std::string tmp3 = cache.tmp_path_for(digest, 3);
  { std::ofstream out(tmp3); out << "partial"; }
  cache.discard(tmp3);
  EXPECT_FALSE(std::ifstream(tmp3).good());
}

TEST(ResultCache, StatsConfigDigestReadsTheEmbeddedValue) {
  const std::string dir = fresh_cache_dir("fleet_cache_digest");
  ResultCache cache(dir);
  const std::string good = dir + "/good.json";
  {
    std::ofstream out(good);
    out << "{\n  \"run\":{\"config_digest\":\"0x31b7bcc7881f67d2\","
        << "\"cycles\":123}\n}\n";
  }
  EXPECT_EQ(stats_config_digest(good),
            std::optional<std::uint64_t>(0x31b7bcc7881f67d2ull));

  const std::string bad = dir + "/bad.json";
  { std::ofstream out(bad); out << "{\"run\":{}}\n"; }
  EXPECT_FALSE(stats_config_digest(bad).has_value());
  EXPECT_FALSE(stats_config_digest(dir + "/absent.json").has_value());
}

// ---------------------------------------------------------------------------
// WorkerSupervisor: real children, one per exit class.

std::vector<std::string> sh(const std::string& script) {
  return {"/bin/sh", "-c", script};
}

// Reap until the supervisor has no live children (bounded wait).
std::vector<ReapedWorker> drain(WorkerSupervisor& sup) {
  std::vector<ReapedWorker> all;
  for (int spins = 0; sup.live() > 0 && spins < 5000; ++spins) {
    for (ReapedWorker& r : sup.poll()) all.push_back(r);
    if (sup.live() > 0) ::usleep(2000);
  }
  return all;
}

TEST(WorkerSupervisor, ReapsExitCodesAndSignalsDistinctly) {
  WorkerSupervisor sup;
  const int ok = sup.spawn(sh("exit 0"));
  const int crash = sup.spawn(sh("exit 7"));
  const int killed = sup.spawn(sh("kill -9 $$"));
  ASSERT_GT(ok, 0);
  ASSERT_GT(crash, 0);
  ASSERT_GT(killed, 0);
  EXPECT_EQ(sup.live(), 3u);

  const std::vector<ReapedWorker> reaped = drain(sup);
  ASSERT_EQ(reaped.size(), 3u);
  EXPECT_EQ(sup.live(), 0u);
  for (const ReapedWorker& r : reaped) {
    if (r.pid == ok) {
      EXPECT_FALSE(r.exit.signaled);
      EXPECT_EQ(r.exit.status, 0);
      EXPECT_EQ(classify_exit(r.exit), ExitClass::kSuccess);
    } else if (r.pid == crash) {
      EXPECT_FALSE(r.exit.signaled);
      EXPECT_EQ(r.exit.status, 7);
      EXPECT_EQ(classify_exit(r.exit), ExitClass::kCrash);
    } else if (r.pid == killed) {
      EXPECT_TRUE(r.exit.signaled);
      EXPECT_EQ(r.exit.status, 9);
      EXPECT_EQ(classify_exit(r.exit), ExitClass::kCrash);
    } else {
      ADD_FAILURE() << "unexpected pid " << r.pid;
    }
  }
}

TEST(WorkerSupervisor, ExecFailureSurfacesAs127) {
  WorkerSupervisor sup;
  ASSERT_GT(sup.spawn({"/no/such/binary/anywhere"}), 0);
  const std::vector<ReapedWorker> reaped = drain(sup);
  ASSERT_EQ(reaped.size(), 1u);
  EXPECT_FALSE(reaped[0].exit.signaled);
  EXPECT_EQ(reaped[0].exit.status, 127);
  EXPECT_EQ(classify_exit(reaped[0].exit), ExitClass::kPermanent)
      << "a missing worker binary must not be retried";
}

TEST(WorkerSupervisor, KillWorkerTerminatesAHangingChild) {
  // The daemon's hang-detection path: a child that would outlive any
  // timeout is killed explicitly and reaps as signaled. `exec` matters:
  // /bin/sh may otherwise fork the sleep, and SIGKILLing the shell
  // would orphan a grandchild that keeps the test's stderr pipe (and
  // therefore ctest) open for the sleep's full duration.
  WorkerSupervisor sup;
  const int pid = sup.spawn(sh("exec sleep 600"));
  ASSERT_GT(pid, 0);
  EXPECT_FALSE(sup.kill_worker(pid + 999999, SIGKILL))
      << "foreign pids are refused";
  EXPECT_TRUE(sup.kill_worker(pid, SIGKILL));
  const std::vector<ReapedWorker> reaped = drain(sup);
  ASSERT_EQ(reaped.size(), 1u);
  EXPECT_TRUE(reaped[0].exit.signaled);
  EXPECT_EQ(reaped[0].exit.status, SIGKILL);
}

TEST(WorkerSupervisor, KillAllSweepsEveryLiveChild) {
  WorkerSupervisor sup;
  for (int i = 0; i < 3; ++i) ASSERT_GT(sup.spawn(sh("exec sleep 600")), 0);
  EXPECT_EQ(sup.live(), 3u);
  sup.kill_all(SIGKILL);
  const std::vector<ReapedWorker> reaped = drain(sup);
  EXPECT_EQ(reaped.size(), 3u);
  EXPECT_EQ(sup.live(), 0u);
}

}  // namespace
}  // namespace smt::fleet
