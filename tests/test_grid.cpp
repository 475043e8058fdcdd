// Unit tests: the grid runner (src/sim/grid.*) behind `smtsim --grid`.
//
// The grammar and the job content address are pure functions, tested on
// literal grid text. The runner tests publish real documents into
// temporary directories and compare them byte for byte; GridCli spawns the
// built smtsim to pin the exit-code contract of malformed grid files.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "core/heuristics.hpp"
#include "sim/grid.hpp"

namespace smt::sim {
namespace {

BatchSpec parse(const std::string& text) {
  std::istringstream in(text);
  return parse_batch(in);
}

// ---------------------------------------------------------------------------
// Grid parsing and the job content address.

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
  const GridJob& adts_job = b.jobs[2];
  EXPECT_TRUE(adts_job.adts);
  EXPECT_EQ(adts_job.heuristic, core::HeuristicType::kType3);
  EXPECT_DOUBLE_EQ(adts_job.threshold, 2.0);
  EXPECT_EQ(b.jobs.back().mix, "mem8");
  EXPECT_EQ(b.jobs.back().seed, 2u);
  EXPECT_EQ(b.jobs.back().heuristic, core::HeuristicType::kType3Prime);
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
  // A sign must not wrap to 2^64-1 cycles, and nan is not a threshold.
  EXPECT_THROW(parse("cycles -1\nmix bal1\npolicy ICOUNT\n"), ConfigError);
  EXPECT_THROW(parse("seed -5\nmix bal1\npolicy ICOUNT\n"), ConfigError);
  EXPECT_THROW(parse("mix bal1\nadts 3@nan\n"), ConfigError);
  EXPECT_THROW(parse("mix bal1\nadts 3@inf\n"), ConfigError);
  // The degradation guard is gone: its directive is a config error
  // (exit 3), not a silently ignored knob.
  EXPECT_THROW(parse("mix bal1\nguard on\nadts 3@2\n"), ConfigError);
}

TEST(JobDigest, RunControlFieldsExtendTheConfigDigest) {
  const BatchSpec b = parse("mix bal1\npolicy ICOUNT\n");
  GridJob job = b.jobs[0];
  const std::uint64_t base = job_digest(job);

  GridJob longer = job;
  longer.cycles *= 2;
  EXPECT_NE(job_digest(longer), base)
      << "cycles is outside SimConfig but changes the stats document";

  GridJob warmer = job;
  warmer.warmup += 1;
  EXPECT_NE(job_digest(warmer), base);

  GridJob reseeded = job;
  reseeded.seed += 1;
  EXPECT_NE(job_digest(reseeded), base);

  EXPECT_EQ(job_digest(job), base) << "digest is a pure function of the job";
}

TEST(JobDigest, HexSpellingsRoundTrip) {
  const std::uint64_t d = 0x31b7bcc7881f67d2ull;
  EXPECT_EQ(digest_hex(d), "31b7bcc7881f67d2");
  EXPECT_EQ(digest_hex(0), "0000000000000000") << "fixed width";
}

// ---------------------------------------------------------------------------
// The runner: publication, resume and pooled-vs-serial identity.

// Short jobs over two mixes, both scheduling modes: 6 cells, since the
// repeated ICOUNT spells jobs the runner must run only once.
constexpr const char* kSmallGrid =
    "cycles 4096\n"
    "warmup 1024\n"
    "threads 4\n"
    "quantum 1024\n"
    "mix bal1 mem8\n"
    "policy ICOUNT BRCOUNT ICOUNT\n"
    "adts 3@2\n";

// A test directory wiped up front: gtest's TempDir survives across
// runs, and a leftover document would turn a run into a cache hit.
std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Every file of `dir` by name, with its bytes.
std::map<std::string, std::string> read_dir(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  return files;
}

/// Plan and run a grid; returns the statuses in grid order.
std::vector<GridCell::Status> run(const std::string& text,
                                  const std::string& dir, std::size_t jobs) {
  std::vector<GridCell> cells = plan_grid(parse(text), dir);
  std::vector<int> reports(cells.size(), 0);
  run_grid(cells, dir, jobs, [&cells, &reports](const GridCell& cell) {
    ++reports[static_cast<std::size_t>(&cell - cells.data())];
  });
  std::vector<GridCell::Status> statuses;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(reports[i], 1) << "cell " << i << " settled once";
    statuses.push_back(cells[i].status);
  }
  return statuses;
}

TEST(GridRunner, PooledAndSerialRunsPublishIdenticalDocuments) {
  const std::string serial = fresh_dir("grid_serial");
  const std::string pooled = fresh_dir("grid_pooled");
  const std::vector<GridCell::Status> all_ran(6, GridCell::Status::kRan);
  EXPECT_EQ(run(kSmallGrid, serial, 1), all_ran);
  EXPECT_EQ(run(kSmallGrid, pooled, 2), all_ran);

  const auto a = read_dir(serial);
  const auto b = read_dir(pooled);
  ASSERT_EQ(a.size(), 6u) << "one document per distinct job, no temp files";
  EXPECT_EQ(a, b);
  for (const GridJob& job : parse(kSmallGrid).jobs) {
    EXPECT_EQ(a.count(digest_hex(job_digest(job)) + ".json"), 1u);
  }
}

TEST(GridRunner, RerunSkipsPublishedJobsAndIgnoresTempFiles) {
  const std::string dir = fresh_dir("grid_resume");
  (void)run(kSmallGrid, dir, 2);
  const auto complete = read_dir(dir);

  // A killed run: one document never published, its temp file torn.
  const GridJob lost = parse(kSmallGrid).jobs[5];
  const std::string doc = result_path(dir, job_digest(lost));
  std::filesystem::remove(doc);
  { std::ofstream(doc + ".tmp") << "{\"torn"; }

  const std::vector<GridCell::Status> statuses = run(kSmallGrid, dir, 2);
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    EXPECT_EQ(statuses[i], i == 4 ? GridCell::Status::kRan
                                  : GridCell::Status::kCached)
        << "cell " << i;
  }
  EXPECT_EQ(read_dir(dir), complete) << "resumed = uninterrupted, temp gone";
}

// ---------------------------------------------------------------------------
// smtsim's exit-code contract for grid files.

/// Exit code of the built smtsim with `args` (output discarded).
int smtsim_exit(const std::string& args) {
  const std::string cmd =
      std::string(SMTSIM_BIN) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(GridCli, MalformedGridLinesAreConfigErrors) {
  const std::string dir = fresh_dir("grid_cli");
  std::filesystem::create_directories(dir);
  // The grammar's error cases are BatchSpec's; these pin the exit code.
  const std::vector<std::string> malformed = {
      "mix bal1\npolicy ICOUNT\nbogus 1\n",  // unknown directive
      "mix bal1\nadts 3-2\n",                // variant without '@'
      "cycles -1\nmix bal1\npolicy ICOUNT\n",  // would wrap to 2^64-1
      "mix bal1\nadts 3@nan\n",              // non-finite threshold
  };
  for (std::size_t i = 0; i < malformed.size(); ++i) {
    const std::string grid = dir + "/bad" + std::to_string(i) + ".grid";
    { std::ofstream(grid) << malformed[i]; }
    const std::string out = dir + "/out" + std::to_string(i);
    EXPECT_EQ(smtsim_exit("--grid " + grid + " --out " + out), kExitConfig)
        << malformed[i];
    EXPECT_FALSE(std::filesystem::exists(out)) << "nothing published";
  }
  EXPECT_EQ(smtsim_exit("--grid " + dir + "/absent.grid --out " + dir),
            kExitConfig);
  // --grid and --out go together, and the grid file owns every run knob.
  EXPECT_EQ(smtsim_exit("--grid " + dir + "/bad0.grid"), kExitUsage);
  EXPECT_EQ(smtsim_exit("--out " + dir), kExitUsage);
  EXPECT_EQ(smtsim_exit("--grid " + dir + "/bad0.grid --out " + dir +
                        " --mix bal1"),
            kExitUsage);
  // The same numbers as flags are usage errors, rejected before any run.
  EXPECT_EQ(smtsim_exit("--mix ilp8 --cycles -1"), kExitUsage);
  EXPECT_EQ(smtsim_exit("--adts --threshold nan"), kExitUsage);
}

}  // namespace
}  // namespace smt::sim
