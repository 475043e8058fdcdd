// Unit tests: the grid runner (src/sim/grid.*) behind `smtsim --grid`.
//
// The grammar and the job content address are pure functions, tested on
// literal grid text. The runner tests publish real documents into
// temporary directories and compare them byte for byte; GridCli spawns the
// built smtsim to pin the exit-code contract of malformed grid files, and
// OptionTable walks smtsim's option table (smtsim_cli) against it.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
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

TEST(BatchSpec, QuantumNeedsAnAdtsVariant) {
  // Only ADTS jobs have quanta: in a grid of fixed policies the directive
  // would change no job's digest or document, so it is rejected once the
  // whole file has been read, wherever the variants appear.
  EXPECT_THROW(parse("quantum 1024\nmix bal1\npolicy ICOUNT RR\n"),
               ConfigError);
  EXPECT_THROW(parse("mix bal1\npolicy ICOUNT\nquantum 1024\n"), ConfigError);
  for (const char* text : {"quantum 1024\nmix bal1\npolicy ICOUNT\nadts 3@2\n",
                           "mix bal1\nadts 3@2\nquantum 1024\n"}) {
    const BatchSpec b = parse(text);
    ASSERT_FALSE(b.jobs.empty()) << text;
    for (const GridJob& j : b.jobs) EXPECT_EQ(j.quantum, 1024u) << text;
  }
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

/// The bytes of the file at `path`.
std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// Every file under `dir` by relative path, with its bytes.
std::map<std::string, std::string> read_dir(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    files[std::filesystem::relative(entry.path(), dir).string()] =
        slurp(entry.path());
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
      "quantum 1024\nmix bal1\npolicy ICOUNT\n",  // no job has quanta
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

// ---------------------------------------------------------------------------
// smtsim's option table, walked row by row against the built smtsim.

/// An smtsim command line as (option, value) pairs; a flag's value is "".
using Args = std::vector<std::pair<std::string, std::string>>;

/// What one smtsim run left behind: exit code, stdout, and every file it
/// wrote into its (fresh, initially empty) working directory.
struct Outcome {
  int exit = -1;
  std::string out;
  std::map<std::string, std::string> files;
  bool operator==(const Outcome&) const = default;
};

std::string spell(const Args& args) {
  std::string s;
  for (const auto& [key, value] : args) {
    s += " --" + key + (value.empty() ? "" : " " + value);
  }
  return s;
}

/// Run smtsim with `args` in the fresh directory `name`.
Outcome run_smtsim(const std::string& name, const Args& args) {
  const std::string dir = fresh_dir(name);
  std::filesystem::create_directories(dir);
  std::string cmd = "cd '" + dir + "' && " + SMTSIM_BIN;
  for (const auto& [key, value] : args) {
    cmd += " '--" + key + "'" + (value.empty() ? "" : " '" + value + "'");
  }
  cmd += " > ../" + name + ".stdout 2>/dev/null";
  const int status = std::system(cmd.c_str());
  Outcome o;
  o.exit = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  o.out = slurp(dir + "/../" + name + ".stdout");
  o.files = read_dir(dir);
  return o;
}

bool has(const Args& args, const std::string& key) {
  return std::any_of(args.begin(), args.end(),
                     [&key](const auto& kv) { return kv.first == key; });
}

Args without(Args args, const std::vector<std::string>& keys) {
  std::erase_if(args, [&keys](const auto& kv) {
    return std::find(keys.begin(), keys.end(), kv.first) != keys.end();
  });
  return args;
}

/// Whether `args` meet one of `needs` (a "!x" need by lacking --x).
bool needs_met(const Args& args, const std::vector<std::string>& needs) {
  return needs.empty() ||
         std::any_of(needs.begin(), needs.end(), [&args](const auto& k) {
           return k.starts_with('!') ? !has(args, k.substr(1)) : has(args, k);
         });
}

struct ModeBase {
  unsigned mode;
  std::string name;
  Args args;
};

// Per-process names: ctest runs the two walks side by side.
const std::string kGridFile =
    testing::TempDir() + "option_table." + std::to_string(getpid()) + ".grid";
const std::string kGridFile2 =
    testing::TempDir() + "option_table2." + std::to_string(getpid()) + ".grid";

/// Each mode's short base run, on configs where every knob shows: mem8
/// with a 1024-cycle quantum switches policies, and the fixed and ADTS
/// runs write a stats document for --cpi and --prof to change.
std::vector<ModeBase> mode_bases() {
  { std::ofstream(kGridFile) << "cycles 4096\nwarmup 1024\nmix mem8\n"
                                "policy ICOUNT\n"; }
  { std::ofstream(kGridFile2) << "cycles 4096\nwarmup 1024\nmix ctrl8\n"
                                 "adts 4@1\n"; }
  return {
      {kFixedRun, "fixed",
       {{"mix", "mem8"}, {"cycles", "4096"}, {"warmup", "1024"},
        {"stats-json", "s.json"}}},
      {kAdtsRun, "adts",
       {{"adts", ""}, {"mix", "mem8"}, {"quantum", "1024"}, {"cycles", "8192"},
        {"warmup", "1024"}, {"stats-json", "s.json"}}},
      {kOracleRun, "oracle",
       {{"oracle", ""}, {"mix", "bal1"}, {"quanta", "2"}, {"quantum", "1024"},
        {"warmup", "1024"}}},
      {kGridRun, "grid", {{"grid", kGridFile}, {"out", "out"}}},
  };
}

/// A non-default value for every row of the table (a flag's is "").
std::string sample_value(const std::string& option) {
  const std::map<std::string, std::string> values = {
      {"mix", "ctrl8"},          {"apps", "gzip,mcf,swim"},
      {"threads", "4"},          {"seed", "7"},
      {"policy", "BRCOUNT"},     {"warmup", "512"},
      {"quantum", "2048"},       {"cycles", "2048"},
      {"trace", "t.jsonl"},      {"pipeview", "8@1024"},
      {"stats-json", "x.json"},  {"prof-stride", "1"},
      {"prof-folded", "p.folded"}, {"heuristic", "4"},
      {"threshold", "0.5"},      {"quanta", "3"},
      {"grid", kGridFile2},      {"out", "out2"},
      {"jobs", "2"},
  };
  const auto it = values.find(option);
  return it == values.end() ? "" : it->second;
}

/// smtsim picks its mode from these: added to a fixed run, each names
/// its own mode's run rather than a fixed run with an extra option.
bool picks_mode(const std::string& option) {
  return option == "adts" || option == "oracle" || option == "grid" ||
         option == "out";
}

TEST(OptionTable, ApplicableOptionsChangeTheOutput) {
  for (const ModeBase& base : mode_bases()) {
    for (const CliOption& o : smtsim_cli().options) {
      if ((o.modes & base.mode) == 0) continue;
      const std::string value = sample_value(o.name);
      ASSERT_TRUE(o.value.empty() || !value.empty())
          << "--" << o.name << " needs a sample value in this test";
      // A valued option of the base run changes value; any other option
      // is compared with its absence, its exclusions dropped and one of
      // its needs supplied.
      Args control = base.args;
      Args variant;
      if (has(base.args, o.name) && !o.value.empty()) {
        variant = without(base.args, {o.name});
      } else {
        control = without(base.args, o.excludes);
        control = without(control, {o.name});
        if (!needs_met(control, o.needs)) {
          control.emplace_back(o.needs.front(), sample_value(o.needs.front()));
        }
        variant = control;
      }
      variant.emplace_back(o.name, value);
      const Outcome a = run_smtsim("option_applies", control);
      const Outcome b = run_smtsim("option_applies", variant);
      EXPECT_EQ(b.exit, kExitOk) << base.name << ":" << spell(variant);
      if (o.output_neutral) {
        EXPECT_EQ(a, b) << base.name << ": --" << o.name << " is marked "
                        << "output-neutral:" << spell(variant);
      } else {
        EXPECT_NE(a, b) << base.name << ": --" << o.name << " changed "
                        << "nothing:" << spell(variant);
      }
    }
  }
}

TEST(OptionTable, DependenciesAndRepeatsAreUsageErrors) {
  // Each of these once ran while ignoring one of its options (or, for
  // --pipeview without --trace, exited 3).
  for (const char* args :
       {"--prof-stride 1", "--apps gzip,mcf --mix mem8",
        "--apps gzip,mcf --threads 2", "--mix bal1 --mix mem8",
        "--pipeview 8@0", "--adts=false", "--cpi", "--cpi --csv",
        "--prof --csv", "--adts --prof --csv"}) {
    EXPECT_EQ(smtsim_exit(std::string("--cycles 1024 --warmup 0 ") + args),
              kExitUsage)
        << args;
  }
}

TEST(OptionTable, ProfUnderCsvNeedsAProfileSink) {
  // --csv replaces the report and its profile line, so a --prof run
  // under --csv must write --stats-json or --prof-folded.
  for (const ModeBase& base : mode_bases()) {
    if (base.mode == kGridRun) continue;
    Args args = without(base.args, {"stats-json"});
    args.emplace_back("csv", "");
    args.emplace_back("prof", "");
    const Outcome r = run_smtsim("prof_csv", args);
    EXPECT_EQ(r.exit, kExitUsage) << base.name << ":" << spell(args);
    EXPECT_TRUE(r.files.empty()) << base.name << ":" << spell(args);
    args.emplace_back("prof-folded", "p.folded");
    EXPECT_EQ(run_smtsim("prof_csv", args).exit, kExitOk)
        << base.name << ":" << spell(args);
  }
}

TEST(OptionTable, OtherModesExitTwoAndWriteNothing) {
  for (const ModeBase& base : mode_bases()) {
    for (const CliOption& o : smtsim_cli().options) {
      if ((o.modes & base.mode) != 0) continue;
      if (base.mode == kFixedRun && picks_mode(o.name)) continue;
      Args args = base.args;
      if (!needs_met(args, o.needs)) {
        args.emplace_back(o.needs.front(), sample_value(o.needs.front()));
      }
      args.emplace_back(o.name, sample_value(o.name));
      const Outcome r = run_smtsim("option_misplaced", args);
      EXPECT_EQ(r.exit, kExitUsage) << base.name << ":" << spell(args);
      EXPECT_TRUE(r.files.empty()) << base.name << ":" << spell(args);
    }
  }
}

}  // namespace
}  // namespace smt::sim
