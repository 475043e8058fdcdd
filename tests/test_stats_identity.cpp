// Golden per-mix stats-digest harness.
//
// Locks an FNV-1a digest of the canonical --stats-json document for a
// short run of every one of the 13 evaluation mixes, in both fixed-policy
// and ADTS mode. This is the one-test bit-identity signal for hot-path
// work: any change to the simulator that perturbs simulated behaviour —
// instruction streams, pipeline scheduling, counter bookkeeping, stats
// export — moves at least one digest and fails here immediately.
//
// The digest covers the full exported metrics document minus the
// build/host provenance keys (the same volatile set run_bench_suite.sh
// strips): those identify the binary and the machine, not the simulated
// run, and would make the goldens move on every commit.
//
// Regenerating the table (ONLY when a behaviour change is deliberate):
//   SMT_PRINT_STATS_DIGESTS=1 ./tests/test_stats_identity
//       (--gtest_filter=StatsIdentity.GoldenDigests)
// and paste the printed rows over kGolden below, noting the change in the
// commit message — a moved digest is a simulated-behaviour change, never
// a refactor detail.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "common/build_info.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "workload/mix.hpp"

namespace smt::sim {
namespace {

constexpr std::uint64_t kWarmupCycles = 4096;
constexpr std::uint64_t kMeasuredCycles = 24576;
constexpr std::uint64_t kSeed = 2003;

/// Volatile provenance keys: build- and host-identity, not run identity.
/// Mirrors the strip list in run_bench_suite.sh plus run.version (which
/// tracks the release, not the simulated behaviour).
constexpr const char* kVolatileKeys[] = {
    "run.version",   "run.git_sha",    "run.compiler", "run.flags",
    "run.host_cpu",  "run.host_cores", "run.smt_jobs",
};

std::uint64_t canonical_stats_digest(const std::string& mix_name,
                                     bool use_adts) {
  SimConfig cfg = make_config(workload::mix(mix_name), 8, kSeed);
  cfg.use_adts = use_adts;
  Simulator sim(cfg);
  sim.run(kWarmupCycles + kMeasuredCycles);

  obs::MetricsRegistry reg;
  sim.export_metrics(reg);
  for (const char* key : kVolatileKeys) reg.erase(key);

  std::ostringstream os;
  reg.write_json(os);
  const std::string doc = os.str();

  Fnv1a h;
  h.mix_bytes(doc.data(), doc.size());
  return h.digest();
}

struct Golden {
  const char* mix;
  std::uint64_t fixed_digest;
  std::uint64_t adts_digest;
};

// One row per mix, fixed-ICOUNT and ADTS (default heuristic/threshold/
// quantum), 8 threads, seed 2003, 4096 warmup + 24576 measured cycles.
constexpr Golden kGolden[] = {
    // clang-format off
    {"ctrl8",  0x7c530dbf87e71916ULL, 0xed2f544f1a302ed9ULL},
    {"mem8",   0xc35c70415123e5afULL, 0x7fabb087891b6719ULL},
    {"ilp8",   0x7b2ac426bfded691ULL, 0x1aea173811034201ULL},
    {"cache8", 0xa79eddd615ff638bULL, 0x27b78faf1311108fULL},
    {"bal1",   0x92a60498bf4f81f7ULL, 0xb3c691ba3adae7d9ULL},
    {"bal2",   0x41f4125ec512ce01ULL, 0xb7cc6e63be3b6795ULL},
    {"bal3",   0x42ed903dbcb997b8ULL, 0xd10fe605e56d5074ULL},
    {"bal4",   0x99c7774b1efdcf86ULL, 0xef6a18f48b20c2a6ULL},
    {"int8",   0x15cdafd932b02a4dULL, 0xfe897771874ae9b0ULL},
    {"span8",  0x947c2f1e305eb904ULL, 0x90ad39c95e94f883ULL},
    {"fp8",    0x2f6dd0ba36fff94aULL, 0x78bba79758ef29c8ULL},
    {"var1",   0x3dd96d0d2580aef7ULL, 0xe1085ecf8eb37d98ULL},
    {"var2",   0x45288b20f94581ffULL, 0x9d48fe8b472ff21cULL},
    // clang-format on
};

TEST(StatsIdentity, GoldenDigests) {
  const bool print = std::getenv("SMT_PRINT_STATS_DIGESTS") != nullptr;
  const auto& mixes = workload::all_mixes();
  ASSERT_EQ(mixes.size(), 13u) << "mix set changed; regenerate the table";

  if (print) {
    for (const auto& m : mixes) {
      std::printf("    {\"%s\", 0x%016llxULL, 0x%016llxULL},\n",
                  m.name.c_str(),
                  static_cast<unsigned long long>(
                      canonical_stats_digest(m.name, false)),
                  static_cast<unsigned long long>(
                      canonical_stats_digest(m.name, true)));
    }
    GTEST_SKIP() << "printed fresh digest table (SMT_PRINT_STATS_DIGESTS)";
  }

  ASSERT_EQ(std::size(kGolden), mixes.size())
      << "golden table out of sync with the mix set";
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    EXPECT_EQ(kGolden[i].mix, mixes[i].name) << "mix order changed";
    EXPECT_EQ(kGolden[i].fixed_digest,
              canonical_stats_digest(mixes[i].name, false))
        << "fixed-policy stats changed for mix " << mixes[i].name;
    EXPECT_EQ(kGolden[i].adts_digest,
              canonical_stats_digest(mixes[i].name, true))
        << "ADTS stats changed for mix " << mixes[i].name;
  }
}

// The digest must ignore exactly the volatile keys: a run with provenance
// stripped hashes the same on any host/build, and the stripping itself
// must not remove run-identity keys (seed, config digest).
TEST(StatsIdentity, VolatileKeysAreStripped) {
  SimConfig cfg = make_config(workload::mix("ilp8"), 8, kSeed);
  Simulator sim(cfg);
  sim.run(1024);
  obs::MetricsRegistry reg;
  sim.export_metrics(reg);
  for (const char* key : kVolatileKeys) {
    EXPECT_TRUE(reg.erase(key)) << key << " missing from export";
  }
  EXPECT_TRUE(reg.find("run.seed").has_value());
  EXPECT_TRUE(reg.find("run.config_digest").has_value());
}

}  // namespace
}  // namespace smt::sim
