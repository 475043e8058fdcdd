// Golden per-mix stats-digest harness.
//
// Locks an FNV-1a digest of the canonical --stats-json document for a
// short run of every one of the 13 evaluation mixes, in both fixed-policy
// and ADTS mode. This is the one-test bit-identity signal for hot-path
// work: any change to the simulator that perturbs simulated behaviour —
// instruction streams, pipeline scheduling, counter bookkeeping, stats
// export — moves at least one digest and fails here immediately, without
// waiting for the CI sweep scripts (check_invariants.sh runs the same
// 13-mix identity but only as an end-to-end gate).
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
    {"ctrl8",  0xd90df0eb64643431ULL, 0x145d07b312c5c9d0ULL},
    {"mem8",   0x64505b8c570fc6a4ULL, 0xf522abffc51d6242ULL},
    {"ilp8",   0x27c439ebc23726dfULL, 0xcc09b902e08dcdd6ULL},
    {"cache8", 0x922524a26cf1e4ccULL, 0xfcca9e9693669c5cULL},
    {"bal1",   0x0c33b44d226328adULL, 0xf379e0f8aefd1bbeULL},
    {"bal2",   0xdfcd32c2a96deb97ULL, 0xc3c64482ff0644b6ULL},
    {"bal3",   0x3cbc7a7215b0ffecULL, 0xcf87f4f1acd70f4cULL},
    {"bal4",   0x2790c6f23dbbffb5ULL, 0x69f64482bb12da31ULL},
    {"int8",   0x52475abbe79124ddULL, 0x1eabe11aa8989fbbULL},
    {"span8",  0x1fb1767d31ae0a8eULL, 0xe728fceec78480f5ULL},
    {"fp8",    0xa9ff1624a7c76226ULL, 0x6a9bc9c1cc4aab80ULL},
    {"var1",   0x2df6664147115e1dULL, 0x912ac36eba28d4b2ULL},
    {"var2",   0xe21dd39e34480450ULL, 0x0fbaa12ef0f029a6ULL},
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
