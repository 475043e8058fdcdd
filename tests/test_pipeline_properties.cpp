// Property-style parameterized tests over the pipeline: invariants that
// must hold for every (mix, policy, machine-shape) combination.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "pipeline/pipeline.hpp"
#include "workload/app_profile.hpp"
#include "workload/mix.hpp"

namespace smt::pipeline {
namespace {

Pipeline make_mix(const char* mix_name, std::size_t threads,
                  PipelineConfig cfg = PipelineConfig{},
                  std::uint64_t seed = 17) {
  const auto apps =
      workload::mix_for_threads(workload::mix(mix_name), threads, seed);
  std::vector<workload::ThreadProgram> ps;
  std::uint32_t tid = 0;
  for (const auto& a : apps) {
    ps.emplace_back(workload::profile(a), tid++, seed);
  }
  return Pipeline(cfg, std::move(ps));
}

// ---------------------------------------------------------------------------
// Property: for every mix and policy, a medium run keeps all incremental
// counters consistent with ground truth, commits monotonically, and stays
// within structural bounds. The mix is held as a std::string, not a
// const char*: gtest prints a pointer inside a tuple by address, which
// would make the listed test names differ from one process to the next.
// ---------------------------------------------------------------------------
class MixPolicyProperty
    : public ::testing::TestWithParam<
          std::tuple<std::string, policy::FetchPolicy>> {};

TEST_P(MixPolicyProperty, CountersConsistentAndBounded) {
  const auto& [mix_name, pol] = GetParam();
  Pipeline p = make_mix(mix_name.c_str(), 8);
  p.set_policy(pol);
  std::uint64_t prev_committed = 0;
  for (int chunk = 0; chunk < 8; ++chunk) {
    p.run(1500);
    ASSERT_TRUE(p.check_counter_invariants())
        << workload::mix(mix_name).name << "/" << name(pol) << " cycle "
        << p.now();
    ASSERT_GE(p.committed_total(), prev_committed);
    prev_committed = p.committed_total();
    for (std::uint32_t t = 0; t < p.num_threads(); ++t) {
      const ThreadCounters& c = p.counters(t);
      ASSERT_GE(c.icount, 0);
      ASSERT_GE(c.brcount, 0);
      ASSERT_GE(c.ldcount, 0);
      ASSERT_GE(c.memcount, c.ldcount) << "memcount includes loads";
      ASSERT_GE(c.l1d_outstanding, 0);
      ASSERT_LE(c.l1i_outstanding, 1);
    }
  }
  EXPECT_GT(p.committed_total(), 200u)
      << "every policy must keep the machine alive";
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesKeyMixes, MixPolicyProperty,
    ::testing::Combine(::testing::Values(std::string("ctrl8"),
                                         std::string("mem8"),
                                         std::string("ilp8"),
                                         std::string("bal1")),
                       ::testing::ValuesIn(policy::all_policies())),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::string(policy::name(std::get<1>(info.param)));
    });

// ---------------------------------------------------------------------------
// Property: determinism and snapshot fidelity for every mix.
// ---------------------------------------------------------------------------
class MixProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(MixProperty, DeterministicAndSnapshotExact) {
  Pipeline a = make_mix(GetParam(), 8);
  Pipeline b = make_mix(GetParam(), 8);
  a.run(6000);
  b.run(6000);
  ASSERT_EQ(a.committed_total(), b.committed_total());

  Pipeline snap = a;  // value copy mid-run
  a.run(6000);
  snap.run(6000);
  EXPECT_EQ(a.committed_total(), snap.committed_total());
  EXPECT_EQ(a.stats().fetched, snap.stats().fetched);
  EXPECT_EQ(a.stats().squashed, snap.stats().squashed);
  EXPECT_EQ(a.stats().mispredicts, snap.stats().mispredicts);
}

TEST_P(MixProperty, ThreadScalingIsSane) {
  Pipeline p2 = make_mix(GetParam(), 2);
  Pipeline p8 = make_mix(GetParam(), 8);
  p2.run(12000);
  p8.run(12000);
  // 8 threads never commit less than 2 threads would on the same mix
  // family (weak sanity, allows saturation).
  EXPECT_GT(p8.committed_total() * 10, p2.committed_total() * 9);
}

INSTANTIATE_TEST_SUITE_P(AllMixes, MixProperty,
                         ::testing::Values("ctrl8", "mem8", "ilp8", "cache8",
                                           "bal1", "bal2", "bal3", "bal4",
                                           "int8", "span8", "fp8", "var1",
                                           "var2"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// ---------------------------------------------------------------------------
// Property: machine-shape sweeps keep the pipeline correct.
// ---------------------------------------------------------------------------
struct Shape {
  const char* name;
  std::uint32_t iq;
  std::uint32_t lsq;
  std::uint32_t renames;
  std::uint32_t fetch_threads;
};

// Without this, gtest prints a Shape as its raw bytes, name pointer
// included, so the listed test names would change from run to run.
void PrintTo(const Shape& s, std::ostream* os) { *os << s.name; }

class ShapeProperty : public ::testing::TestWithParam<Shape> {};

TEST_P(ShapeProperty, RunsCleanlyAtThisShape) {
  const Shape s = GetParam();
  PipelineConfig cfg;
  cfg.int_iq_size = s.iq;
  cfg.fp_iq_size = s.iq;
  cfg.lsq_size = s.lsq;
  cfg.int_rename_regs = s.renames;
  cfg.fp_rename_regs = s.renames;
  cfg.fetch_threads = s.fetch_threads;
  Pipeline p = make_mix("bal1", 8, cfg);
  p.run(10000);
  EXPECT_TRUE(p.check_counter_invariants()) << s.name;
  EXPECT_GT(p.committed_total(), 100u) << s.name;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShapeProperty,
    ::testing::Values(Shape{"tiny", 8, 8, 24, 2},
                      Shape{"narrow_fetch", 24, 48, 100, 1},
                      Shape{"wide_fetch", 24, 48, 100, 4},
                      Shape{"big_queues", 64, 64, 200, 2},
                      Shape{"rename_starved", 24, 48, 16, 2}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace smt::pipeline
