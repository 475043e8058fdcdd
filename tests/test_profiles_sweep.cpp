// Property sweep over all 26 built-in application profiles: every profile
// must synthesize a sane, deterministic stream and run cleanly through
// the pipeline both alone and next to a disruptive neighbour.
#include <gtest/gtest.h>

#include "pipeline/pipeline.hpp"
#include "test_support.hpp"
#include "workload/app_profile.hpp"
#include "workload/thread_program.hpp"

namespace smt::workload {
namespace {

class ProfileSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ProfileSweep, StreamStaysInsideItsSegments) {
  const AppProfile& p = profile(GetParam());
  ThreadProgram t(p, 2, 99);
  for (int i = 0; i < 30000; ++i) {
    const isa::Instruction in = t.next();
    ASSERT_GE(in.pc, t.code_base());
    ASSERT_LT(in.pc, t.code_base() + p.code_bytes);
    if (isa::is_mem(in.cls)) {
      ASSERT_NE(in.mem_addr, 0u);
    }
    if (in.cls == isa::InstrClass::kBranch && in.taken) {
      ASSERT_GE(in.branch_target, t.code_base());
      ASSERT_LT(in.branch_target, t.code_base() + p.code_bytes);
    }
  }
}

TEST_P(ProfileSweep, StreamIsDeterministic) {
  ThreadProgram a(profile(GetParam()), 0, 5);
  ThreadProgram b(profile(GetParam()), 0, 5);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(test::same_instruction(a.next(), b.next())) << "at " << i;
  }
}

TEST_P(ProfileSweep, BranchFractionTracksProfile) {
  const AppProfile& p = profile(GetParam());
  ThreadProgram t(p, 1, 7);
  int branches = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (t.next().cls == isa::InstrClass::kBranch) ++branches;
  }
  const double expected = p.mix.branch / p.mix.total();
  const double got = static_cast<double>(branches) / n;
  // The *dynamic* branch frequency legitimately exceeds the static
  // weight when taken branches revisit branch-dense loop regions (as in
  // real code), and phases perturb it further — so assert a sanity band
  // around the static expectation rather than closeness.
  EXPECT_GT(got, 0.5 * expected) << p.name;
  EXPECT_LT(got, 3.0 * expected) << p.name;
  EXPECT_LT(got, 0.5) << p.name << ": branches must not dominate";
}

TEST_P(ProfileSweep, RunsCleanlyThroughThePipeline) {
  std::vector<ThreadProgram> ps;
  ps.emplace_back(profile(GetParam()), 0, 11);
  ps.emplace_back(profile("art"), 1, 11);  // disruptive neighbour
  pipeline::Pipeline pipe(pipeline::PipelineConfig{}, std::move(ps));
  pipe.run(12000);
  EXPECT_TRUE(pipe.check_counter_invariants()) << GetParam();
  EXPECT_GT(pipe.counters(0).total.committed, 100u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfileSweep,
                         ::testing::ValuesIn(all_profile_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace smt::workload
