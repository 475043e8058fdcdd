// Unit tests: per-thread instruction stream synthesiser
// (workload/thread_program.hpp).
#include <gtest/gtest.h>

#include <array>
#include <map>

#include "test_support.hpp"
#include "workload/app_profile.hpp"
#include "workload/thread_program.hpp"

namespace smt::workload {
namespace {

ThreadProgram make(const char* app, std::uint32_t tid = 0,
                   std::uint64_t seed = 1) {
  return ThreadProgram(profile(app), tid, seed);
}

TEST(ThreadProgram, DeterministicStream) {
  ThreadProgram a = make("gcc");
  ThreadProgram b = make("gcc");
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(test::same_instruction(a.next(), b.next())) << "at " << i;
  }
}

TEST(ThreadProgram, DifferentThreadsDifferentStreams) {
  ThreadProgram a = make("gcc", 0);
  ThreadProgram b = make("gcc", 1);
  int same_pc = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next().pc == b.next().pc) ++same_pc;
  }
  EXPECT_EQ(same_pc, 0) << "threads must have disjoint code segments";
}

TEST(ThreadProgram, ClassMixApproximatesProfile) {
  const AppProfile& p = profile("gzip");
  ThreadProgram t = make("gzip");
  std::map<isa::InstrClass, int> hist;
  const int n = 60000;
  for (int i = 0; i < n; ++i) hist[t.next().cls]++;

  const double branch_frac =
      static_cast<double>(hist[isa::InstrClass::kBranch]) / n;
  const double load_frac =
      static_cast<double>(hist[isa::InstrClass::kLoad]) / n;
  // Phase perturbation moves these around; accept a generous band.
  EXPECT_NEAR(branch_frac, p.mix.branch / p.mix.total(), 0.06);
  EXPECT_NEAR(load_frac, p.mix.load / p.mix.total(), 0.10);
  EXPECT_EQ(hist[isa::InstrClass::kFpAdd], 0) << "gzip is an INT profile";
}

TEST(ThreadProgram, FpProfileEmitsFpInstructions) {
  ThreadProgram t = make("swim");
  int fp = 0;
  for (int i = 0; i < 10000; ++i) {
    if (isa::is_fp(t.next().cls)) ++fp;
  }
  EXPECT_GT(fp, 500);
}

TEST(ThreadProgram, PcStaysInCodeSegment) {
  const AppProfile& p = profile("twolf");
  ThreadProgram t = make("twolf", 3);
  const std::uint64_t base = t.code_base();
  for (int i = 0; i < 20000; ++i) {
    const isa::Instruction in = t.next();
    EXPECT_GE(in.pc, base);
    EXPECT_LT(in.pc, base + p.code_bytes);
  }
}

TEST(ThreadProgram, BranchPcsAreStableWithinAPhase) {
  // The same PC must always be a branch (or never) while the branch
  // fraction is constant: predictors can only learn PC-stable site
  // placement. (Across kBranchy phase boundaries the *threshold* moves,
  // so near-threshold PCs may legitimately flip; pin a single-phase
  // profile to test the invariant.)
  AppProfile p = profile("parser");
  p.phases = {PhaseKind::kBase};
  ThreadProgram t(p, 0, 1);
  std::map<std::uint64_t, bool> pc_is_branch;
  for (int i = 0; i < 60000; ++i) {
    const isa::Instruction in = t.next();
    const bool br = in.cls == isa::InstrClass::kBranch;
    const auto it = pc_is_branch.find(in.pc);
    if (it != pc_is_branch.end()) {
      ASSERT_EQ(it->second, br) << "PC " << in.pc << " changed class";
    } else {
      pc_is_branch.emplace(in.pc, br);
    }
  }
}

TEST(ThreadProgram, TakenBranchRedirectsPc) {
  ThreadProgram t = make("vpr");
  isa::Instruction prev = t.next();
  for (int i = 0; i < 20000; ++i) {
    const isa::Instruction cur = t.next();
    if (prev.cls == isa::InstrClass::kBranch && prev.taken) {
      ASSERT_EQ(cur.pc, prev.branch_target);
    }
    prev = cur;
  }
}

TEST(ThreadProgram, MemInstructionsCarryAddresses) {
  ThreadProgram t = make("mcf");
  for (int i = 0; i < 5000; ++i) {
    const isa::Instruction in = t.next();
    if (isa::is_mem(in.cls)) {
      EXPECT_NE(in.mem_addr, 0u);
    }
  }
}

TEST(ThreadProgram, WrongPathDoesNotPerturbMainStream) {
  ThreadProgram a = make("bzip2");
  ThreadProgram b = make("bzip2");
  // Interleave wrong-path generation on a only.
  std::uint64_t wrong_pc = a.code_base();
  for (int i = 0; i < 2000; ++i) {
    (void)a.next_wrong(wrong_pc);
  }
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(test::same_instruction(a.next(), b.next())) << "at " << i;
  }
}

TEST(ThreadProgram, WrongPathAdvancesItsPc) {
  ThreadProgram t = make("gap");
  std::uint64_t wrong_pc = t.code_base() + 64;
  const std::uint64_t before = wrong_pc;
  (void)t.next_wrong(wrong_pc);
  EXPECT_NE(wrong_pc, before);
}

TEST(ThreadProgram, WrongPathNeverEmitsSyscall) {
  ThreadProgram t = make("gcc");
  std::uint64_t wrong_pc = t.code_base();
  for (int i = 0; i < 20000; ++i) {
    EXPECT_NE(static_cast<int>(t.next_wrong(wrong_pc).cls),
              static_cast<int>(isa::InstrClass::kSyscall));
  }
}

TEST(ThreadProgram, PhaseRotationChangesBehaviour) {
  // A profile with a kMemory phase must show a higher memory-instruction
  // share inside that phase than in its base phase.
  ThreadProgram t = make("mcf");  // phases {kMemory, kBase}
  const AppProfile& p = profile("mcf");
  const std::uint64_t phase_len = p.phase_len_instrs;
  int mem_phase_mem = 0;
  int base_phase_mem = 0;
  int mem_n = 0;
  int base_n = 0;
  for (std::uint64_t i = 0; i < phase_len * 2; ++i) {
    const bool in_mem_phase = t.current_phase() == PhaseKind::kMemory;
    const isa::Instruction in = t.next();
    if (in_mem_phase) {
      ++mem_n;
      if (isa::is_mem(in.cls)) ++mem_phase_mem;
    } else {
      ++base_n;
      if (isa::is_mem(in.cls)) ++base_phase_mem;
    }
  }
  ASSERT_GT(mem_n, 0);
  ASSERT_GT(base_n, 0);
  EXPECT_GT(static_cast<double>(mem_phase_mem) / mem_n,
            static_cast<double>(base_phase_mem) / base_n);
}

TEST(ThreadProgram, GeneratedCountTracksCalls) {
  ThreadProgram t = make("apsi");
  EXPECT_EQ(t.generated(), 0u);
  for (int i = 0; i < 123; ++i) (void)t.next();
  EXPECT_EQ(t.generated(), 123u);
}

TEST(ThreadProgram, DependencyDistancesBounded) {
  ThreadProgram t = make("sixtrack");
  for (int i = 0; i < 10000; ++i) {
    const isa::Instruction in = t.next();
    EXPECT_LE(in.dep1, 48);
    EXPECT_LE(in.dep2, 48);
  }
}

TEST(ThreadProgram, CopyResumesIdentically) {
  ThreadProgram a = make("facerec");
  for (int i = 0; i < 500; ++i) (void)a.next();
  ThreadProgram b = a;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(test::same_instruction(a.next(), b.next())) << "at " << i;
  }
}

}  // namespace
}  // namespace smt::workload
