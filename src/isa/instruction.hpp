// Synthetic RISC instruction definitions.
//
// The workload generator emits a stream of these records; the pipeline
// consumes them. The ISA is deliberately minimal: the fetch-policy study
// only needs the attributes that drive resource usage — instruction class
// (which functional unit and latency), register dependencies (which limit
// ILP), memory address (which drives the caches), and branch behaviour
// (which drives the predictor and wrong-path waste).
#pragma once

#include <cstdint>
#include <string_view>

namespace smt::isa {

/// Instruction classes, each mapping to a functional-unit type and
/// execution latency in the pipeline configuration.
enum class InstrClass : std::uint8_t {
  kIntAlu,    ///< 1-cycle integer op (add, logic, shifts, compares)
  kIntMul,    ///< integer multiply
  kIntDiv,    ///< integer divide (long latency)
  kFpAdd,     ///< FP add/sub/convert
  kFpMul,     ///< FP multiply
  kFpDiv,     ///< FP divide / sqrt (long latency)
  kLoad,      ///< memory read (address stream feeds the D-cache)
  kStore,     ///< memory write
  kBranch,    ///< conditional branch (feeds the predictor)
  kSyscall,   ///< serialising system call (full pipeline flush, see paper §6)
};

inline constexpr int kNumInstrClasses = 10;

[[nodiscard]] constexpr bool is_fp(InstrClass c) noexcept {
  return c == InstrClass::kFpAdd || c == InstrClass::kFpMul ||
         c == InstrClass::kFpDiv;
}

[[nodiscard]] constexpr bool is_mem(InstrClass c) noexcept {
  return c == InstrClass::kLoad || c == InstrClass::kStore;
}

[[nodiscard]] constexpr std::string_view name(InstrClass c) noexcept {
  switch (c) {
    case InstrClass::kIntAlu: return "int_alu";
    case InstrClass::kIntMul: return "int_mul";
    case InstrClass::kIntDiv: return "int_div";
    case InstrClass::kFpAdd: return "fp_add";
    case InstrClass::kFpMul: return "fp_mul";
    case InstrClass::kFpDiv: return "fp_div";
    case InstrClass::kLoad: return "load";
    case InstrClass::kStore: return "store";
    case InstrClass::kBranch: return "branch";
    case InstrClass::kSyscall: return "syscall";
  }
  return "?";
}

/// Dependency encoding: each source operand names the producer as a
/// *distance* in the same thread's dynamic instruction stream (1 = the
/// immediately preceding instruction). Distance 0 means "no dependency /
/// value already architected". Register reuse distances are what bound a
/// thread's ILP, and encoding them directly lets the generator dial ILP
/// per application profile without a full register allocator. The
/// generator caps a distance at 48, so a byte holds it.
///
/// 24 bytes: a load or store has a data address and a branch a taken
/// target, never both, so the two share one word. Read only the member
/// the class makes active; for every other class the word is 0.
struct Instruction {
  InstrClass cls = InstrClass::kIntAlu;
  std::uint8_t dep1 = 0;  ///< distance to first producer (0 = none)
  std::uint8_t dep2 = 0;  ///< distance to second producer (0 = none)
  bool taken = false;     ///< actual outcome (valid when cls == kBranch)
  std::uint64_t pc = 0;   ///< synthetic PC (bytes; instructions are 4 B)
  union {
    std::uint64_t mem_addr = 0;  ///< effective address (load/store)
    std::uint64_t branch_target;  ///< taken-path target PC (branch)
  };
};
static_assert(sizeof(Instruction) == 24);

/// Architectural constants shared by the generator and the pipeline.
inline constexpr std::uint64_t kInstrBytes = 4;
inline constexpr std::uint64_t kFetchBlockInstrs = 8;  ///< ICOUNT.2.8 block
inline constexpr std::uint64_t kFetchBlockBytes = kFetchBlockInstrs * kInstrBytes;

}  // namespace smt::isa
