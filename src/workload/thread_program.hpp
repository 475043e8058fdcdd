// Per-thread instruction stream synthesiser.
//
// A ThreadProgram combines an application profile with the address,
// branch-site and dependency models to emit the thread's dynamic
// *correct-path* instruction stream, one instruction per call. It also
// synthesises wrong-path filler instructions (fetched after a
// misprediction, squashed at branch resolution) from an isolated RNG so
// that wrong-path activity never perturbs the correct-path stream — the
// property that makes squash-and-replay and simulator snapshots exact.
//
// The generator is phase-driven: every `phase_len_instrs` correct-path
// instructions it rotates to the profile's next PhaseKind, perturbing the
// class mix, data locality and branch predictability. Phases are the
// time-varying behaviour that gives the paper's quantum-granularity
// adaptive scheduler something to adapt to.
//
// The correct-path stream itself is decoded ahead: because it is a pure
// function of (profile, thread id, seed), this class is a cursor over a
// chain of decoded chunks (workload/stream_cache.hpp) rather than a live
// generator — next() is an array read, the row's expansion back into an
// isa::Instruction and a PC update. A copy of a ThreadProgram (a
// Simulator snapshot, an oracle trial) shares the chain with the
// original, so replays from a snapshot skip synthesis, and a
// chunk is freed once no cursor is at or behind it. Wrong-path
// synthesis stays live here: which PCs are fetched down the wrong path
// depends on simulator timing, so it is not decoded ahead — but it only
// ever consumes its own RNG, preserving the isolation property above.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "isa/instruction.hpp"
#include "workload/address_gen.hpp"
#include "workload/app_profile.hpp"
#include "workload/branch_site.hpp"
#include "workload/stream_cache.hpp"

namespace smt::workload {

class ThreadProgram {
 public:
  ThreadProgram() = default;

  /// `thread_id` selects disjoint code/data segments and decorrelated RNG
  /// streams; `seed` is the run's master workload seed. Throws
  /// std::invalid_argument for a profile StreamGen rejects.
  ThreadProgram(const AppProfile& profile, std::uint32_t thread_id,
                std::uint64_t seed);

  /// PC of the next correct-path instruction (needed by fetch for the
  /// I-cache access and the cache-block-boundary check *before*
  /// consuming the instruction).
  [[nodiscard]] std::uint64_t pc() const noexcept { return pc_; }

  /// Consume and return the next correct-path instruction.
  [[nodiscard]] isa::Instruction next();

  /// Synthesize a wrong-path instruction at `wrong_pc`, and advance
  /// `wrong_pc` the way a front end blindly following predicted control
  /// flow would. Never touches correct-path state.
  [[nodiscard]] isa::Instruction next_wrong(std::uint64_t& wrong_pc);

  [[nodiscard]] const AppProfile& app() const noexcept { return *profile_; }
  [[nodiscard]] std::uint64_t generated() const noexcept { return count_; }
  [[nodiscard]] PhaseKind current_phase() const noexcept {
    return profile_->phases.empty() ? PhaseKind::kBase
                                    : profile_->phases[phase_idx_];
  }

  /// Total bytes of the per-thread code segment (I-cache footprint).
  [[nodiscard]] std::uint64_t code_base() const noexcept { return code_base_; }

 private:
  /// Shared with the stream generator and with every copy.
  std::shared_ptr<const AppProfile> profile_{};
  std::uint64_t code_base_ = 0;
  std::uint64_t pc_ = 0;
  std::uint64_t count_ = 0;  ///< cursor into the decoded stream

  std::shared_ptr<const BranchSiteModel> branches_{};
  std::shared_ptr<const StreamChunk> chunk_{};  ///< chunk holding `count_`
  std::uint64_t chunk_base_ = 0;  ///< stream index of chunk_->rows[0]

  // Wrong-path synthesis state (live; timing-dependent). The phase mirror
  // tracks the phase of the last consumed correct-path instruction so
  // wrong-path class draws see the same distribution the old inline
  // generator used.
  /// wrong_path(), and base(): the data base that rows are offsets from
  /// (construction constants only).
  AddressGen wrong_addr_{};
  Rng wrong_rng_{};
  std::size_t phase_idx_ = 0;
  StreamPhase ph_{};
  /// Count at which the phase mirror rotates next (countdown form of the
  /// per-instruction `(count / phase_len) % phases` divide).
  std::uint64_t phase_rotate_at_ = 0;
  std::uint64_t branch_pc_salt_ = 0;
};

}  // namespace smt::workload
