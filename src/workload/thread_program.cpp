#include "workload/thread_program.hpp"

#include "isa/instruction.hpp"

namespace smt::workload {

ThreadProgram::ThreadProgram(const AppProfile& profile,
                             std::uint32_t thread_id, std::uint64_t seed)
    : profile_(std::make_shared<const AppProfile>(profile)),
      code_base_(kCodeRegionBase + thread_id * kCodeSegmentStride),
      pc_(code_base_),
      branches_(std::make_shared<const BranchSiteModel>(
          profile, code_base_, make_stream(seed, {kTagSites, thread_id}))),
      chunk_(std::make_shared<const StreamChunk>(
          StreamGen(profile_, thread_id, seed, branches_))),
      wrong_addr_(profile, (thread_id + 1) * kDataSegmentStride,
                  make_stream(seed, {kTagAddr, thread_id})),
      wrong_rng_(make_stream(seed, {kTagWrong, thread_id})),
      ph_(phase_state(profile, profile.phases.empty() ? PhaseKind::kBase
                                                      : profile.phases[0])),
      phase_rotate_at_(profile.phase_len_instrs),
      branch_pc_salt_(branch_pc_salt(seed, thread_id)) {}

isa::Instruction ThreadProgram::next() {
  // Phase rotation on correct-path instruction count (mirrors the
  // stream generator so wrong-path draws see the right distribution).
  // Countdown form, same as StreamGen::next: count_ is += 1 per call, so
  // the boundary test replaces a per-instruction divide.
  const AppProfile& profile = *profile_;
  if (!profile.phases.empty() && profile.phase_len_instrs > 0) {
    if (count_ >= phase_rotate_at_) {
      phase_idx_ =
          phase_idx_ + 1 == profile.phases.size() ? 0 : phase_idx_ + 1;
      ph_ = phase_state(profile, profile.phases[phase_idx_]);
      phase_rotate_at_ += profile.phase_len_instrs;
    }
  }

  if (count_ - chunk_base_ == kStreamChunkInstrs) {
    chunk_ = chunk_->next();
    chunk_base_ = count_;
  }
  // The generator recorded this row at pc_ (rows store no PC).
  const isa::Instruction in = chunk_->rows[count_ - chunk_base_].expand(
      pc_, code_base_, wrong_addr_.base());

  // Advance the PC cursor exactly as the generator did when it recorded
  // this instruction: sequential with code-segment wrap, overridden by a
  // taken branch's target.
  std::uint64_t next_pc = pc_ + isa::kInstrBytes;
  if (next_pc >= code_base_ + profile.code_bytes) next_pc = code_base_;
  if (in.cls == isa::InstrClass::kBranch && in.taken) {
    next_pc = in.branch_target;
  }
  pc_ = next_pc;
  ++count_;
  return in;
}

isa::Instruction ThreadProgram::next_wrong(std::uint64_t& wrong_pc) {
  isa::Instruction in;
  in.pc = wrong_pc;
  in.cls = is_branch_pc(wrong_pc, branch_pc_salt_, ph_.branch_frac)
               ? isa::InstrClass::kBranch
               : draw_class(wrong_rng_, ph_);
  if (in.cls == isa::InstrClass::kSyscall) in.cls = isa::InstrClass::kIntAlu;
  // Wrong-path "dependencies" only matter for issue-timing realism.
  fill_deps(in, wrong_rng_, *profile_);

  if (isa::is_mem(in.cls)) {
    in.mem_addr = wrong_addr_.wrong_path(wrong_rng_);
  }

  std::uint64_t next_pc = wrong_pc + isa::kInstrBytes;
  if (next_pc >= code_base_ + profile_->code_bytes) next_pc = code_base_;
  if (in.cls == isa::InstrClass::kBranch) {
    // Wrong-path branches never redirect fetch again (no nested recovery);
    // they just look like branches to the occupancy counters.
    in.taken = wrong_rng_.chance(0.5);
    in.branch_target = branches_->site_for(wrong_pc).target;
    if (in.taken) next_pc = in.branch_target;
  }
  wrong_pc = next_pc;
  return in;
}

}  // namespace smt::workload
