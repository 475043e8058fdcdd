#include "workload/stream_cache.hpp"

#include <stdexcept>
#include <string>

#include "isa/instruction.hpp"
#include "par/once_slot.hpp"

namespace smt::workload {

StreamPhase phase_state(const AppProfile& profile, PhaseKind kind) {
  const double s = profile.phase_swing;

  InstrMix m = profile.mix;
  StreamPhase ph;
  switch (kind) {
    case PhaseKind::kBase:
      break;
    case PhaseKind::kMemory:
      m.load *= 1.0 + 1.2 * s;
      m.store *= 1.0 + 0.6 * s;
      ph.hot_bias = -0.55 * s;
      break;
    case PhaseKind::kBranchy:
      m.branch *= 1.0 + 1.2 * s;
      ph.flatten = 0.7 * s;
      break;
    case PhaseKind::kCompute:
      m.int_alu *= 1.0 + s;
      m.fp_add *= 1.0 + s;
      m.fp_mul *= 1.0 + s;
      ph.hot_bias = 0.2 * s;
      break;
  }

  // Branches are placed by PC (is_branch_pc); the stochastic draw covers
  // only the other classes.
  ph.branch_frac = m.branch / m.total();
  double acc = 0.0;
  for (int c = 0; c < isa::kNumInstrClasses; ++c) {
    const auto cls = static_cast<isa::InstrClass>(c);
    if (cls != isa::InstrClass::kBranch) {
      acc += m.weight(cls);
    }
    ph.cum_weights[static_cast<std::size_t>(c)] = acc;
  }
  ph.total_weight = acc;
  return ph;
}

isa::InstrClass draw_class(Rng& rng, const StreamPhase& ph) {
  const double u = rng.uniform() * ph.total_weight;
  for (int c = 0; c < isa::kNumInstrClasses; ++c) {
    if (u < ph.cum_weights[static_cast<std::size_t>(c)]) {
      return static_cast<isa::InstrClass>(c);
    }
  }
  return isa::InstrClass::kIntAlu;
}

// --- StreamGen --------------------------------------------------------------

StreamGen::StreamGen(std::shared_ptr<const AppProfile> profile,
                     std::uint32_t thread_id, std::uint64_t seed,
                     std::shared_ptr<const BranchSiteModel> branches)
    : profile_(std::move(profile)),
      code_base_(kCodeRegionBase + thread_id * kCodeSegmentStride),
      pc_(code_base_),
      addr_gen_(*profile_, (thread_id + 1) * kDataSegmentStride,
                make_stream(seed, {kTagAddr, thread_id})),
      branches_(std::move(branches)),
      class_rng_(make_stream(seed, {kTagClass, thread_id})),
      dep_rng_(make_stream(seed, {kTagDep, thread_id})),
      branch_rng_(make_stream(seed, {kTagBranch, thread_id})),
      ph_(phase_state(*profile_, profile_->phases.empty()
                                     ? PhaseKind::kBase
                                     : profile_->phases[0])),
      phase_rotate_at_(profile_->phase_len_instrs),
      branch_pc_salt_(branch_pc_salt(seed, thread_id)) {
  // Data addresses lie below the working set (AddressGen) and taken
  // targets below the code footprint (BranchSiteModel), each from its
  // segment base. A working set below 2^32 bytes fits a row's 32-bit
  // offset and its data stride; a code footprint of at most the code
  // stride fits both too, and keeps neighbouring threads' code apart.
  if (profile_->working_set_bytes >= (1ULL << 32)) {
    throw std::invalid_argument("profile '" + profile_->name +
                                "': working_set_bytes must be below 2^32");
  }
  if (profile_->code_bytes > kCodeSegmentStride) {
    throw std::invalid_argument(
        "profile '" + profile_->name + "': code_bytes must be at most " +
        std::to_string(kCodeSegmentStride) + " (the code segment stride)");
  }
}

isa::Instruction StreamGen::next() {
  // Phase rotation on correct-path instruction count. count_ advances by
  // exactly one per call, so a boundary countdown replaces the per-
  // instruction divide the original `(count_ / len) % phases` computed.
  if (!profile_->phases.empty() && profile_->phase_len_instrs > 0) {
    if (count_ >= phase_rotate_at_) {
      phase_idx_ = phase_idx_ + 1 == profile_->phases.size() ? 0
                                                             : phase_idx_ + 1;
      ph_ = phase_state(*profile_, profile_->phases[phase_idx_]);
      phase_rotate_at_ += profile_->phase_len_instrs;
    }
  }

  isa::Instruction in;
  in.pc = pc_;
  in.cls = is_branch_pc(pc_, branch_pc_salt_, ph_.branch_frac)
               ? isa::InstrClass::kBranch
               : draw_class(class_rng_, ph_);
  fill_deps(in, dep_rng_, *profile_);

  if (isa::is_mem(in.cls)) {
    in.mem_addr = addr_gen_.next(ph_.hot_bias);
  }

  std::uint64_t next_pc = pc_ + isa::kInstrBytes;
  // Wrap within the code segment so the I-cache footprint equals the
  // profile's code size.
  if (next_pc >= code_base_ + profile_->code_bytes) next_pc = code_base_;

  if (in.cls == isa::InstrClass::kBranch) {
    in.taken = branches_->outcome(pc_, branch_rng_, ph_.flatten);
    in.branch_target = branches_->site_for(pc_).target;
    if (in.taken) next_pc = in.branch_target;
  }

  pc_ = next_pc;
  ++count_;
  return in;
}

// --- StreamChunk ------------------------------------------------------------

namespace {

/// Bytes of every live chunk in the process (StreamCache::Stats).
par::Gauge& live_chunk_bytes() {
  static par::Gauge bytes;
  return bytes;
}

}  // namespace

StreamChunk::StreamChunk(StreamGen gen) : end_(std::move(gen)) {
  for (StreamRow& row : rows) row = end_.next_row();
  live_chunk_bytes().add(sizeof(StreamChunk));
  ++StreamCache::local().generated_;
}

StreamChunk::~StreamChunk() {
  live_chunk_bytes().add(-static_cast<std::int64_t>(sizeof(StreamChunk)));
  // Unlink each successor that nobody else holds before it goes, so
  // freeing a long chain loops here instead of recursing once per chunk.
  std::shared_ptr<const StreamChunk> succ = next_.take();
  while (succ && succ.use_count() == 1) succ = succ->next_.take();
}

std::shared_ptr<const StreamChunk> StreamChunk::next() const {
  bool built = false;
  std::shared_ptr<const StreamChunk> n =
      next_.get([this] { return std::make_shared<const StreamChunk>(end_); },
                built);
  if (!built) ++StreamCache::local().hits_;
  return n;
}

// --- StreamCache ------------------------------------------------------------

StreamCache& StreamCache::local() {
  thread_local StreamCache cache;
  return cache;
}

StreamCache::Stats StreamCache::stats() const {
  Stats s;
  s.chunks_generated = generated_;
  s.chunk_hits = hits_;
  s.resident_bytes = static_cast<std::uint64_t>(live_chunk_bytes().value());
  return s;
}

}  // namespace smt::workload
