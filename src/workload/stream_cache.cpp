#include "workload/stream_cache.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/build_info.hpp"  // Fnv1a
#include "isa/instruction.hpp"

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

StreamGen::StreamGen(const AppProfile* profile, std::uint32_t thread_id,
                     std::uint64_t seed,
                     std::shared_ptr<const BranchSiteModel> branches)
    : profile_(profile),
      code_base_(kCodeRegionBase + thread_id * kCodeSegmentStride),
      pc_(code_base_),
      addr_gen_(*profile, (thread_id + 1) * kDataSegmentStride,
                make_stream(seed, {kTagAddr, thread_id})),
      branches_(std::move(branches)),
      class_rng_(make_stream(seed, {kTagClass, thread_id})),
      dep_rng_(make_stream(seed, {kTagDep, thread_id})),
      branch_rng_(make_stream(seed, {kTagBranch, thread_id})),
      ph_(phase_state(*profile, profile->phases.empty()
                                    ? PhaseKind::kBase
                                    : profile->phases[0])),
      phase_rotate_at_(profile->phase_len_instrs),
      branch_pc_salt_(branch_pc_salt(seed, thread_id)) {}

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

// --- StreamEntry ------------------------------------------------------------

StreamEntry::StreamEntry(const AppProfile& profile, std::uint32_t thread_id,
                         std::uint64_t seed)
    : profile_(profile),
      branches_(std::make_shared<const BranchSiteModel>(
          profile, kCodeRegionBase + thread_id * kCodeSegmentStride,
          make_stream(seed, {kTagSites, thread_id}))) {
  checkpoints_.emplace_back(&profile_, thread_id, seed, branches_);
}

std::shared_ptr<const StreamChunk> StreamEntry::generate_with(StreamGen& gen) {
  // Allocated apart from its control block: chunks_ holds weak refs that
  // outlive the chunk, and with make_shared they would pin its storage.
  std::shared_ptr<StreamChunk> chunk(new StreamChunk());
  for (auto& in : chunk->instrs) in = gen.next();
  ++chunks_generated_;
  return chunk;
}

std::shared_ptr<const StreamChunk> StreamEntry::chunk_for(std::uint64_t index) {
  const std::uint64_t idx = index / kStreamChunkInstrs;
  if (idx < chunks_.size()) {
    if (auto alive = chunks_[idx].lock()) {
      ++chunk_hits_;
      return alive;
    }
  } else {
    chunks_.resize(idx + 1);
  }

  // Advance the checkpoint frontier so a generator state exists for the
  // start of chunk idx. Chunks produced on the way are published (weakly)
  // too — a consumer jumping ahead is about to walk through them anyway —
  // but never clobber a still-live chunk's reference.
  while (checkpoints_.size() <= idx) {
    StreamGen gen = checkpoints_.back();
    auto chunk = generate_with(gen);
    const std::uint64_t made = checkpoints_.size() - 1;
    if (!chunks_[made].lock()) chunks_[made] = chunk;
    checkpoints_.push_back(gen);
  }

  // Generate (or regenerate) chunk idx from its checkpoint. When this
  // extends the frontier, record the post-chunk state as the next
  // checkpoint so a sequential reader generates every chunk exactly once.
  StreamGen gen = checkpoints_[idx];
  std::shared_ptr<const StreamChunk> wanted = generate_with(gen);
  chunks_[idx] = wanted;
  if (checkpoints_.size() == idx + 1) checkpoints_.push_back(gen);
  return wanted;
}

// --- RetentionPool ----------------------------------------------------------

void RetentionPool::touch(const std::shared_ptr<const StreamChunk>& chunk) {
  if (budget_bytes_ == 0) return;
  ++tick_;
  for (auto& it : items_) {
    if (it.chunk == chunk) {
      it.tick = tick_;
      return;
    }
  }
  items_.push_back({chunk, tick_});
  while (resident_bytes() > budget_bytes_ && items_.size() > 1) {
    std::size_t oldest = 0;
    for (std::size_t i = 1; i < items_.size(); ++i) {
      if (items_[i].tick < items_[oldest].tick) oldest = i;
    }
    items_[oldest] = std::move(items_.back());
    items_.pop_back();
  }
}

// --- StreamCache ------------------------------------------------------------

namespace {

std::uint64_t retention_budget_bytes() {
  if (const char* env = std::getenv("SMT_STREAM_CACHE_MB")) {
    const long mb = std::atol(env);
    if (mb >= 0) return static_cast<std::uint64_t>(mb) << 20;
  }
  return 64ull << 20;
}

}  // namespace

std::uint64_t profile_stream_digest(const AppProfile& p) {
  Fnv1a h;
  h.mix(kStreamGenVersion);
  h.mix(p.mix);
  h.mix(p.mean_dep_distance);
  h.mix(p.dep2_prob);
  h.mix(p.working_set_bytes);
  h.mix(p.hot_set_bytes);
  h.mix(p.hot_fraction);
  h.mix(p.stride_fraction);
  h.mix(p.code_bytes);
  h.mix(p.branch_sites);
  h.mix(p.predictable_sites);
  h.mix(p.phase_len_instrs);
  h.mix(p.phase_swing);
  h.mix<std::uint64_t>(p.phases.size());
  for (const PhaseKind k : p.phases) h.mix(k);
  return h.digest();
}

StreamCache::StreamCache() : pool_(retention_budget_bytes()) {}

StreamCache& StreamCache::local() {
  thread_local StreamCache cache;
  return cache;
}

std::shared_ptr<StreamEntry> StreamCache::entry(const AppProfile& profile,
                                                std::uint32_t thread_id,
                                                std::uint64_t seed) {
  const std::uint64_t digest = profile_stream_digest(profile);
  for (const Rec& r : recs_) {
    if (r.profile_digest == digest && r.thread_id == thread_id &&
        r.seed == seed) {
      return r.entry;
    }
  }
  auto made = std::make_shared<StreamEntry>(profile, thread_id, seed);
  recs_.push_back({digest, thread_id, seed, made});
  return made;
}

StreamCache::Stats StreamCache::stats() const {
  Stats s;
  s.entries = recs_.size();
  for (const Rec& r : recs_) {
    s.chunks_generated += r.entry->chunks_generated();
    s.chunk_hits += r.entry->chunk_hits();
  }
  s.resident_bytes = pool_.resident_bytes();
  return s;
}

void StreamCache::clear() {
  recs_.clear();
  pool_.clear();
}

}  // namespace smt::workload
