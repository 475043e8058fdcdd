// Shared decoded streams.
//
// A thread's correct-path instruction stream is a pure function of
// (profile, thread_id, workload seed): every class draw, dependency
// distance, data address and branch outcome comes from dedicated RNG
// streams that timing never touches (the property test_thread_program
// locks). So the stream is decoded once, in chunks, and every reader of
// it reads the same arrays.
//
// The chunks form a chain. Each StreamChunk holds kStreamChunkInstrs
// decoded instructions (8-byte StreamRows), the StreamGen state at its
// end and a fill-once link to the next chunk (par::OnceSlot). A
// ThreadProgram is a cursor that holds only the chunk it is in; the
// first reader to reach the end of a chunk builds the next one, and
// later readers follow the link.
//
// Who shares: a Simulator copy shares its chunk pointers with the
// original, so the oracle's candidate trials and every snapshot replay
// read one copy of each chunk, on whichever pool worker they run.
// Chunks are immutable once built, so readers need no lock; the link is
// the only shared write, and par::OnceSlot guards it.
//
// Memory: a chunk is held by the readers in it and by its predecessor's
// link, so it is freed as soon as no reader is at or behind it. A run
// with no snapshot holds one or two chunks per thread.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "isa/instruction.hpp"
#include "par/once_slot.hpp"
#include "workload/address_gen.hpp"
#include "workload/app_profile.hpp"
#include "workload/branch_site.hpp"

namespace smt::workload {

// --- shared stream model ----------------------------------------------------
// The drawing rules below are used by BOTH the decoded correct-path
// generator (StreamGen) and the live wrong-path synthesiser kept in
// ThreadProgram, so the two paths cannot drift apart.

/// Per-thread segment spacing: no working set below 2^32 bytes and no
/// code footprint of at most kCodeSegmentStride (the bounds StreamGen
/// enforces) overlaps a neighbour's. The strides carry a salt
/// that is NOT a multiple of any cache's set span (L1: 8 KiB, L2:
/// 128 KiB), so different threads' segments land in different sets — as
/// the OS page allocator ensures for real processes. Power-of-two-aligned
/// segments would put every thread's hot lines in the same sets and
/// thrash them in lockstep.
inline constexpr std::uint64_t kDataSegmentStride =
    (1ULL << 32) + 101 * 1024 + 256;
inline constexpr std::uint64_t kCodeSegmentStride =
    (1ULL << 28) + 37 * 1024 + 96;
/// Code segments start here and data segments end below 2^36, so each
/// cache holds data tags in its low region and code tags in its one high
/// region (mem/cache.hpp).
inline constexpr std::uint64_t kCodeRegionBase = 1ULL << 60;

// Stream-path tags for make_stream(); never reorder (determinism contract).
enum StreamTag : std::uint64_t {
  kTagClass = 1,
  kTagDep = 2,
  kTagBranch = 3,
  kTagWrong = 4,
  kTagAddr = 5,
  kTagSites = 6,
};

/// Phase-resolved drawing state: the class distribution with branches
/// carved out (branch placement is PC-determined), plus the locality and
/// predictability perturbations. Pure function of (profile, kind).
struct StreamPhase {
  std::array<double, isa::kNumInstrClasses> cum_weights{};  ///< non-branch
  double total_weight = 1.0;
  double branch_frac = 0.15;  ///< dynamic branch fraction (PC-determined)
  double hot_bias = 0.0;
  double flatten = 0.0;
};

[[nodiscard]] StreamPhase phase_state(const AppProfile& profile,
                                      PhaseKind kind);

[[nodiscard]] inline std::uint64_t branch_pc_salt(std::uint64_t seed,
                                                  std::uint32_t thread_id) {
  return mix64(seed ^ (thread_id * 0xabcd1234ULL + 7));
}

/// Branch placement is a deterministic function of the PC, as in real
/// code: the predictor sees a stable set of static branch sites it can
/// actually learn. The stochastic class mix only covers the non-branch
/// classes.
[[nodiscard]] inline bool is_branch_pc(std::uint64_t pc, std::uint64_t salt,
                                       double branch_frac) noexcept {
  const std::uint64_t h = mix64(pc ^ salt) & 0xFFFFFF;
  return static_cast<double>(h) < branch_frac * double(0x1000000);
}

[[nodiscard]] isa::InstrClass draw_class(Rng& rng, const StreamPhase& ph);

/// Register dependencies as reuse distances. A distance is capped at 48
/// (beyond the issue window it is indistinguishable from "ready").
inline void fill_deps(isa::Instruction& in, Rng& dep_rng,
                      const AppProfile& profile) {
  if (dep_rng.chance(0.85)) {
    in.dep1 = static_cast<std::uint8_t>(std::min<std::uint64_t>(
        dep_rng.geometric(profile.mean_dep_distance), 48));
  }
  if (dep_rng.chance(profile.dep2_prob)) {
    in.dep2 = static_cast<std::uint8_t>(std::min<std::uint64_t>(
        dep_rng.geometric(profile.mean_dep_distance), 48));
  }
}

// --- correct-path generator -------------------------------------------------

/// One decoded correct-path instruction as a chunk stores it: 8 bytes
/// where an isa::Instruction takes 24. The PC is not stored, because the
/// reader already tracks it (ThreadProgram::next advances it exactly as
/// the generator did), and of the two addresses a class may carry only
/// the one it uses is kept, as a 32-bit offset: a load's or store's data
/// address from the thread's data base, a branch's taken target from its
/// code base. StreamGen rejects a profile whose offsets could pass 2^32
/// (or whose code would overlap the next thread's segment).
struct StreamRow {
  isa::InstrClass cls = isa::InstrClass::kIntAlu;
  std::uint8_t dep1 = 0;
  std::uint8_t dep2 = 0;
  bool taken = false;
  std::uint32_t offset = 0;  ///< data or taken-target address - its base

  [[nodiscard]] static StreamRow pack(const isa::Instruction& in,
                                      std::uint64_t code_base,
                                      std::uint64_t data_base) noexcept {
    StreamRow row{in.cls, in.dep1, in.dep2, in.taken, 0};
    if (isa::is_mem(in.cls)) {
      row.offset = static_cast<std::uint32_t>(in.mem_addr - data_base);
    } else if (in.cls == isa::InstrClass::kBranch) {
      row.offset = static_cast<std::uint32_t>(in.branch_target - code_base);
    }
    return row;
  }

  /// The instruction this row was packed from, recorded at `pc`.
  [[nodiscard]] isa::Instruction expand(
      std::uint64_t pc, std::uint64_t code_base,
      std::uint64_t data_base) const noexcept {
    isa::Instruction in;
    in.cls = cls;
    in.dep1 = dep1;
    in.dep2 = dep2;
    in.taken = taken;
    in.pc = pc;
    if (isa::is_mem(cls)) {
      in.mem_addr = data_base + offset;
    } else if (cls == isa::InstrClass::kBranch) {
      in.branch_target = code_base + offset;
    }
    return in;
  }
};
static_assert(sizeof(StreamRow) == 8);

/// The complete correct-path generator state: what ThreadProgram used to
/// advance inline, extracted so it can run ahead in bulk and be stored at
/// the end of each chunk (copies are ~390 B: RNGs, cursors and shared
/// pointers to the profile and branch sites). Draw order per RNG stream
/// is the determinism contract — it must match the historical
/// ThreadProgram exactly, which the golden stats digests
/// (test_stats_identity) lock.
class StreamGen {
 public:
  StreamGen() = default;
  /// Throws std::invalid_argument when the profile's working set is 2^32
  /// bytes or more (a StreamRow offset could not hold its addresses) or
  /// its code footprint exceeds kCodeSegmentStride (the thread's code
  /// would run into the next thread's segment).
  StreamGen(std::shared_ptr<const AppProfile> profile, std::uint32_t thread_id,
            std::uint64_t seed,
            std::shared_ptr<const BranchSiteModel> branches);

  [[nodiscard]] isa::Instruction next();

  /// next(), packed against this thread's code and data bases.
  [[nodiscard]] StreamRow next_row() {
    return StreamRow::pack(next(), code_base_, addr_gen_.base());
  }

 private:
  std::shared_ptr<const AppProfile> profile_{};
  std::uint64_t code_base_ = 0;
  std::uint64_t pc_ = 0;
  std::uint64_t count_ = 0;

  AddressGen addr_gen_{};
  std::shared_ptr<const BranchSiteModel> branches_{};

  Rng class_rng_{};
  Rng dep_rng_{};
  Rng branch_rng_{};

  std::size_t phase_idx_ = 0;
  StreamPhase ph_{};
  /// Correct-path count at which the next phase rotation fires (countdown
  /// form of `(count / phase_len) % phases`, which would divide per
  /// instruction on the synthesis hot path).
  std::uint64_t phase_rotate_at_ = 0;
  std::uint64_t branch_pc_salt_ = 0;
};

// --- chunk chain ------------------------------------------------------------

/// Instructions per chunk (power of two). 1024 rows of 8 bytes = 8 KiB:
/// big enough to amortise bulk-generation overhead, small enough that a
/// short run (an oracle trial, a sweep unit of a few thousand
/// instructions per thread) builds little past what it reads.
inline constexpr std::uint64_t kStreamChunkInstrs = 1024;

/// One immutable link of a decoded stream. Built from the generator
/// state where the previous chunk ended; builds its successor on the
/// first next() call from any thread.
class StreamChunk {
 public:
  explicit StreamChunk(StreamGen gen);
  ~StreamChunk();
  StreamChunk(const StreamChunk&) = delete;
  StreamChunk& operator=(const StreamChunk&) = delete;

  /// The following chunk; the first caller builds it, the rest share it.
  [[nodiscard]] std::shared_ptr<const StreamChunk> next() const;

  std::array<StreamRow, kStreamChunkInstrs> rows;

 private:
  StreamGen end_;  ///< generator state after rows.back()
  /// mutable: readers hold const chunks and fill the link once, and
  /// teardown empties it.
  mutable par::OnceSlot<StreamChunk> next_;
};

/// Per-thread chunk counters. No cache stands behind this name any more:
/// chunks are shared through the chain and freed behind their last
/// reader. The facade stays because perfbench reads these Stats to
/// report its workload.* metrics.
class StreamCache {
 public:
  /// This thread's counters.
  [[nodiscard]] static StreamCache& local();

  struct Stats {
    std::uint64_t chunks_generated = 0;  ///< chunks this thread built
    std::uint64_t chunk_hits = 0;  ///< links this thread found built
    std::uint64_t resident_bytes = 0;  ///< live chunks, whole process
  };
  [[nodiscard]] Stats stats() const;

  /// Nothing is left to drop; kept for callers that start a run on an
  /// empty cache.
  void clear() noexcept {}

 private:
  friend class StreamChunk;
  std::uint64_t generated_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace smt::workload
