// Decoded-stream memo cache.
//
// A thread's correct-path instruction stream is a pure function of
// (profile, thread_id, workload seed): every class draw, dependency
// distance, data address and branch outcome comes from dedicated RNG
// streams that timing never touches (the property test_thread_program
// locks). That makes the per-instruction synthesis work — ~60 ns of
// distribution sampling per instruction — re-derivable, so this module
// memoises it: streams are generated once, in chunks, and every
// consumer with the same key reads the same decoded arrays.
//
// Who hits the cache:
//   - oracle candidate replays: each policy candidate re-runs the same
//     instruction region from a snapshot, so all but the first replay
//     read memoised chunks;
//   - warmup + measured samples in benchmarks: repeated Simulator
//     constructions over one (mix, seed) re-read the same streams;
//   - repeated in-process grid/sweep jobs sharing (profile, tid, seed).
//
// Concurrency model: the cache is THREAD-LOCAL (StreamCache::local())
// and a StreamEntry is only ever mutated by the thread whose cache owns
// it. That invariant is not automatic — Simulators DO cross threads (the
// parallel oracle copies the base simulator into pool workers; sweep
// cells move results back) — so ThreadProgram records which cache
// resolved its entry and re-resolves from the executing thread's cache
// before the first chunk fetch on a foreign thread
// (thread_program.cpp; the cross-boundary regression test is
// ParallelOracle.TrialsCrossingChunkBoundariesMatchSerial under TSan).
// Published chunks themselves are immutable, so a pinned chunk_ can be
// read from any thread. This keeps the library free of locks and
// atomics (the thread-primitive lint rule stays one-module-long).
// Sharing is therefore per-thread, which is where the repeat-run wins
// live anyway: a job runs start-to-finish on one thread, and each
// oracle worker replays its trials from its own cache.
//
// Memory model: chunks are published as shared_ptr and tracked weakly;
// a byte-budgeted retention pool (SMT_STREAM_CACHE_MB, default 64 MiB
// per thread) additionally keeps the most recently used chunks alive for
// reuse. Evicted chunks are regenerable from per-chunk StreamGen
// checkpoints (~300 B each), so retention is purely a performance knob —
// correctness never depends on what stayed resident.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "isa/instruction.hpp"
#include "workload/address_gen.hpp"
#include "workload/app_profile.hpp"
#include "workload/branch_site.hpp"

namespace smt::workload {

// --- shared stream model ----------------------------------------------------
// The drawing rules below are used by BOTH the memoised correct-path
// generator (StreamGen) and the live wrong-path synthesiser kept in
// ThreadProgram, so the two paths cannot drift apart.

/// Per-thread segment spacing: large enough that no profile's working set
/// or code footprint overlaps a neighbour's. The strides carry a salt
/// that is NOT a multiple of any cache's set span (L1: 8 KiB, L2:
/// 128 KiB), so different threads' segments land in different sets — as
/// the OS page allocator ensures for real processes. Power-of-two-aligned
/// segments would put every thread's hot lines in the same sets and
/// thrash them in lockstep.
inline constexpr std::uint64_t kDataSegmentStride =
    (1ULL << 32) + 101 * 1024 + 256;
inline constexpr std::uint64_t kCodeSegmentStride =
    (1ULL << 28) + 37 * 1024 + 96;
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
    in.dep1 = static_cast<std::uint16_t>(std::min<std::uint64_t>(
        dep_rng.geometric(profile.mean_dep_distance), 48));
  }
  if (dep_rng.chance(profile.dep2_prob)) {
    in.dep2 = static_cast<std::uint16_t>(std::min<std::uint64_t>(
        dep_rng.geometric(profile.mean_dep_distance), 48));
  }
}

// --- correct-path generator -------------------------------------------------

/// The complete correct-path generator state: what ThreadProgram used to
/// advance inline, extracted so it can run ahead in bulk and be
/// checkpointed per chunk (copies are ~300 B: RNGs, cursors and a pointer
/// to the entry-owned profile). Draw order per RNG stream is the
/// determinism contract — it must match the historical ThreadProgram
/// exactly, which the golden stats digests (test_stats_identity) lock.
class StreamGen {
 public:
  StreamGen() = default;
  StreamGen(const AppProfile* profile, std::uint32_t thread_id,
            std::uint64_t seed,
            std::shared_ptr<const BranchSiteModel> branches);

  [[nodiscard]] isa::Instruction next();

  [[nodiscard]] const std::shared_ptr<const BranchSiteModel>& branches()
      const noexcept {
    return branches_;
  }

 private:
  const AppProfile* profile_ = nullptr;  ///< owned by the StreamEntry
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

// --- memoised stream --------------------------------------------------------

/// Instructions per chunk (power of two). 4096 × sizeof(Instruction)
/// ≈ 160 KiB: big enough to amortise bulk-generation overhead, small
/// enough that a reader pinning two chunks costs well under a MiB.
inline constexpr std::uint64_t kStreamChunkInstrs = 4096;

struct StreamChunk {
  std::array<isa::Instruction, kStreamChunkInstrs> instrs;
};

/// One memoised correct-path stream, keyed by (profile, tid, seed).
/// Chunks are tracked weakly and regenerated from checkpoints when dead;
/// the owning cache's retention pool decides what stays resident.
class StreamEntry {
 public:
  StreamEntry(const AppProfile& profile, std::uint32_t thread_id,
              std::uint64_t seed);

  // Checkpoints hold pointers into profile_; the entry must stay put.
  StreamEntry(const StreamEntry&) = delete;
  StreamEntry& operator=(const StreamEntry&) = delete;

  /// The chunk containing instruction `index` (0-based position in the
  /// correct-path stream). Generates or regenerates on demand.
  [[nodiscard]] std::shared_ptr<const StreamChunk> chunk_for(
      std::uint64_t index);

  /// Immutable branch-site model shared with wrong-path synthesis.
  [[nodiscard]] const std::shared_ptr<const BranchSiteModel>& branches()
      const noexcept {
    return branches_;
  }

  [[nodiscard]] const AppProfile& profile() const noexcept { return profile_; }
  [[nodiscard]] std::uint64_t chunks_generated() const noexcept {
    return chunks_generated_;
  }
  [[nodiscard]] std::uint64_t chunk_hits() const noexcept {
    return chunk_hits_;
  }

 private:
  [[nodiscard]] std::shared_ptr<const StreamChunk> generate_with(
      StreamGen& gen);

  AppProfile profile_;  ///< stable address for StreamGen back-pointers
  std::shared_ptr<const BranchSiteModel> branches_;
  /// checkpoints_[i] = generator state at the start of chunk i; grows as
  /// the stream frontier advances (~300 B per 4096 instructions).
  std::vector<StreamGen> checkpoints_;
  std::vector<std::weak_ptr<const StreamChunk>> chunks_;
  std::uint64_t chunks_generated_ = 0;
  std::uint64_t chunk_hits_ = 0;
};

/// Bounded strong-reference pool: keeps recently used chunks alive past
/// their readers, up to a byte budget, evicting least-recently-touched
/// first. Ticks are a logical counter (no host clocks in library code).
class RetentionPool {
 public:
  explicit RetentionPool(std::uint64_t budget_bytes)
      : budget_bytes_(budget_bytes) {}

  void touch(const std::shared_ptr<const StreamChunk>& chunk);
  [[nodiscard]] std::uint64_t resident_bytes() const noexcept {
    return sizeof(StreamChunk) * items_.size();
  }
  void clear() { items_.clear(); }

 private:
  struct Item {
    std::shared_ptr<const StreamChunk> chunk;
    std::uint64_t tick = 0;
  };
  std::vector<Item> items_;
  std::uint64_t tick_ = 0;
  std::uint64_t budget_bytes_ = 0;
};

/// Per-thread registry of memoised streams. See the header comment for
/// why this is thread-local rather than locked.
class StreamCache {
 public:
  /// This thread's cache instance.
  [[nodiscard]] static StreamCache& local();

  /// The memoised stream for (profile, thread_id, seed), creating it on
  /// first use. Profiles are keyed by a digest of every generation-
  /// relevant field (not the name), so identical-parameter profiles
  /// share a stream.
  [[nodiscard]] std::shared_ptr<StreamEntry> entry(const AppProfile& profile,
                                                   std::uint32_t thread_id,
                                                   std::uint64_t seed);

  [[nodiscard]] RetentionPool& pool() noexcept { return pool_; }

  struct Stats {
    std::uint64_t entries = 0;
    std::uint64_t chunks_generated = 0;  ///< chunk generations (incl. regen)
    std::uint64_t chunk_hits = 0;        ///< chunk lookups served memoised
    std::uint64_t resident_bytes = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Drop every entry and resident chunk (testing / memory pressure).
  void clear();

 private:
  StreamCache();

  struct Rec {
    std::uint64_t profile_digest = 0;
    std::uint32_t thread_id = 0;
    std::uint64_t seed = 0;
    std::shared_ptr<StreamEntry> entry;
  };
  std::vector<Rec> recs_;
  RetentionPool pool_;
};

/// Generation-algorithm revision, mixed into profile_stream_digest so a
/// stream key names the generator that produced it, not just its inputs.
/// Bump whenever StreamGen's draw order, the RNG stream layout
/// (StreamTag), or any upstream model changes what a (profile, tid,
/// seed) key decodes to — the golden digests in test_stats_identity
/// move in lockstep with such changes.
inline constexpr std::uint64_t kStreamGenVersion = 1;

/// FNV-1a digest over every AppProfile field that affects stream
/// generation (the name is deliberately excluded) plus kStreamGenVersion.
[[nodiscard]] std::uint64_t profile_stream_digest(const AppProfile& profile);

}  // namespace smt::workload
