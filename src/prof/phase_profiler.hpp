// Hierarchical host-time phase profiler.
//
// A PhaseProfiler owns a small tree of named phase nodes ("run" →
// "measured" → "cycle" → "fetch", ...). Instrumented code holds Node
// handles (plain indices, resolved once at attach time) and opens RAII
// Scopes around the region; each Scope costs two host_ticks() reads and
// one accumulate on close. Hot per-cycle call sites additionally stride-
// sample (time 1 of every N cycles, sampled_cycle below) so the
// enabled-overhead budget of DESIGN.md §15 holds even at per-stage
// granularity.
//
// Accumulation is per node: call count, inclusive ticks, min/max ticks.
// Exclusive time (inclusive minus the children's inclusive, clamped at
// zero) is derived at export. Because every node is only ever opened
// inside its parent's scope, summing exclusive time over the whole tree
// telescopes back to the root's inclusive time — the property
// scripts/check_prof.sh asserts against --stats-json.
//
// Exports (one tree, two views):
//   * export_metrics  — prof.<path>.{count,incl_ns,excl_ns,min_ns,max_ns}
//   * write_folded    — "run;measured;cycle;fetch 1234" folded stacks
//                       (speedscope / FlameGraph ingest exclusive ns)
//
// Determinism: host ticks flow only into these observability outputs,
// never into simulation state. A profiler-off run takes one predictable
// branch per call site and emits nothing (gate-enforced byte-identity).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "prof/host_clock.hpp"

namespace smt::prof {

/// The stride-sampling rule, evaluated once per cycle by Simulator::step
/// on the pre-step cycle (the pipeline's stages are timed only on the
/// cycles it picks, through the timed Pipeline::step): true on exactly
/// one cycle of each aligned block of `mask + 1` cycles
/// (a power of two; mask 0 samples every cycle), at a position hashed
/// from the block. A fixed position would alias with periodic work: at
/// `cycle & mask == 0` the detector's quantum-boundary cycle, which is
/// ≡ quantum−1, was never sampled at any stride > 1.
[[nodiscard]] constexpr bool sampled_cycle(std::uint64_t cycle,
                                           std::uint64_t mask) noexcept {
  return ((cycle ^ mix64(cycle & ~mask)) & mask) == 0;
}

class PhaseProfiler {
 public:
  /// Phase handle: index into the node table. Stable for the profiler's
  /// lifetime, cheap to copy into instrumented components.
  using Node = std::uint32_t;
  static constexpr Node kRoot = 0;

  PhaseProfiler();

  /// Find or create the child of `parent` named `name`. Names must be
  /// non-empty and contain neither '.' nor ';' (they become metric path
  /// segments and folded-stack frames); violations are clamped to '_'.
  Node child(Node parent, std::string_view name);

  /// Account one timed interval of `ticks` host ticks to `n`, counted as
  /// `count` calls (a leap over k quiet cycles counts k).
  void add(Node n, std::uint64_t ticks, std::uint64_t count = 1) noexcept;

  /// RAII timed region. A Scope built with a null profiler is inert, so
  /// call sites need no branch of their own.
  class Scope {
   public:
    Scope(PhaseProfiler* p, Node n, std::uint64_t count = 1) noexcept
        : p_(p), n_(n), count_(count), t0_(p != nullptr ? host_ticks() : 0) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (p_ != nullptr) p_->add(n_, host_ticks() - t0_, count_);
    }

   private:
    PhaseProfiler* p_;
    Node n_;
    std::uint64_t count_;
    std::uint64_t t0_;
  };

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::string_view name(Node n) const {
    return nodes_[n].name;
  }
  [[nodiscard]] Node parent(Node n) const { return nodes_[n].parent; }
  [[nodiscard]] std::uint64_t count(Node n) const { return nodes_[n].count; }
  [[nodiscard]] std::uint64_t inclusive_ticks(Node n) const {
    return nodes_[n].incl_ticks;
  }
  [[nodiscard]] std::uint64_t min_ticks(Node n) const;  ///< 0 when unvisited
  [[nodiscard]] std::uint64_t max_ticks(Node n) const {
    return nodes_[n].max_ticks;
  }
  /// Inclusive minus the sum of the children's inclusive, clamped at 0
  /// (clock jitter can make a child read marginally longer than its
  /// parent; a negative exclusive would break the telescoping-sum
  /// property downstream tools rely on).
  [[nodiscard]] std::uint64_t exclusive_ticks(Node n) const;

  /// Root-to-node path, segments joined by `sep` ("run;measured;cycle").
  [[nodiscard]] std::string path(Node n, char sep) const;

  /// prof.<dotted path>.{count,incl_ns,excl_ns,min_ns,max_ns} for every
  /// visited node, plus prof.ticks_per_ns.
  void export_metrics(obs::MetricsRegistry& reg) const;

  /// Folded stacks, one visited node per line: "<path;...> <exclusive
  /// ns>\n", preorder. Loadable as-is by speedscope and flamegraph.pl.
  void write_folded(std::ostream& os) const;

 private:
  struct NodeData {
    std::string name;
    Node parent = 0;
    std::vector<Node> children;
    std::uint64_t count = 0;
    std::uint64_t incl_ticks = 0;
    std::uint64_t min_ticks = ~std::uint64_t{0};
    std::uint64_t max_ticks = 0;
  };

  std::vector<NodeData> nodes_;
};

}  // namespace smt::prof
