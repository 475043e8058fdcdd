// Per-thread hardware status indicators.
//
// These are the counters "updated by circuitry located throughout the
// processor pipeline" (paper §3) that both the fetch policies and the
// detector thread read. Two kinds live here:
//
//  * occupancy counters — how much of each pipeline resource the thread
//    holds *right now* (instructions in the front end/IQ, unresolved
//    branches, loads, outstanding cache misses). These drive the fetch
//    policies.
//  * event totals — free-running counts per hardware context (committed
//    instructions, conditional branches, mispredicts, L1 misses, LSQ-full
//    events, stalls). Nothing ever resets them. A reader that wants a
//    window takes a difference against a mark: the quantum mark (set by
//    the detector thread at each quantum boundary) feeds the ADTS
//    low-throughput detection and the COND_MEM / COND_BR conditions, the
//    load mark (set when a program is swapped in) feeds ACCIPC and the
//    per-job accounting — as a PMU reader differences hardware counters.
#pragma once

#include <cstdint>

namespace smt::pipeline {

/// Event totals of one hardware context. Every field only grows.
struct EventCounts {
  std::uint64_t committed = 0;
  std::uint64_t fetched = 0;          ///< fetch slots this context consumed
  std::uint64_t cond_branches = 0;    ///< resolved conditional branches
  std::uint64_t mispredicts = 0;      ///< resolved mispredictions
  std::uint64_t l1d_misses = 0;
  std::uint64_t l1i_misses = 0;
  std::uint64_t lsq_full_events = 0;  ///< dispatch blocked on full LSQ
  std::uint64_t stalls = 0;           ///< cycles this context fetched nothing

  friend EventCounts operator-(const EventCounts& a,
                               const EventCounts& b) noexcept {
    return {a.committed - b.committed,
            a.fetched - b.fetched,
            a.cond_branches - b.cond_branches,
            a.mispredicts - b.mispredicts,
            a.l1d_misses - b.l1d_misses,
            a.l1i_misses - b.l1i_misses,
            a.lsq_full_events - b.lsq_full_events,
            a.stalls - b.stalls};
  }
};

/// The start of a counting window: the cycle it opened and the totals
/// at that moment.
struct CounterMark {
  std::uint64_t cycle = 0;
  EventCounts at;
};

struct ThreadCounters {
  // ---- occupancy (incremented/decremented as instructions move) -------
  /// Instructions in the decode/rename stages and the instruction queues.
  /// Memory instructions count until they *complete* (they occupy a
  /// load/store-queue entry while outstanding — Tullsen's ICOUNT counts
  /// "the instruction queues", plural, which include the LQ/SQ); other
  /// classes leave at issue.
  std::int32_t icount = 0;
  std::int32_t brcount = 0;       ///< unresolved branches in the pipeline
  std::int32_t ldcount = 0;       ///< loads in the pipeline
  std::int32_t memcount = 0;      ///< loads + stores in the pipeline
  std::int32_t l1d_outstanding = 0;  ///< in-flight loads that missed L1D
  std::int32_t l1i_outstanding = 0;  ///< 1 while fetch is stalled on an I-miss

  // ---- free-running event totals and the marks windows start at --------
  EventCounts total;         ///< since the context was built
  CounterMark quantum_mark;  ///< last scheduling-quantum boundary
  CounterMark load_mark;     ///< when the current program was loaded

  void mark_quantum(std::uint64_t cycle) noexcept {
    quantum_mark = {cycle, total};
  }
  void mark_load(std::uint64_t cycle) noexcept { load_mark = {cycle, total}; }

  /// Events counted since `m`: the one window helper every reader uses.
  [[nodiscard]] EventCounts since(const CounterMark& m) const noexcept {
    return total - m.at;
  }
  /// The current quantum's window: since the later of the two marks (a
  /// program swapped in mid-quantum starts its quantum at the swap).
  [[nodiscard]] EventCounts since_quantum() const noexcept {
    return since(quantum_mark.cycle >= load_mark.cycle ? quantum_mark
                                                       : load_mark);
  }
  [[nodiscard]] EventCounts since_load() const noexcept {
    return since(load_mark);
  }
  /// Cycles the current program has been resident at `cycle`.
  [[nodiscard]] std::uint64_t cycles_since_load(
      std::uint64_t cycle) const noexcept {
    return cycle - load_mark.cycle;
  }

  /// Accumulated IPC since the thread was loaded (ACCIPC policy).
  [[nodiscard]] double acc_ipc(std::uint64_t cycle) const noexcept {
    const std::uint64_t cycles = cycles_since_load(cycle);
    return cycles ? static_cast<double>(since_load().committed) /
                        static_cast<double>(cycles)
                  : 0.0;
  }

  /// Outstanding L1 misses of both kinds (L1MISSCOUNT policy).
  [[nodiscard]] std::int32_t l1_outstanding() const noexcept {
    return l1d_outstanding + l1i_outstanding;
  }
};

/// One thread's quantum window, normalised per cycle — the view the
/// detector thread's heuristics consume (core/heuristics.hpp).
struct QuantumRates {
  double ipc = 0.0;
  double cond_branches_per_cycle = 0.0;
  double mispredicts_per_cycle = 0.0;
  double l1_misses_per_cycle = 0.0;
  double lsq_full_per_cycle = 0.0;
};

/// Rates of `c.since_quantum()` over `quantum_cycles` cycles.
[[nodiscard]] QuantumRates rates_for_quantum(const ThreadCounters& c,
                                             std::uint64_t quantum_cycles) noexcept;

}  // namespace smt::pipeline
