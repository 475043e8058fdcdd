// The SMT out-of-order pipeline.
//
// Cycle-level model of an 8-context simultaneous-multithreading processor
// in the style of SimpleSMT / Tullsen's ICOUNT.2.8 machine:
//
//   fetch (2 threads, 8 instrs, cache-block fragmentation)
//     → decode/rename delay queue (frontend_delay stages; stalls on
//       IQ/LSQ/renaming-register exhaustion)
//     → separate INT and FP instruction queues (shared by all threads)
//     → issue (oldest-first over ready instructions, FU constraints)
//     → execute (per-class latency; loads/stores through the real caches)
//     → per-thread in-order commit (shared commit bandwidth)
//
// Branches predict through a real gshare+BTB; a misprediction switches the
// thread's fetch to synthesized wrong-path instructions which occupy fetch
// slots, queues and functional units until the branch resolves and the
// thread squashes — the waste that motivates BRCOUNT-style policies.
//
// The object is value-semantic: copying a Pipeline snapshots the complete
// microarchitectural + workload state, enabling exact quantum re-runs
// (oracle scheduling).
//
// Data layout (DESIGN.md §17): the per-thread window is a structure of
// arrays — parallel per-slot arrays indexed by `seq & slot_mask_` — not an
// array of instruction objects. Dependency wakeup is a bit test against a
// per-thread done bitmask (the dep1/dep2 distance encoding names the
// producer slot directly), issue selection runs ctz-driven over per-queue
// 64-bit ready masks, and the completion ring is a flat power-of-two ring
// with fixed per-slot lanes. The golden stats digests (test_stats_identity)
// pin this layout to the exact cycle behaviour of the original
// object-per-instruction core.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "branch/predictor.hpp"
#include "common/drop_on_copy.hpp"
#include "common/fixed_queue.hpp"
#include "common/rng.hpp"
#include "isa/instruction.hpp"
#include "mem/hierarchy.hpp"
#include "obs/cpi_stack.hpp"
#include "obs/metrics.hpp"
#include "obs/stall.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_sink.hpp"
#include "pipeline/config.hpp"
#include "pipeline/counters.hpp"
#include "policy/fetch_policy.hpp"
#include "prof/phase_profiler.hpp"
#include "workload/thread_program.hpp"

namespace smt::obs {
class TraceSink;
}  // namespace smt::obs

namespace smt::pipeline {

/// One pipeview sampling window: starting at `start_cycle`, the next
/// `count` fetched instructions get full lifecycle records. Windows are
/// consumed in start-cycle order, one at a time.
struct PipeviewWindow {
  std::uint64_t start_cycle = 0;
  std::uint64_t count = 0;
};

/// Aggregate machine statistics (whole-run).
struct PipelineStats {
  std::uint64_t cycles = 0;
  std::uint64_t committed = 0;
  std::uint64_t fetched = 0;
  std::uint64_t fetched_wrong_path = 0;
  std::uint64_t squashed = 0;
  std::uint64_t branches_resolved = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t btb_misses = 0;
  std::uint64_t syscall_flushes = 0;
  std::uint64_t fetch_slots_idle = 0;  ///< slots no normal thread could use
  std::uint64_t dt_slots_used = 0;     ///< idle slots consumed by the DT

  [[nodiscard]] double ipc() const noexcept {
    return cycles ? static_cast<double>(committed) / static_cast<double>(cycles)
                  : 0.0;
  }
};

class Pipeline {
 public:
  /// One workload program per hardware context (max 8 normal contexts by
  /// convention; the detector thread does not take a workload slot).
  Pipeline(const PipelineConfig& cfg,
           std::vector<workload::ThreadProgram> programs);

  Pipeline(const Pipeline&) = default;
  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(const Pipeline&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  /// Advance one cycle. Always runs every stage: the per-cycle reference
  /// path that run()'s leaps are checked against.
  void step();

  /// Advance n cycles: step() on live cycles, leap() over quiet spans.
  /// The resulting state equals that of n step() calls.
  void run(std::uint64_t n);

  // --- quiet-cycle leaping (DESIGN.md §19) --------------------------------
  /// Cycles, starting at now() and at most `limit`, in which no stage can
  /// act: nothing completes (empty completion lanes), issues, dispatches,
  /// commits or fetches (every thread is fetch-blocked). 0 when this cycle
  /// is live. The span ends at the first cycle where any of that can
  /// change: a non-empty lane, a fetch stall or block expiring, the
  /// dispatch-FIFO head leaving the front end, and with CPI accounting
  /// on, a switch-stall window or a window head's front-end release.
  [[nodiscard]] std::uint64_t quiet_span(std::uint64_t limit) const;

  /// Advance `k` quiet cycles at once, applying in bulk exactly the side
  /// effects k step() calls would have had (cycle counters, idle fetch
  /// slots, DT slot use, the round-robin stall ledger, LSQ-full events,
  /// CPI charges). Precondition: k <= quiet_span(k).
  void leap(std::uint64_t k);

  /// Cycles advanced by leap() (observability for tests; deliberately
  /// not exported to the stats document).
  [[nodiscard]] std::uint64_t cycles_leapt() const noexcept {
    return cycles_leapt_;
  }

  // --- fetch policy control (what the detector thread manipulates) -----
  void set_policy(policy::FetchPolicy p) noexcept { policy_ = p; }
  [[nodiscard]] policy::FetchPolicy policy() const noexcept { return policy_; }

  /// Thread-control flag: prevent `tid` from fetching until `cycle`.
  /// Two callers set it, both charged as StallCause::kFetchBlackout:
  /// clogging-thread suspension (the "suspend a clogging thread" action
  /// of §3) and the policy-switch penalty window. The later deadline
  /// wins: a short switch penalty never cuts a running suspension short.
  void block_fetch(std::uint32_t tid, std::uint64_t until_cycle);

  /// Context switch: replace the workload on context `tid` with
  /// `incoming`, returning the outgoing program (with its position
  /// preserved, so the job scheduler can resume it later). In-flight
  /// instructions of the thread are squashed (discarded, not replayed —
  /// they belong to the outgoing job and will be refetched when it next
  /// runs), the thread's load mark is set (its event totals run on), and
  /// fetch stalls for `penalty_cycles` to model the OS switch cost.
  [[nodiscard]] workload::ThreadProgram swap_program(
      std::uint32_t tid, workload::ThreadProgram incoming,
      std::uint64_t penalty_cycles);

  // --- detector-thread execution model ---------------------------------
  /// Queue `instrs` of detector-thread work; the DT retires them only
  /// through fetch slots left idle by normal threads (it has the lowest
  /// priority and a private program cache, per §3).
  void add_dt_work(std::uint64_t instrs) noexcept { dt_work_ += instrs; }
  [[nodiscard]] std::uint64_t dt_work_remaining() const noexcept {
    return dt_work_;
  }

  // --- observation ------------------------------------------------------
  [[nodiscard]] std::uint64_t now() const noexcept { return cycle_; }
  [[nodiscard]] std::uint32_t num_threads() const noexcept {
    return static_cast<std::uint32_t>(threads_.size());
  }
  [[nodiscard]] const PipelineConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const PipelineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ThreadCounters& counters(std::uint32_t tid) const {
    return threads_[tid].counters;
  }
  [[nodiscard]] const workload::ThreadProgram& program(std::uint32_t tid) const {
    return threads_[tid].program;
  }
  [[nodiscard]] const mem::Hierarchy& memory() const noexcept { return mem_; }
  [[nodiscard]] const branch::Predictor& predictor() const noexcept {
    return bp_;
  }

  /// Committed instructions (all threads) since construction.
  [[nodiscard]] std::uint64_t committed_total() const noexcept {
    return stats_.committed;
  }

  // --- stall attribution (observability) --------------------------------
  /// Per-thread lost-fetch-slot breakdown, accumulated since construction.
  /// Every fetch slot that no thread used (and the DT did not absorb) is
  /// charged to exactly one cause on exactly one thread — or, when no
  /// thread was blocked (pure fetch fragmentation / fetch_threads limit
  /// with nothing to blame), to the machine-level bucket below.
  [[nodiscard]] const obs::StallBreakdown& stall_breakdown(
      std::uint32_t tid) const {
    return threads_[tid].stalls;
  }
  /// Lost slots not attributable to any specific thread.
  [[nodiscard]] const obs::StallBreakdown& machine_stall_breakdown()
      const noexcept {
    return machine_stalls_;
  }
  /// Total charged stall slots across all threads plus the machine bucket.
  /// Invariant: charged_stall_slots() + stats().dt_slots_used ==
  /// stats().fetch_slots_idle.
  [[nodiscard]] std::uint64_t charged_stall_slots() const noexcept;

  // --- CPI-stack commit-slot accounting (observability) -------------------
  /// Enable top-down commit-slot accounting: from the next step() on,
  /// every commit-width slot of every thread is charged each cycle to
  /// exactly one CpiCause (obs/cpi_stack.hpp). Accounting is pure
  /// observation — it reads pipeline state after the stages ran and
  /// never feeds back, so an accounted run's simulated results are
  /// bit-identical to an unaccounted one (the golden stats digests lock
  /// this). Copying a pipeline drops the accounting state, the same
  /// observer contract as pipeview. Pass false to detach.
  void set_cpi_accounting(bool on);
  [[nodiscard]] bool cpi_accounting() const noexcept { return cpi_.enabled; }
  /// Per-thread commit-slot stack accumulated since accounting was
  /// enabled. Conservation: total() == commit_width × cpi_cycles_accounted.
  [[nodiscard]] const obs::CpiStack& cpi_stack(std::uint32_t tid) const {
    return cpi_.stacks[tid];
  }
  /// Cycles accounted since set_cpi_accounting(true).
  [[nodiscard]] std::uint64_t cpi_cycles_accounted() const noexcept {
    return cpi_.cycles_accounted;
  }

  /// Set every thread's quantum mark at now() (the detector thread does
  /// this at each quantum boundary). The event totals are untouched.
  void mark_quantum();

  // --- pipeview lifecycle sampling (observability) ------------------------
  /// Attach per-instruction lifecycle sampling: inside each window,
  /// fetched instructions get a record stamped at every stage they
  /// traverse and emitted into `sink` as one kPipeview event when they
  /// retire (commit or squash). Copying a pipeline drops its sampler —
  /// the same zero-perturbation contract as trace sinks — and sampling
  /// never feeds back into simulated state, so a sampled run's results
  /// are bit-identical to an unsampled one. `quantum_cycles` labels each
  /// event with the quantum its fetch fell into (0 = unlabelled). Pass a
  /// null sink to detach.
  void set_pipeview(obs::TraceSink* sink, std::vector<PipeviewWindow> windows,
                    std::uint64_t quantum_cycles);
  [[nodiscard]] bool pipeview_active() const noexcept {
    return pview_.sink != nullptr;
  }
  /// Lifecycle records opened since set_pipeview (sampled fetches).
  [[nodiscard]] std::uint64_t pipeview_opened() const noexcept {
    return pview_.opened;
  }
  /// Records still in flight (opened but not yet committed/squashed).
  [[nodiscard]] std::uint64_t pipeview_in_flight() const noexcept {
    return pview_.live;
  }

  // --- host-phase profiling (src/prof) ------------------------------------
  /// Per-stage node handles a profiling caller resolves once (children of
  /// its "cycle" phase) and hands to the timed step().
  struct ProfNodes {
    prof::PhaseProfiler::Node commit = 0;
    prof::PhaseProfiler::Node complete = 0;
    prof::PhaseProfiler::Node issue = 0;
    prof::PhaseProfiler::Node dispatch = 0;
    prof::PhaseProfiler::Node fetch = 0;
  };

  /// step() with each of the five stage calls under an RAII phase scope
  /// of `p`. The caller decides which cycles are timed (Simulator::step's
  /// stride test); the pipeline keeps no profiler of its own, so a copy
  /// never times itself. Host ticks never feed back into simulated state:
  /// a timed step is bit-identical to a bare one.
  void step(prof::PhaseProfiler& p, const ProfNodes& nodes);

  // --- structural audit (src/check) --------------------------------------
  /// Result of a full structural resource audit: every occupancy counter
  /// recomputed from the windows and compared with the incrementally
  /// maintained values, plus capacity and program-order checks.
  struct ResourceAudit {
    bool ok = true;
    /// Bit `tid` set => that thread's occupancy counters (icount/brcount/
    /// ldcount/memcount/l1d_outstanding/frontend_count) disagree with a
    /// recount of its window.
    std::uint32_t thread_mismatch = 0;
    /// Bit `tid` set => that thread's window seqs are not contiguous from
    /// head_seq (program order broken).
    std::uint32_t seq_mismatch = 0;
    bool lsq_mismatch = false;         ///< lsq_used_ != Σ held LSQ entries
    bool int_rename_mismatch = false;  ///< held + free != configured regs
    bool fp_rename_mismatch = false;
    bool iq_overflow = false;  ///< an IQ holds more refs than its capacity
  };

  /// Recompute all shared-resource occupancy from first principles
  /// (O(total in-flight instructions) — the invariant checker runs it
  /// every cycle; per-cycle laws elsewhere stay O(threads)).
  [[nodiscard]] ResourceAudit audit_resources() const;

  /// Occupancy invariant check used by tests: true when audit_resources()
  /// finds every counter consistent.
  [[nodiscard]] bool check_counter_invariants() const {
    return audit_resources().ok;
  }

  /// Seq of the next instruction to commit on `tid` (its window head).
  /// Advances by exactly one per retired instruction and is preserved
  /// across squashes and context switches, so Δhead_seq equals the
  /// thread's Δtotal.committed between any two cycles.
  [[nodiscard]] std::uint64_t head_seq(std::uint32_t tid) const {
    return threads_[tid].head_seq;
  }

  // --- test-only corruption hooks (negative tests for src/check) ---------
  // Each hook silently breaks one bookkeeping law so tests can prove the
  // corresponding invariant-checker pass actually fires. Never called
  // outside tests/test_invariants.cpp.
  void testing_corrupt_icount(std::uint32_t tid, std::int32_t delta) {
    threads_[tid].counters.icount += delta;
  }
  void testing_corrupt_stall_ledger(std::uint64_t slots) {
    machine_stalls_.slots[0] += slots;
  }
  void testing_corrupt_committed(std::uint64_t delta) {
    stats_.committed += delta;
  }
  void testing_corrupt_thread_committed(std::uint32_t tid,
                                        std::int64_t delta) {
    threads_[tid].counters.total.committed +=
        static_cast<std::uint64_t>(delta);
  }
  void testing_corrupt_head_seq(std::uint32_t tid, std::uint64_t delta) {
    threads_[tid].head_seq += delta;
  }
  bool testing_corrupt_window_seq(std::uint32_t tid) {
    Thread& t = threads_[tid];
    if (t.next_seq == t.head_seq) return false;
    t.seq[slot_of(t.next_seq - 1)] += 7;
    return true;
  }
  /// Silently inflate one CPI-cause bucket so tests can prove the
  /// conservation check (obs::conservation_gap) fires for that class.
  void testing_corrupt_cpi(std::uint32_t tid, std::size_t cause,
                           std::uint64_t delta) {
    cpi_.stacks[tid].slots[cause] += delta;
  }

 private:
  /// Lifecycle of a window slot. kEmpty marks vacated slots (committed or
  /// squashed) so stale completion-ring references can never resurrect a
  /// ghost: a ring entry fires only on uid match AND state == kIssued.
  enum class InstrState : std::uint8_t {
    kEmpty = 0,
    kFrontEnd,
    kQueued,
    kIssued,
    kDone,
  };

  // Per-slot boolean flags, packed (parallel `flags` array).
  static constexpr std::uint8_t kFlagWrongPath = 1u << 0;
  static constexpr std::uint8_t kFlagMispredicted = 1u << 1;
  static constexpr std::uint8_t kFlagPredictedTaken = 1u << 2;
  static constexpr std::uint8_t kFlagRenameReg = 1u << 3;
  static constexpr std::uint8_t kFlagLsqEntry = 1u << 4;
  static constexpr std::uint8_t kFlagL1dOutstanding = 1u << 5;

  /// One hardware context. The in-flight window is a struct-of-arrays
  /// ring: parallel arrays of `window_cap_` slots indexed by
  /// `seq & slot_mask_`; slots with head_seq <= seq < next_seq are live.
  /// `seq` is stored explicitly (it is derivable from the index) because
  /// the structural audit checks program-order contiguity against it and
  /// the corruption hooks need to be able to break it.
  struct Thread {
    workload::ThreadProgram program;
    ThreadCounters counters;

    std::vector<isa::Instruction> si;  ///< decoded instruction per slot
    std::vector<std::uint64_t> seq;
    /// Issue tag: Pipeline::next_uid_ when the slot's instruction issued,
    /// matched against the completion-ring entry it pushed (DoneRef).
    std::vector<std::uint32_t> uid;
    std::vector<std::uint64_t> dispatch_ready;  ///< front-end release cycle
    std::vector<std::uint8_t> state;            ///< InstrState
    std::vector<std::uint8_t> flags;            ///< kFlag* bits
    /// Bit (seq & slot_mask_) set => that slot's instruction is kDone.
    /// Dependency wakeup is a test against this mask: dep distances name
    /// the producer slot directly, no object chasing. Bits are reset when
    /// a slot is (re)claimed at fetch, so only live slots are meaningful.
    std::vector<std::uint64_t> done_bits;

    std::uint64_t head_seq = 0;  ///< seq of the oldest in-flight instruction
    std::uint64_t next_seq = 0;  ///< seq of the next fetched instruction
    /// Squashed correct-path instructions awaiting refetch, as a stack:
    /// back() is the oldest, fetched next. Empty except after a syscall
    /// flush, so a snapshot copies nothing here.
    std::vector<isa::Instruction> replay;
    bool wrong_path_mode = false;
    std::uint64_t wrong_pc = 0;
    std::int32_t frontend_count = 0;  ///< instrs in state kFrontEnd
    std::uint64_t fetch_stall_until = 0;
    std::uint64_t fetch_block_until = 0;  ///< thread-control flag (ADTS)
    bool icache_stalled = false;   ///< fetch_stall caused by an L1I miss
    /// Fetch-buffer bypass: the I-block whose miss just completed can be
    /// fetched once without a new I-cache lookup (critical-word delivery;
    /// also prevents livelock when contending threads evict the line
    /// before the stalled thread retries).
    std::uint64_t delivered_block = ~std::uint64_t{0};
    /// Lost-fetch-slot attribution (pipeline lifetime; survives context
    /// switches so slot conservation holds over the whole run).
    obs::StallBreakdown stalls;
    /// Per-window-slot waiter chains: head of the list of IQ entry ids
    /// (int queue 0–63, fp queue 64–127, kNoWaiter = none) blocked on
    /// this slot's instruction. do_complete pops the chain when the
    /// producer's done bit is set. Links live in Pipeline::waiter_next_.
    std::vector<std::uint8_t> waiter_head;
  };

  /// Issue-queue entry. `age` drives the oldest-first merge; `is_mem`
  /// and the producer seqs (`pr1`/`pr2`, -1 = no in-flight producer
  /// possible) are cached at dispatch so readiness checks read only this
  /// entry plus the owning thread's head_seq and done bitmask — no
  /// instruction-array access. Entries are scrubbed at squash time, so
  /// they are never stale.
  struct IqRef {
    std::uint64_t age = 0;
    std::int64_t pr1 = -1;  ///< dep1 producer seq, -1 = architected
    std::int64_t pr2 = -1;
    std::uint32_t tid = 0;
    std::uint32_t slot = 0;
    bool is_mem = false;
  };

  /// Fixed-slot issue queue (<= 64 entries, enforced at construction).
  /// Entries never move: occupancy, readiness and mem-op membership are
  /// bitmasks over slot positions, so issue selection iterates only the
  /// ready set and vacating a slot is two mask ANDs — there is no
  /// per-cycle compaction or rescan.
  struct IssueQueue {
    std::array<IqRef, 64> slots{};
    std::uint64_t occ = 0;    ///< slot holds a live kQueued entry
    std::uint64_t ready = 0;  ///< subset of occ: all producers complete
    std::uint64_t mem = 0;    ///< subset of occ: loads/stores (int queue)
  };

  /// Are both producers of IQ entry `r` architecturally complete?
  /// Exactly the dep-distance rule: a producer seq below head_seq has
  /// committed (architected value); otherwise its done bit decides.
  [[nodiscard]] bool iq_ready(const IqRef& r) const {
    const Thread& t = threads_[r.tid];
    const auto head = static_cast<std::int64_t>(t.head_seq);
    if (r.pr1 >= head &&
        !done_bit(t, slot_of(static_cast<std::uint64_t>(r.pr1)))) {
      return false;
    }
    if (r.pr2 >= head &&
        !done_bit(t, slot_of(static_cast<std::uint64_t>(r.pr2)))) {
      return false;
    }
    return true;
  }

  /// Dispatch-FIFO entry (scrubbed at squash time like IQ refs).
  struct FifoRef {
    std::uint32_t tid = 0;
    std::uint32_t slot = 0;
  };

  /// Completion-ring entry. The issue tag plus the kIssued state
  /// requirement make stale entries — squashed instructions whose slot
  /// was vacated or reclaimed — inert. Tags are 32 bits and wrap, but an
  /// entry lives under kCompletionRing cycles and at most 128 (both IQs)
  /// instructions issue a cycle, so a slot reissued in its lifetime
  /// carries a tag 1 to 2^15 past the entry's: never equal (DESIGN.md §17).
  struct DoneRef {
    std::uint32_t uid = 0;
    std::uint16_t tid = 0;
    std::uint16_t slot = 0;
  };
  static_assert(sizeof(DoneRef) == 8);

  [[nodiscard]] std::uint32_t slot_of(std::uint64_t seq) const noexcept {
    return static_cast<std::uint32_t>(seq) & slot_mask_;
  }
  [[nodiscard]] std::uint64_t win_size(const Thread& t) const noexcept {
    return t.next_seq - t.head_seq;
  }
  [[nodiscard]] bool win_empty(const Thread& t) const noexcept {
    return t.next_seq == t.head_seq;
  }
  [[nodiscard]] bool win_full(const Thread& t) const noexcept {
    return win_size(t) >= cfg_.rob_per_thread;
  }
  static void set_done_bit(Thread& t, std::uint32_t slot) noexcept {
    t.done_bits[slot >> 6] |= 1ull << (slot & 63);
  }
  static void clear_done_bit(Thread& t, std::uint32_t slot) noexcept {
    t.done_bits[slot >> 6] &= ~(1ull << (slot & 63));
  }
  [[nodiscard]] static bool done_bit(const Thread& t,
                                     std::uint32_t slot) noexcept {
    return (t.done_bits[slot >> 6] >> (slot & 63)) & 1u;
  }

  // Stage implementations, called in reverse pipeline order each cycle.
  void do_commit();
  void do_complete();
  void do_issue();
  void do_dispatch();
  void do_fetch();

  /// Why `t` cannot be a fetch candidate this cycle, in do_fetch's order:
  /// StallCause + 1, or 0 when it can fetch.
  [[nodiscard]] std::uint8_t fetch_block_cause(const Thread& t) const noexcept;

  /// First structural hazard, in do_dispatch's check order, that keeps an
  /// instruction of class `cls` at the FIFO head out of the queues.
  enum class DispatchHazard : std::uint8_t {
    kNone,
    kIqFull,
    kLsqFull,
    kRenameFull,
  };
  [[nodiscard]] DispatchHazard dispatch_hazard(
      isa::InstrClass cls) const noexcept;

  /// Classify IQ entry `id` (int queue 0–63, fp queue 64–127) whose ref
  /// is `r`: set its ready bit, or enlist it on the waiter chain of its
  /// first outstanding producer so do_complete wakes it later.
  void place_entry(std::uint32_t id, const IqRef& r);

  /// Squash all instructions of `tid` with seq >= `first_seq`.
  /// When `replay_correct_path` is set, squashed correct-path instructions
  /// are queued for refetch *ahead of* any instructions already waiting in
  /// the replay queue (they are older in program order); wrong-path
  /// instructions are always discarded. `cause` labels the terminal of
  /// any pipeview-tracked victim.
  void squash_from(std::uint32_t tid, std::uint64_t first_seq,
                   bool replay_correct_path, obs::PipeTerminal cause);

  /// Full-machine drain for a system call (paper §6's conservative
  /// assumption: "all threads have to flush out of the pipeline").
  void syscall_flush(std::uint32_t syscall_tid);

  void release_instr_resources(std::uint32_t tid, std::uint32_t slot,
                               bool completed_ok);

  [[nodiscard]] std::uint32_t load_latency(std::uint32_t tid, Thread& t,
                                           std::uint32_t slot);

  void completion_push(std::uint64_t done_cycle, const DoneRef& ref);
  void completion_grow();

  PipelineConfig cfg_;
  policy::FetchPolicy policy_ = policy::FetchPolicy::kIcount;

  std::uint32_t window_cap_ = 0;  ///< power of two >= cfg.rob_per_thread
  std::uint32_t slot_mask_ = 0;   ///< window_cap_ - 1

  std::vector<Thread> threads_;
  mem::Hierarchy mem_;
  branch::Predictor bp_;

  // Shared structures.
  /// Global dispatch FIFO: instructions enter in fetch order and the
  /// rename/dispatch stage drains it in order with head-of-line blocking
  /// on structural hazards (SimpleScalar-style single fetch queue). This
  /// is what transmits fetch priority to the shared queues: a clogging
  /// thread's instructions at the FIFO head stall everyone behind them —
  /// unless the fetch policy stopped fetching that thread first.
  FixedQueue<FifoRef> dispatch_fifo_;
  /// Capacity <= 64 per queue (enforced at construction) so occupancy,
  /// readiness and mem-op membership are single 64-bit masks.
  IssueQueue int_iq_;
  IssueQueue fp_iq_;
  /// Waiter-chain links, indexed by IQ entry id (int 0–63, fp 64–127);
  /// heads live in each thread's per-window-slot waiter_head array.
  static constexpr std::uint8_t kNoWaiter = 0xFF;
  std::array<std::uint8_t, 128> waiter_next_{};
  std::uint32_t int_rename_free_ = 0;
  std::uint32_t fp_rename_free_ = 0;
  std::uint32_t lsq_used_ = 0;  ///< shared load/store queue occupancy

  /// Completion ring: flat power-of-two ring, `completion_lane_` entry
  /// slots per cycle lane, indexed by done_cycle & (kCompletionRing-1).
  /// Lane overflow doubles the lane width (rare; order-preserving).
  static constexpr std::uint32_t kCompletionRing = 256;
  std::vector<DoneRef> completion_;          ///< kCompletionRing × lane
  std::vector<std::uint32_t> completion_n_;  ///< per-lane fill count
  std::uint32_t completion_lane_ = 0;

  std::uint64_t cycle_ = 0;
  std::uint32_t next_uid_ = 1;  ///< next issue tag (wraps; see DoneRef)
  std::uint64_t next_age_ = 1;  ///< next IqRef::age (dispatch order)
  std::uint64_t dt_work_ = 0;
  std::uint64_t cycles_leapt_ = 0;

  PipelineStats stats_;
  obs::StallBreakdown machine_stalls_;  ///< lost slots with no thread to blame

  // --- pipeview sampler ---------------------------------------------------
  /// All sampler state, in one DropOnCopy so a copied Pipeline starts
  /// without it while the pipeline keeps defaulted copy operations.
  struct PipeviewState {
    obs::TraceSink* sink = nullptr;
    std::vector<PipeviewWindow> windows;  ///< sorted by start_cycle
    std::size_t wi = 0;                   ///< current window
    std::uint64_t taken = 0;              ///< samples taken in window wi
    std::uint64_t quantum_cycles = 0;
    std::uint64_t opened = 0;  ///< lifetime records opened
    std::uint64_t live = 0;    ///< records currently in flight
    /// Each tracked instruction's prefilled kPipeview event; records are
    /// recycled through `free_slots`, so memory is bounded by the most
    /// tracked instructions ever in flight at once.
    std::vector<obs::TraceEvent> records;
    std::vector<std::int32_t> free_slots;
    /// Record of each window slot, tid * window_cap_ + slot; -1 =
    /// untracked. Sized when a sink attaches, so a copy carries none.
    std::vector<std::int32_t> rec_of;
  };
  DropOnCopy<PipeviewState> pview_;

  /// All CPI-stack accounting state, dropped on copy like PipeviewState
  /// (observer contract: an oracle snapshot must not account).
  /// The per-cycle scratch (fetch_cause, issued_tids) is written by the
  /// stages under an `enabled` guard and consumed by account_cpi() at
  /// the end of the same step().
  struct CpiState {
    bool enabled = false;
    std::uint64_t cycles_accounted = 0;
    /// Threads that issued an instruction this cycle (per-cycle scratch;
    /// holder attribution for lost issue arbitration).
    std::uint64_t issued_tids = 0;
    std::vector<obs::CpiStack> stacks;          ///< per-thread accounts
    std::vector<std::uint64_t> prev_head_seq;   ///< Δ == committed/cycle
    /// Per-cycle fetch outcome: 0 = fetched (or no cause recorded),
    /// else StallCause + 1 — the cause that kept fetch from feeding
    /// this thread's empty window.
    std::vector<std::uint8_t> fetch_cause;
    /// Context-switch penalty window: a fetch_stall charged while
    /// cycle < swap_stall_until is switch overhead, not squash recovery.
    std::vector<std::uint64_t> swap_stall_until;
    /// Sticky charge for front-end refill cycles: the (cause, rob-empty
    /// sub-cause) that last emptied the window, so the frontend_delay
    /// refill after e.g. an I-cache drain keeps that attribution.
    std::vector<std::uint8_t> refill_cause;  ///< CpiCause
    std::vector<std::int8_t> refill_sub;     ///< StallCause, -1 = none
  };
  DropOnCopy<CpiState> cpi_;

  /// End-of-step() accounting pass: charge each thread's commit_width
  /// slots for this cycle, or for `cycles` identical quiet cycles from
  /// leap() (nothing committed or issued, so every charge is constant
  /// over the span). O(threads), no heap, reads the post-stage window
  /// heads only.
  void account_cpi(std::uint64_t cycles);
  /// Charge `lost` kFuContention slots on `tid`, distributing holder
  /// blame round-robin over `holders` (a tid bitmask; self is excluded
  /// unless it is the only holder).
  void charge_cpi_contention(std::uint32_t tid, std::uint64_t lost,
                             std::uint64_t holders);

  /// The end of every step() after its five stages: CPI accounting and
  /// the cycle count.
  void finish_step();

  // The helpers below run only with a sink attached: each call
  // site guards them with a cheap `pview_.sink != nullptr` test.
  /// The record index of `tid`'s window slot `slot` (-1 = untracked).
  [[nodiscard]] std::int32_t& pview_rec(std::uint32_t tid,
                                        std::uint32_t slot) {
    return pview_.rec_of[tid * std::size_t{window_cap_} + slot];
  }
  /// Open a lifecycle record for the instruction in `slot` if the active
  /// window wants one (called at fetch).
  void pview_open(std::uint32_t tid, std::uint32_t slot);
  /// Stamp the slot's record, if it has one, at `stage` with the current
  /// cycle.
  void pview_stamp(std::uint32_t tid, std::uint32_t slot,
                   obs::PipeStage stage);
  /// Finish the slot's record, if it has one, with terminal `term` and
  /// emit the kPipeview event.
  void pview_close(std::uint32_t tid, std::uint32_t slot,
                   obs::PipeTerminal term);

  // --- reused scratch buffers (hot-path allocation avoidance) -----------
  // These hold no state between cycles — each user clears its buffer
  // before filling it — so copying them with the pipeline is harmless;
  // they exist only to keep the per-cycle loop free of heap allocation.
  /// Fetch candidate, sorted by the active policy's priority key.
  struct FetchCand {
    std::uint32_t tid;
    double key;
    std::uint32_t tie;
  };
  std::vector<FetchCand> fetch_cands_;  ///< do_fetch candidate list
  std::vector<FifoRef> squash_keep_;    ///< dispatch-FIFO rebuild
};

/// Export the pipeline's whole-run statistics and per-thread stall
/// breakdowns into `reg` under "machine." / "threads.<tid>." prefixes.
void export_metrics(const Pipeline& pipe, obs::MetricsRegistry& reg);

}  // namespace smt::pipeline
