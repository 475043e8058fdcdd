#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "isa/instruction.hpp"
#include "mem/hierarchy.hpp"
#include "obs/cpi_stack.hpp"
#include "obs/metrics.hpp"
#include "obs/slot_ledger.hpp"
#include "obs/stall.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_schema.hpp"
#include "obs/trace_sink.hpp"
#include "prof/phase_profiler.hpp"
#include "workload/thread_program.hpp"

namespace smt::pipeline {

namespace {

[[nodiscard]] bool has_dst_reg(isa::InstrClass c) noexcept {
  using isa::InstrClass;
  switch (c) {
    case InstrClass::kIntAlu:
    case InstrClass::kIntMul:
    case InstrClass::kIntDiv:
    case InstrClass::kFpAdd:
    case InstrClass::kFpMul:
    case InstrClass::kFpDiv:
    case InstrClass::kLoad:
      return true;
    case InstrClass::kStore:
    case InstrClass::kBranch:
    case InstrClass::kSyscall:
      return false;
  }
  return false;
}

/// Depth to scan the in-flight window for store→load forwarding.
constexpr std::uint64_t kForwardScanDepth = 16;

[[nodiscard]] unsigned ctz64(std::uint64_t x) noexcept {
  return static_cast<unsigned>(__builtin_ctzll(x));
}

[[nodiscard]] unsigned popcount64(std::uint64_t x) noexcept {
  return static_cast<unsigned>(__builtin_popcountll(x));
}

}  // namespace

Pipeline::Pipeline(const PipelineConfig& cfg,
                   std::vector<workload::ThreadProgram> programs)
    : cfg_(cfg),
      mem_(cfg.memory),
      bp_(cfg.predictor),
      int_rename_free_(cfg.int_rename_regs),
      fp_rename_free_(cfg.fp_rename_regs) {
  if (programs.empty()) {
    throw std::invalid_argument("Pipeline: needs at least one program");
  }
  if (programs.size() + 1 > cfg.memory.max_threads ||
      programs.size() + 1 > cfg.predictor.max_threads) {
    throw std::invalid_argument(
        "Pipeline: thread count exceeds memory/predictor configuration");
  }
  if (cfg.memory.mem_latency + cfg.lat_int_div + 2 >= kCompletionRing) {
    throw std::invalid_argument("Pipeline: latency exceeds completion ring");
  }
  if (cfg.int_alus == 0 || cfg.mem_ports == 0 || cfg.fp_units == 0 ||
      cfg.fetch_width == 0 || cfg.fetch_threads == 0 ||
      cfg.dispatch_width == 0 || cfg.issue_width == 0 ||
      cfg.commit_width == 0) {
    // Some instruction could never issue, or the machine never moves.
    throw std::invalid_argument("Pipeline: a unit count or width is 0");
  }
  if (cfg.int_iq_size > 64 || cfg.fp_iq_size > 64) {
    // Per-cycle ready/mem/issued sets are single 64-bit masks.
    throw std::invalid_argument("Pipeline: IQ size exceeds 64");
  }

  window_cap_ = 1;
  while (window_cap_ < cfg.rob_per_thread) window_cap_ <<= 1;
  slot_mask_ = window_cap_ - 1;
  if (window_cap_ > 0x10000 || programs.size() > 0x10000) {
    // A completion-ring entry names its thread and slot in 16 bits each.
    throw std::invalid_argument(
        "Pipeline: rob_per_thread or thread count exceeds 65536");
  }

  threads_.reserve(programs.size());
  for (auto& prog : programs) {
    Thread t;
    t.program = std::move(prog);
    t.si.resize(window_cap_);
    t.seq.resize(window_cap_, 0);
    t.uid.resize(window_cap_, 0);
    t.dispatch_ready.resize(window_cap_, 0);
    t.state.resize(window_cap_,
                   static_cast<std::uint8_t>(InstrState::kEmpty));
    t.flags.resize(window_cap_, 0);
    t.done_bits.resize((window_cap_ + 63) / 64, 0);
    t.waiter_head.assign(window_cap_, kNoWaiter);
    threads_.push_back(std::move(t));
  }
  waiter_next_.fill(kNoWaiter);
  dispatch_fifo_ = FixedQueue<FifoRef>(
      threads_.size() * cfg.fetch_buffer_cap + cfg.fetch_width);

  // Pre-size the per-cycle scratch and the completion ring so the
  // steady-state loop never heap-allocates.
  fetch_cands_.reserve(threads_.size());
  squash_keep_.reserve(dispatch_fifo_.capacity());
  completion_lane_ = cfg.issue_width;
  completion_.resize(std::size_t{kCompletionRing} * completion_lane_);
  completion_n_.assign(kCompletionRing, 0);
}

void Pipeline::run(std::uint64_t n) {
  const std::uint64_t end = cycle_ + n;
  while (cycle_ < end) {
    const std::uint64_t k = quiet_span(end - cycle_);
    if (k > 0) {
      leap(k);
    } else {
      step();
    }
  }
}

void Pipeline::step() {
  do_commit();
  do_complete();
  do_issue();
  do_dispatch();
  do_fetch();
  finish_step();
}

void Pipeline::step(prof::PhaseProfiler& p, const ProfNodes& nodes) {
  using Scope = prof::PhaseProfiler::Scope;
  {
    const Scope s(&p, nodes.commit);
    do_commit();
  }
  {
    const Scope s(&p, nodes.complete);
    do_complete();
  }
  {
    const Scope s(&p, nodes.issue);
    do_issue();
  }
  {
    const Scope s(&p, nodes.dispatch);
    do_dispatch();
  }
  {
    const Scope s(&p, nodes.fetch);
    do_fetch();
  }
  finish_step();
}

void Pipeline::finish_step() {
  if (cpi_.enabled) account_cpi(1);

  ++stats_.cycles;
  ++cycle_;
}

// ---------------------------------------------------------------------------
// Completion ring.
// ---------------------------------------------------------------------------
void Pipeline::completion_push(std::uint64_t done_cycle, const DoneRef& ref) {
  const std::uint32_t lane =
      static_cast<std::uint32_t>(done_cycle) & (kCompletionRing - 1);
  if (completion_n_[lane] == completion_lane_) completion_grow();
  completion_[std::size_t{lane} * completion_lane_ + completion_n_[lane]++] =
      ref;
}

void Pipeline::completion_grow() {
  const std::uint32_t next_lane = completion_lane_ * 2;
  std::vector<DoneRef> next(std::size_t{kCompletionRing} * next_lane);
  for (std::uint32_t lane = 0; lane < kCompletionRing; ++lane) {
    for (std::uint32_t k = 0; k < completion_n_[lane]; ++k) {
      next[std::size_t{lane} * next_lane + k] =
          completion_[std::size_t{lane} * completion_lane_ + k];
    }
  }
  completion_.swap(next);
  completion_lane_ = next_lane;
}

// ---------------------------------------------------------------------------
// Commit: per-thread in-order retirement, shared bandwidth, rotating start.
// ---------------------------------------------------------------------------
void Pipeline::do_commit() {
  std::uint32_t budget = cfg_.commit_width;
  const std::uint32_t n = num_threads();
  // One division per cycle for the rotating start; the loop then wraps by
  // compare (runtime-n modulo is a hardware divide, and this loop runs n
  // times every cycle).
  std::uint32_t tid = static_cast<std::uint32_t>(cycle_ % n);
  for (std::uint32_t i = 0; i < n && budget > 0;
       ++i, tid = (tid + 1 == n ? 0 : tid + 1)) {
    Thread& t = threads_[tid];
    while (budget > 0 && !win_empty(t)) {
      const std::uint32_t slot = slot_of(t.head_seq);
      if (t.state[slot] != static_cast<std::uint8_t>(InstrState::kDone)) break;
      assert(!(t.flags[slot] & kFlagWrongPath) &&
             "wrong-path instruction reached commit");

      const bool is_syscall = t.si[slot].cls == isa::InstrClass::kSyscall;
      if (pview_.sink != nullptr) {
        pview_close(tid, slot, obs::PipeTerminal::kCommit);
      }
      release_instr_resources(tid, slot, /*completed_ok=*/true);
      ++t.counters.total.committed;
      ++stats_.committed;
      --budget;
      t.state[slot] = static_cast<std::uint8_t>(InstrState::kEmpty);
      ++t.head_seq;
      if (is_syscall) {
        syscall_flush(tid);
        break;  // the whole machine just drained
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Complete: retire execution results scheduled for this cycle; resolve
// branches, trigger mispredict squashes.
// ---------------------------------------------------------------------------
void Pipeline::do_complete() {
  const std::uint32_t lane =
      static_cast<std::uint32_t>(cycle_) & (kCompletionRing - 1);
  const std::uint32_t count = completion_n_[lane];
  for (std::uint32_t k = 0; k < count; ++k) {
    const DoneRef ref =
        completion_[std::size_t{lane} * completion_lane_ + k];
    Thread& t = threads_[ref.tid];
    // Stale-reference check: no other issue in the entry's lifetime took
    // its tag (DoneRef), so a match means this is the same instruction
    // and it is still in flight; requiring kIssued rejects squashed slots
    // (kEmpty) and reclaimed ones not issued again.
    if (t.uid[ref.slot] != ref.uid ||
        t.state[ref.slot] != static_cast<std::uint8_t>(InstrState::kIssued)) {
      continue;
    }
    const std::uint32_t slot = ref.slot;

    t.state[slot] = static_cast<std::uint8_t>(InstrState::kDone);
    set_done_bit(t, slot);
    // Wake the IQ entries parked on this producer: each either becomes
    // ready or moves to its other outstanding producer's chain.
    std::uint8_t w = t.waiter_head[slot];
    t.waiter_head[slot] = kNoWaiter;
    while (w != kNoWaiter) {
      const std::uint8_t nxt = waiter_next_[w];
      place_entry(w, w < 64 ? int_iq_.slots[w] : fp_iq_.slots[w - 64]);
      w = nxt;
    }
    if (pview_.sink != nullptr) {
      pview_stamp(ref.tid, slot, obs::PipeStage::kWriteback);
    }
    ThreadCounters& c = t.counters;
    const isa::InstrClass cls = t.si[slot].cls;
    if (cls == isa::InstrClass::kLoad) {
      --c.icount;  // leaves the load queue
      --c.ldcount;
      --c.memcount;
      if (t.flags[slot] & kFlagL1dOutstanding) {
        --c.l1d_outstanding;
        t.flags[slot] &= static_cast<std::uint8_t>(~kFlagL1dOutstanding);
      }
    } else if (cls == isa::InstrClass::kStore) {
      --c.icount;  // leaves the store queue
      --c.memcount;
    } else if (cls == isa::InstrClass::kBranch) {
      --c.brcount;
      if (!(t.flags[slot] & kFlagWrongPath)) {
        const bool mispredicted = (t.flags[slot] & kFlagMispredicted) != 0;
        ++stats_.branches_resolved;
        ++c.total.cond_branches;
        bp_.update(ref.tid, t.si[slot].pc, t.si[slot].taken,
                   t.si[slot].branch_target, mispredicted);
        if (mispredicted) {
          ++stats_.mispredicts;
          ++c.total.mispredicts;
          squash_from(ref.tid, t.seq[slot] + 1, /*replay_correct_path=*/false,
                      obs::PipeTerminal::kSquashMispredict);
          t.wrong_path_mode = false;
          t.fetch_stall_until =
              std::max<std::uint64_t>(t.fetch_stall_until,
                                      cycle_ + cfg_.mispredict_penalty);
        }
      }
    }
  }
  completion_n_[lane] = 0;
}

// ---------------------------------------------------------------------------
// Issue: oldest-first over both queues, FU and width constraints.
// ---------------------------------------------------------------------------
std::uint32_t Pipeline::load_latency(std::uint32_t tid, Thread& t,
                                     std::uint32_t slot) {
  // Store→load forwarding from the in-flight window (bounded scan).
  const std::uint64_t seq = t.seq[slot];
  const std::uint64_t addr = t.si[slot].mem_addr;
  const std::uint64_t limit = std::min<std::uint64_t>(
      kForwardScanDepth, seq > t.head_seq ? seq - t.head_seq : 0);
  for (std::uint64_t k = 1; k <= limit; ++k) {
    const isa::Instruction& older = t.si[slot_of(seq - k)];
    if (older.cls == isa::InstrClass::kStore && older.mem_addr == addr) {
      return cfg_.lat_int_alu;  // forwarded: ALU-like latency
    }
  }
  const mem::AccessResult r = mem_.lookup_data(tid, addr, /*write=*/false);
  if (r.l1_miss) ++t.counters.total.l1d_misses;
  return r.latency;
}

void Pipeline::do_issue() {
  std::uint32_t total = cfg_.issue_width;
  std::uint32_t int_budget = cfg_.int_alus;
  std::uint32_t mem_budget = cfg_.mem_ports;
  std::uint32_t fp_budget = cfg_.fp_units;

  // The ready masks are maintained incrementally (dispatch marks or
  // enlists, do_complete wakes waiter chains), so this stage never
  // evaluates readiness: it repeatedly takes the globally-oldest ready
  // entry whose FU class still has budget. That greedy order is exactly
  // the old oldest-first walk's outcome — non-ready entries never
  // consumed budget there either — at a cost proportional to the ready
  // set (a handful) instead of the queue occupancy (up to 128).
  while (total > 0) {
    std::uint64_t int_cand = int_budget > 0 ? int_iq_.ready : 0;
    if (mem_budget == 0) int_cand &= ~int_iq_.mem;
    const std::uint64_t fp_cand = fp_budget > 0 ? fp_iq_.ready : 0;
    if ((int_cand | fp_cand) == 0) break;

    bool take_int = false;
    unsigned qidx = 0;
    std::uint64_t best_age = ~std::uint64_t{0};
    for (std::uint64_t m = int_cand; m != 0; m &= m - 1) {
      const unsigned i = ctz64(m);
      if (int_iq_.slots[i].age < best_age) {
        best_age = int_iq_.slots[i].age;
        qidx = i;
        take_int = true;
      }
    }
    for (std::uint64_t m = fp_cand; m != 0; m &= m - 1) {
      const unsigned i = ctz64(m);
      if (fp_iq_.slots[i].age < best_age) {
        best_age = fp_iq_.slots[i].age;
        qidx = i;
        take_int = false;
      }
    }

    IssueQueue& q = take_int ? int_iq_ : fp_iq_;
    const IqRef r = q.slots[qidx];
    const std::uint64_t bit = 1ull << qidx;
    q.occ &= ~bit;
    q.ready &= ~bit;
    q.mem &= ~bit;

    Thread& t = threads_[r.tid];
    const std::uint32_t slot = r.slot;
    assert(t.state[slot] == static_cast<std::uint8_t>(InstrState::kQueued));
    assert(iq_ready(r));
    const isa::InstrClass cls = t.si[slot].cls;

    // Issue it.
    std::uint32_t latency = cfg_.latency_for(cls);
    if (cls == isa::InstrClass::kLoad) {
      latency = load_latency(r.tid, t, slot);
      if (latency > cfg_.memory.l1_latency) {
        ++t.counters.l1d_outstanding;
        t.flags[slot] |= kFlagL1dOutstanding;
      }
    } else if (cls == isa::InstrClass::kStore) {
      // Stores retire into the store buffer; the cache access happens now
      // for state/statistics, but the latency is off the critical path.
      const mem::AccessResult res =
          mem_.lookup_data(r.tid, t.si[slot].mem_addr, /*write=*/true);
      if (res.l1_miss) ++t.counters.total.l1d_misses;
      latency = cfg_.lat_int_alu;
    }

    t.state[slot] = static_cast<std::uint8_t>(InstrState::kIssued);
    if (cpi_.enabled) cpi_.issued_tids |= 1ull << r.tid;
    if (pview_.sink != nullptr) {
      pview_stamp(r.tid, slot, obs::PipeStage::kIssue);
      pview_stamp(r.tid, slot, obs::PipeStage::kExecute);
    }
    if (!r.is_mem) --t.counters.icount;  // mem ops stay in the LQ/SQ
    t.uid[slot] = next_uid_++;
    completion_push(cycle_ + latency,
                    DoneRef{t.uid[slot], static_cast<std::uint16_t>(r.tid),
                            static_cast<std::uint16_t>(slot)});

    --total;
    if (take_int) {
      --int_budget;
      if (r.is_mem) --mem_budget;
    } else {
      --fp_budget;
    }
  }
}

// Classify IQ entry `id` now that something about its producers changed:
// mark it ready, or enlist it on the waiter chain of its first
// outstanding producer. Entries wait on one producer at a time; when
// that one completes they are re-examined and either wake or move to
// the other producer's chain, so each entry is relinked at most twice.
void Pipeline::place_entry(std::uint32_t id, const IqRef& r) {
  Thread& t = threads_[r.tid];
  const auto head = static_cast<std::int64_t>(t.head_seq);
  std::int64_t block = -1;
  if (r.pr1 >= head &&
      !done_bit(t, slot_of(static_cast<std::uint64_t>(r.pr1)))) {
    block = r.pr1;
  } else if (r.pr2 >= head &&
             !done_bit(t, slot_of(static_cast<std::uint64_t>(r.pr2)))) {
    block = r.pr2;
  }
  if (block < 0) {
    (id < 64 ? int_iq_ : fp_iq_).ready |= 1ull << (id & 63);
  } else {
    const std::uint32_t ws = slot_of(static_cast<std::uint64_t>(block));
    waiter_next_[id] = t.waiter_head[ws];
    t.waiter_head[ws] = static_cast<std::uint8_t>(id);
  }
}

// ---------------------------------------------------------------------------
// Dispatch: global fetch-order FIFO → instruction queues, head-of-line
// blocking on IQ / LSQ / renaming-register exhaustion (the rename stage is
// in-order, so one thread's stuck instruction stalls everything behind it).
// ---------------------------------------------------------------------------
Pipeline::DispatchHazard Pipeline::dispatch_hazard(
    isa::InstrClass cls) const noexcept {
  const bool fp = isa::is_fp(cls);
  if (popcount64(fp ? fp_iq_.occ : int_iq_.occ) >=
      (fp ? cfg_.fp_iq_size : cfg_.int_iq_size)) {
    return DispatchHazard::kIqFull;
  }
  if (isa::is_mem(cls) && lsq_used_ >= cfg_.lsq_size) {
    return DispatchHazard::kLsqFull;
  }
  if (has_dst_reg(cls) && (fp ? fp_rename_free_ : int_rename_free_) == 0) {
    return DispatchHazard::kRenameFull;
  }
  return DispatchHazard::kNone;
}

void Pipeline::do_dispatch() {
  std::uint32_t budget = cfg_.dispatch_width;
  while (budget > 0 && !dispatch_fifo_.empty()) {
    const FifoRef ref = dispatch_fifo_.front();
    Thread& t = threads_[ref.tid];
    const std::uint32_t slot = ref.slot;

    // Entries for squashed instructions were scrubbed at squash time, so
    // the head is always live.
    assert(t.state[slot] == static_cast<std::uint8_t>(InstrState::kFrontEnd));
    if (t.dispatch_ready[slot] > cycle_) break;  // still in decode/rename

    const isa::InstrClass cls = t.si[slot].cls;
    const bool fp = isa::is_fp(cls);
    const bool is_mem = isa::is_mem(cls);

    // Structural-hazard checks; failure stalls the whole stage.
    const DispatchHazard hazard = dispatch_hazard(cls);
    if (hazard != DispatchHazard::kNone) {
      if (hazard == DispatchHazard::kLsqFull) {
        ++t.counters.total.lsq_full_events;
      }
      break;
    }

    // Acquire resources and enqueue.
    if (has_dst_reg(cls)) {
      if (fp) --fp_rename_free_; else --int_rename_free_;
      t.flags[slot] |= kFlagRenameReg;
    }
    if (is_mem) {
      ++lsq_used_;
      t.flags[slot] |= kFlagLsqEntry;
    }
    t.state[slot] = static_cast<std::uint8_t>(InstrState::kQueued);
    if (pview_.sink != nullptr) {
      pview_stamp(ref.tid, slot, obs::PipeStage::kDispatch);
    }
    // Resolve dep distances to producer seqs once, here: dep 0 (none) and
    // deps predating the stream can never block, so they collapse to the
    // -1 sentinel and the wakeup machinery never looks at them again.
    const std::uint64_t seq = t.seq[slot];
    const isa::Instruction& si = t.si[slot];
    const auto producer = [seq](std::uint16_t dep) -> std::int64_t {
      if (dep == 0 || dep > seq) return -1;
      return static_cast<std::int64_t>(seq - dep);
    };
    IssueQueue& q = fp ? fp_iq_ : int_iq_;
    const unsigned j = ctz64(~q.occ);  // free slot; full case broke above
    const std::uint64_t jbit = 1ull << j;
    q.occ |= jbit;
    if (!fp && is_mem) q.mem |= jbit;
    q.slots[j] = IqRef{next_age_++, producer(si.dep1), producer(si.dep2),
                       ref.tid, slot, is_mem};
    place_entry(fp ? 64 + j : j, q.slots[j]);
    --t.frontend_count;
    dispatch_fifo_.pop_front();
    --budget;
  }
}

// ---------------------------------------------------------------------------
// Fetch: thread selection by the active policy, ICOUNT.2.8 bandwidth,
// cache-block fragmentation, wrong-path synthesis, detector-thread slots.
// ---------------------------------------------------------------------------
std::uint8_t Pipeline::fetch_block_cause(const Thread& t) const noexcept {
  const auto code = [](obs::StallCause c) {
    return static_cast<std::uint8_t>(static_cast<std::uint8_t>(c) + 1);
  };
  if (t.fetch_stall_until > cycle_) {
    return code(t.icache_stalled ? obs::StallCause::kIcacheMiss
                                 : obs::StallCause::kSquashRecovery);
  }
  if (t.fetch_block_until > cycle_) {
    return code(obs::StallCause::kFetchBlackout);
  }
  if (win_full(t)) return code(obs::StallCause::kRobFull);
  if (t.frontend_count >= static_cast<std::int32_t>(cfg_.fetch_buffer_cap)) {
    // front-end buffer full: dispatch is backed up
    return code(obs::StallCause::kDispatchBackpressure);
  }
  return 0;
}

void Pipeline::do_fetch() {
  const std::uint32_t n = num_threads();
  // Rotating offset for every fair-share tie-break this cycle, computed
  // with the stage's single runtime-n division.
  const std::uint32_t rot = static_cast<std::uint32_t>(cycle_ % n);

  // Clear expired I-cache stalls.
  for (Thread& t : threads_) {
    if (t.icache_stalled && t.fetch_stall_until <= cycle_) {
      t.icache_stalled = false;
      t.counters.l1i_outstanding = 0;
    }
  }

  // Candidate threads, sorted by the active policy's priority key with a
  // rotating tie-break so equal-key threads share fairly (reused
  // scratch; cleared every cycle).
  std::vector<FetchCand>& cands = fetch_cands_;
  cands.clear();
  // Per-thread blocked-cause for this cycle: 0 = not blocked, else
  // StallCause + 1. Lost slots are charged against these after the
  // service loop runs.
  std::array<std::uint8_t, 64> block_cause{};  // n <= 64
  const auto blocked_by = [&block_cause](std::uint32_t tid,
                                         obs::StallCause c) {
    block_cause[tid] = static_cast<std::uint8_t>(c) + 1;
  };
  for (std::uint32_t tid = 0; tid < n; ++tid) {
    const Thread& t = threads_[tid];
    block_cause[tid] = fetch_block_cause(t);
    if (block_cause[tid] != 0) continue;
    const double key =
        policy::priority_key(policy_, t.counters, tid, n, cycle_);
    const std::uint32_t tie = tid + rot;
    cands.push_back(FetchCand{tid, key, tie >= n ? tie - n : tie});
  }
  // Insertion sort: (key, tie) is a unique total order over at most 64
  // candidates (usually <= 8), so this is both cheap and identical in
  // result to any comparison sort.
  for (std::size_t i = 1; i < cands.size(); ++i) {
    const FetchCand c = cands[i];
    std::size_t j = i;
    while (j > 0 && (c.key < cands[j - 1].key ||
                     (c.key == cands[j - 1].key && c.tie < cands[j - 1].tie))) {
      cands[j] = cands[j - 1];
      --j;
    }
    cands[j] = c;
  }

  std::uint32_t slots = cfg_.fetch_width;
  std::uint32_t threads_used = 0;
  std::array<std::uint32_t, 64> fetched_per_thread{};  // n <= 64
  std::array<bool, 64> serviced{};

  for (const FetchCand& cand : cands) {
    if (slots == 0 || threads_used >= cfg_.fetch_threads) break;
    serviced[cand.tid] = true;
    Thread& t = threads_[cand.tid];
    ThreadCounters& c = t.counters;

    const std::uint64_t pc = t.wrong_path_mode
                                 ? t.wrong_pc
                                 : (!t.replay.empty() ? t.replay.back().pc
                                                      : t.program.pc());

    // I-cache access for the fetch block — skipped when this exact block
    // was just delivered by a completed miss (one-shot fetch-buffer hit).
    const std::uint64_t block = pc / isa::kFetchBlockBytes;
    if (block == t.delivered_block) {
      t.delivered_block = ~std::uint64_t{0};
    } else {
      const mem::AccessResult ir = mem_.lookup_instr(cand.tid, pc);
      if (ir.l1_miss) {
        ++c.total.l1i_misses;
        t.fetch_stall_until = cycle_ + ir.latency;
        t.icache_stalled = true;
        t.delivered_block = block;
        c.l1i_outstanding = 1;
        blocked_by(cand.tid, obs::StallCause::kIcacheMiss);
        ++threads_used;  // the fetch port was spent on the miss
        continue;
      }
    }

    // Fetch up to the cache-block boundary (fetch fragmentation).
    const std::uint64_t offset_in_block =
        (pc / isa::kInstrBytes) % isa::kFetchBlockInstrs;
    std::uint32_t n_max = static_cast<std::uint32_t>(
        isa::kFetchBlockInstrs - offset_in_block);
    n_max = std::min(n_max, slots);

    std::uint32_t got = 0;
    while (got < n_max && !win_full(t) &&
           t.frontend_count <
               static_cast<std::int32_t>(cfg_.fetch_buffer_cap)) {
      isa::Instruction si;
      bool wrong = t.wrong_path_mode;
      if (wrong) {
        si = t.program.next_wrong(t.wrong_pc);
      } else if (!t.replay.empty()) {
        si = t.replay.back();
        t.replay.pop_back();
      } else {
        si = t.program.next();
      }

      const std::uint64_t seq = t.next_seq++;
      const std::uint32_t slot = slot_of(seq);
      t.si[slot] = si;
      t.seq[slot] = seq;
      t.dispatch_ready[slot] = cycle_ + cfg_.frontend_delay;
      t.state[slot] = static_cast<std::uint8_t>(InstrState::kFrontEnd);
      t.flags[slot] = wrong ? kFlagWrongPath : 0;
      clear_done_bit(t, slot);
      if (pview_.sink != nullptr) pview_open(cand.tid, slot);

      ++c.icount;
      ++t.frontend_count;
      if (si.cls == isa::InstrClass::kBranch) ++c.brcount;
      if (si.cls == isa::InstrClass::kLoad) {
        ++c.ldcount;
        ++c.memcount;
      } else if (si.cls == isa::InstrClass::kStore) {
        ++c.memcount;
      }
      ++stats_.fetched;
      ++c.total.fetched;
      if (wrong) ++stats_.fetched_wrong_path;
      ++got;
      --slots;

      bool stop_thread = false;
      if (si.cls == isa::InstrClass::kBranch) {
        const bool pred = bp_.predict(cand.tid, si.pc);
        if (pred) t.flags[slot] |= kFlagPredictedTaken;
        if (!wrong) {
          const bool mispred = pred != si.taken;
          if (mispred) {
            t.flags[slot] |= kFlagMispredicted;
            t.wrong_path_mode = true;
            // The front end follows the *predicted* path.
            t.wrong_pc = pred ? si.branch_target : si.pc + isa::kInstrBytes;
          }
          if (pred) {
            // Predicted taken: redirect ends this thread's fetch group;
            // without a BTB target there is an extra bubble.
            if (!bp_.btb_hit(si.pc)) {
              ++stats_.btb_misses;
              t.fetch_stall_until = cycle_ + cfg_.btb_miss_penalty;
            }
            stop_thread = true;
          }
        } else if (pred) {
          stop_thread = true;  // wrong-path fetch also breaks on taken
        }
      }

      dispatch_fifo_.push_back(FifoRef{cand.tid, slot});
      if (stop_thread) break;
    }

    fetched_per_thread[cand.tid] = got;
    ++threads_used;
  }

  // Stall accounting: every thread that put no instruction into the
  // machine this cycle incurs a fetch stall (whatever the reason).
  for (std::uint32_t tid = 0; tid < n; ++tid) {
    if (fetched_per_thread[tid] == 0) {
      ++threads_[tid].counters.total.stalls;
    }
  }

  // Leftover slots: idle, unless the detector thread has queued work.
  stats_.fetch_slots_idle += slots;
  std::uint64_t lost = slots;
  if (dt_work_ > 0 && slots > 0) {
    const std::uint64_t used = std::min<std::uint64_t>(slots, dt_work_);
    dt_work_ -= used;
    stats_.dt_slots_used += used;
    lost -= used;
  }

  // Stall attribution: charge every slot the DT didn't absorb to exactly
  // one cause. Candidates the service loop never reached were ready but
  // out-ranked — the policy throttle working as designed.
  if (lost > 0) {
    for (const FetchCand& cand : cands) {
      if (!serviced[cand.tid]) {
        blocked_by(cand.tid, obs::StallCause::kPolicyThrottle);
      }
    }
    // Round-robin the lost slots over blocked threads, rotating the start
    // with the cycle so no thread is systematically favoured.
    std::array<std::uint32_t, 64> blocked_tids;
    std::uint32_t m = 0;
    std::uint32_t tid = rot;
    for (std::uint32_t i = 0; i < n;
         ++i, tid = (tid + 1 == n ? 0 : tid + 1)) {
      if (block_cause[tid] != 0) blocked_tids[m++] = tid;
    }
    if (m == 0) {
      // Nobody was blocked: fragmentation / taken-branch fetch-group ends
      // left slack no thread could claim this cycle.
      machine_stalls_.charge(obs::StallCause::kFragmentation, lost);
    } else {
      std::uint32_t at = 0;
      for (std::uint64_t k = 0; k < lost;
           ++k, at = (at + 1 == m ? 0 : at + 1)) {
        const std::uint32_t btid = blocked_tids[at];
        threads_[btid].stalls.charge(
            static_cast<obs::StallCause>(block_cause[btid] - 1));
      }
    }
  }

  // CPI accounting: remember this cycle's per-thread fetch outcome so
  // account_cpi() can back-propagate the fetch-side cause onto empty
  // (starved) windows. A thread that fetched records no cause.
  if (cpi_.enabled) {
    for (std::uint32_t tid = 0; tid < n; ++tid) {
      cpi_.fetch_cause[tid] =
          fetched_per_thread[tid] > 0 ? 0 : block_cause[tid];
    }
  }
}

// ---------------------------------------------------------------------------
// Quiet-cycle leaping (DESIGN.md §19).
//
// A cycle is quiet when every stage finds nothing to do. Nothing then
// changes but counters, so the next cycle is quiet too, until an event
// bound below comes due. leap() applies the counters' per-cycle
// increments in bulk; the stall and CPI ledgers' conservation laws, which
// the invariant checker and check_cpi.sh hold to, are what it preserves.
// ---------------------------------------------------------------------------
std::uint64_t Pipeline::quiet_span(std::uint64_t limit) const {
  constexpr std::uint64_t kLaneMask = kCompletionRing - 1;
  // Complete: even a stale entry empties its lane, so any entry is live.
  if (limit == 0 || completion_n_[cycle_ & kLaneMask] != 0) return 0;
  // Issue: do_issue's first pick, with every budget still full.
  if ((int_iq_.ready | fp_iq_.ready) != 0) return 0;

  std::uint64_t end = cycle_ + limit;  // first cycle not in the span
  const auto until = [this, &end](std::uint64_t event) {
    if (event > cycle_ && event < end) end = event;
  };
  // Dispatch: the FIFO head waits out the front end, or a hazard holds it.
  if (!dispatch_fifo_.empty()) {
    const FifoRef& head = dispatch_fifo_.front();
    const Thread& t = threads_[head.tid];
    if (t.dispatch_ready[head.slot] > cycle_) {
      until(t.dispatch_ready[head.slot]);
    } else if (dispatch_hazard(t.si[head.slot].cls) ==
               DispatchHazard::kNone) {
      return 0;
    }
  }
  for (std::uint32_t tid = 0; tid < num_threads(); ++tid) {
    const Thread& t = threads_[tid];
    // Fetch: no candidate, and no expired I-cache stall left to clear.
    if (fetch_block_cause(t) == 0) return 0;
    if (t.icache_stalled && t.fetch_stall_until <= cycle_) return 0;
    // Commit: no completed window head.
    if (!win_empty(t) &&
        t.state[slot_of(t.head_seq)] ==
            static_cast<std::uint8_t>(InstrState::kDone)) {
      return 0;
    }
    until(t.fetch_stall_until);
    until(t.fetch_block_until);
    if (cpi_.enabled) {
      // account_cpi tells switch overhead from squash recovery by
      // swap_stall_until, and a refilling head from a dispatch-blocked
      // one by its dispatch_ready.
      until(cpi_.swap_stall_until[tid]);
      if (!win_empty(t)) until(t.dispatch_ready[slot_of(t.head_seq)]);
    }
  }
  // The next non-empty completion lane. Every pending completion lies
  // within one ring turn, so a full turn of empty lanes means none.
  for (std::uint64_t c = cycle_ + 1;
       c < end && c - cycle_ < kCompletionRing; ++c) {
    if (completion_n_[c & kLaneMask] != 0) return c - cycle_;
  }
  return end - cycle_;
}

void Pipeline::leap(std::uint64_t k) {
  assert(k > 0 && quiet_span(k) == k);
  const std::uint32_t n = num_threads();
  const std::uint64_t width = cfg_.fetch_width;

  // Dispatch: a head held by the full LSQ counts the event every cycle.
  if (!dispatch_fifo_.empty()) {
    const FifoRef& head = dispatch_fifo_.front();
    Thread& t = threads_[head.tid];
    if (t.dispatch_ready[head.slot] <= cycle_ &&
        dispatch_hazard(t.si[head.slot].cls) == DispatchHazard::kLsqFull) {
      t.counters.total.lsq_full_events += k;
    }
  }

  // Fetch: every slot is idle. The DT absorbs what it has queued; each
  // cycle's remaining `lost` slots go round-robin over all n threads (all
  // are blocked) from tid cycle % n, as in do_fetch. Over any n
  // consecutive cycles of equal `lost`, every thread gets `lost` slots.
  stats_.fetch_slots_idle += width * k;
  std::array<std::uint64_t, 64> slots{};  // n <= 64
  std::uint64_t each = 0;                 // slots charged to every thread
  const auto charge_cycle = [&slots, &each, n](std::uint64_t cycle,
                                               std::uint64_t lost) {
    each += lost / n;
    std::uint32_t tid = static_cast<std::uint32_t>(cycle % n);
    for (std::uint64_t j = lost % n; j > 0;
         --j, tid = (tid + 1 == n ? 0 : tid + 1)) {
      ++slots[tid];
    }
  };
  const std::uint64_t end = cycle_ + k;
  std::uint64_t c = cycle_;
  for (; c < end && dt_work_ > 0; ++c) {
    const std::uint64_t used = std::min(width, dt_work_);
    dt_work_ -= used;
    stats_.dt_slots_used += used;
    charge_cycle(c, width - used);
  }
  const std::uint64_t periods = (end - c) / n;
  each += width * periods;
  for (c += periods * n; c < end; ++c) charge_cycle(c, width);

  for (std::uint32_t tid = 0; tid < n; ++tid) {
    Thread& t = threads_[tid];
    const std::uint8_t cause = fetch_block_cause(t);
    t.stalls.charge(static_cast<obs::StallCause>(cause - 1),
                    each + slots[tid]);
    t.counters.total.stalls += k;
    if (cpi_.enabled) cpi_.fetch_cause[tid] = cause;
  }
  if (cpi_.enabled) account_cpi(k);

  stats_.cycles += k;
  cycle_ += k;
  cycles_leapt_ += k;
}

// ---------------------------------------------------------------------------
// Squash machinery.
// ---------------------------------------------------------------------------
void Pipeline::release_instr_resources(std::uint32_t tid, std::uint32_t slot,
                                       bool completed_ok) {
  Thread& t = threads_[tid];
  ThreadCounters& c = t.counters;
  const isa::InstrClass cls = t.si[slot].cls;
  const auto st = static_cast<InstrState>(t.state[slot]);

  if (t.flags[slot] & kFlagRenameReg) {
    if (isa::is_fp(cls)) ++fp_rename_free_; else ++int_rename_free_;
    t.flags[slot] &= static_cast<std::uint8_t>(~kFlagRenameReg);
  }
  if (t.flags[slot] & kFlagLsqEntry) {
    --lsq_used_;
    t.flags[slot] &= static_cast<std::uint8_t>(~kFlagLsqEntry);
  }
  if (completed_ok) return;

  // Squash path: undo occupancy contributions that completion would have
  // removed.
  const bool mem = isa::is_mem(cls);
  if (mem ? st != InstrState::kDone
          : (st == InstrState::kFrontEnd || st == InstrState::kQueued)) {
    --c.icount;
  }
  if (st == InstrState::kFrontEnd) --t.frontend_count;
  if (st != InstrState::kDone) {
    if (cls == isa::InstrClass::kBranch) --c.brcount;
    if (cls == isa::InstrClass::kLoad) {
      --c.ldcount;
      --c.memcount;
    } else if (cls == isa::InstrClass::kStore) {
      --c.memcount;
    }
    if (t.flags[slot] & kFlagL1dOutstanding) {
      --c.l1d_outstanding;
      t.flags[slot] &= static_cast<std::uint8_t>(~kFlagL1dOutstanding);
    }
  }
}

void Pipeline::squash_from(std::uint32_t tid, std::uint64_t first_seq,
                           bool replay_correct_path,
                           obs::PipeTerminal cause) {
  Thread& t = threads_[tid];

  // Squashed correct-path instructions are *older* in program order than
  // anything already waiting for replay (queued by an earlier flush and
  // not yet refetched). Popped youngest-first onto the replay stack, the
  // oldest ends on top, ahead of that backlog.
  while (!win_empty(t) && t.seq[slot_of(t.next_seq - 1)] >= first_seq) {
    const std::uint32_t slot = slot_of(t.next_seq - 1);
    if (pview_.sink != nullptr) pview_close(tid, slot, cause);
    release_instr_resources(tid, slot, /*completed_ok=*/false);
    if (replay_correct_path && !(t.flags[slot] & kFlagWrongPath)) {
      t.replay.push_back(t.si[slot]);
    }
    ++stats_.squashed;
    t.state[slot] = static_cast<std::uint8_t>(InstrState::kEmpty);
    --t.next_seq;
  }
  t.next_seq = first_seq;

  // Drop queue references to squashed instructions. A squashed slot's seq
  // entry still holds the squashed instruction's seq (slots are vacated,
  // not cleared), so the seq test identifies exactly the victims.
  const auto scrub = [this, tid, first_seq](IssueQueue& q) {
    for (std::uint64_t m = q.occ; m != 0; m &= m - 1) {
      const unsigned i = ctz64(m);
      if (q.slots[i].tid == tid &&
          threads_[tid].seq[q.slots[i].slot] >= first_seq) {
        const std::uint64_t bit = 1ull << i;
        q.occ &= ~bit;
        q.ready &= ~bit;
        q.mem &= ~bit;
      }
    }
  };
  scrub(int_iq_);
  scrub(fp_iq_);
  // Victims may sit anywhere in this thread's waiter chains (they enlist
  // on *older* producers, which survive), so rebuild the thread's chains
  // from its surviving not-ready entries. Producers and consumers share
  // a thread, so no other thread's chains can hold a victim. Squashes
  // are rare enough that the flat rebuild is cheaper than unlinking.
  std::fill(t.waiter_head.begin(), t.waiter_head.end(), kNoWaiter);
  const auto relink = [this, tid](IssueQueue& q, unsigned base) {
    for (std::uint64_t m = q.occ & ~q.ready; m != 0; m &= m - 1) {
      const unsigned i = ctz64(m);
      if (q.slots[i].tid != tid) continue;
      place_entry(base + i, q.slots[i]);
    }
  };
  relink(int_iq_, 0);
  relink(fp_iq_, 64);

  // Scrub the dispatch FIFO the same way (rebuild preserving order).
  if (!dispatch_fifo_.empty()) {
    std::vector<FifoRef>& keep = squash_keep_;
    keep.clear();
    while (!dispatch_fifo_.empty()) {
      const FifoRef r = dispatch_fifo_.pop_front();
      if (!(r.tid == tid && t.seq[r.slot] >= first_seq)) keep.push_back(r);
    }
    for (const FifoRef& r : keep) dispatch_fifo_.push_back(r);
  }
}

void Pipeline::syscall_flush(std::uint32_t /*syscall_tid*/) {
  ++stats_.syscall_flushes;
  for (std::uint32_t tid = 0; tid < num_threads(); ++tid) {
    Thread& t = threads_[tid];
    if (!win_empty(t)) {
      squash_from(tid, t.head_seq, /*replay_correct_path=*/true,
                  obs::PipeTerminal::kSquashSyscall);
    }
    t.wrong_path_mode = false;
    t.fetch_stall_until =
        std::max<std::uint64_t>(t.fetch_stall_until,
                                cycle_ + cfg_.syscall_flush_penalty);
    t.icache_stalled = false;
    t.counters.l1i_outstanding = 0;
  }
}

void Pipeline::block_fetch(std::uint32_t tid, std::uint64_t until_cycle) {
  std::uint64_t& until = threads_[tid].fetch_block_until;
  until = std::max(until, until_cycle);
}

workload::ThreadProgram Pipeline::swap_program(std::uint32_t tid,
                                               workload::ThreadProgram incoming,
                                               std::uint64_t penalty_cycles) {
  Thread& t = threads_[tid];
  if (!win_empty(t)) {
    squash_from(tid, t.head_seq, /*replay_correct_path=*/false,
                obs::PipeTerminal::kSquashSwap);
  }
  // Pending replay belongs to the outgoing job. Discarding it loses a few
  // already-fetched instructions of that job; the synthetic stream has no
  // architectural state, so "resume" semantics are preserved statistically
  // (a real OS would refetch from the saved PC just the same).
  t.replay.clear();
  t.wrong_path_mode = false;
  t.icache_stalled = false;
  t.delivered_block = ~std::uint64_t{0};
  // The squash emptied the window, so every occupancy counter but the
  // I-miss flag is already 0. The event totals run on; the incoming
  // program's windows start at the load mark.
  t.counters.l1i_outstanding = 0;
  t.counters.mark_load(cycle_);
  t.fetch_stall_until =
      std::max<std::uint64_t>(t.fetch_stall_until, cycle_ + penalty_cycles);
  if (cpi_.enabled) {
    // The fetch stall just imposed is a context-switch cost, not a
    // squash-recovery penalty; account_cpi reclassifies it.
    cpi_.swap_stall_until[tid] = std::max<std::uint64_t>(
        cpi_.swap_stall_until[tid], cycle_ + penalty_cycles);
  }

  workload::ThreadProgram outgoing = std::move(t.program);
  t.program = std::move(incoming);
  return outgoing;
}

// ---------------------------------------------------------------------------
// Pipeview: opt-in per-instruction lifecycle sampling.
//
// An instruction is "opened" at fetch when a sampling window is active:
// it gets a slot in pview_.records holding a pre-filled kPipeview event
// whose `cycle` is the fetch cycle. Stage stamps are recorded as deltas
// from that fetch cycle; step() runs commit→complete→issue→dispatch→fetch,
// so every post-fetch stage happens in a strictly later cycle and a delta
// of 0 unambiguously means "stage never reached". The record is emitted
// and its slot recycled at commit or squash ("closed").
// ---------------------------------------------------------------------------
void Pipeline::set_pipeview(obs::TraceSink* sink,
                            std::vector<PipeviewWindow> windows,
                            std::uint64_t quantum_cycles) {
  pview_ = {};
  if (sink == nullptr || windows.empty()) return;
  std::sort(windows.begin(), windows.end(),
            [](const PipeviewWindow& a, const PipeviewWindow& b) {
              return a.start_cycle < b.start_cycle;
            });
  pview_.sink = sink;
  pview_.windows = std::move(windows);
  pview_.quantum_cycles = quantum_cycles;
  pview_.rec_of.assign(threads_.size() * std::size_t{window_cap_}, -1);
}

void Pipeline::pview_open(std::uint32_t tid, std::uint32_t slot) {
  // Advance past exhausted windows.
  while (pview_.wi < pview_.windows.size() &&
         pview_.taken >= pview_.windows[pview_.wi].count) {
    ++pview_.wi;
    pview_.taken = 0;
  }
  if (pview_.wi >= pview_.windows.size()) return;
  if (cycle_ < pview_.windows[pview_.wi].start_cycle) return;
  ++pview_.taken;

  std::int32_t rec;
  if (!pview_.free_slots.empty()) {
    rec = pview_.free_slots.back();
    pview_.free_slots.pop_back();
    pview_.records[static_cast<std::size_t>(rec)] = obs::TraceEvent{};
  } else {
    rec = static_cast<std::int32_t>(pview_.records.size());
    pview_.records.emplace_back();
  }
  Thread& t = threads_[tid];
  obs::TraceEvent& e = pview_.records[static_cast<std::size_t>(rec)];
  e.kind = obs::EventKind::kPipeview;
  e.cycle = cycle_;
  e.quantum =
      pview_.quantum_cycles != 0 ? cycle_ / pview_.quantum_cycles : 0;
  e.tid = static_cast<std::int32_t>(tid);
  e.value = static_cast<std::int64_t>(t.seq[slot]);
  if (t.flags[slot] & kFlagWrongPath) e.mask |= obs::kPipeWrongPath;
  // Decode/rename happen inside the fixed front-end delay; stamp them from
  // the configuration (decode one cycle after fetch, rename at the end of
  // the front end). With frontend_delay == 0 both collapse into fetch.
  e.stage_delta[static_cast<std::size_t>(obs::PipeStage::kDecode)] =
      cfg_.frontend_delay >= 1 ? 1u : 0u;
  e.stage_delta[static_cast<std::size_t>(obs::PipeStage::kRename)] =
      static_cast<std::uint32_t>(cfg_.frontend_delay);
  ++pview_.opened;
  ++pview_.live;
  pview_rec(tid, slot) = rec;
}

void Pipeline::pview_stamp(std::uint32_t tid, std::uint32_t slot,
                           obs::PipeStage stage) {
  const std::int32_t rec = pview_rec(tid, slot);
  if (rec < 0) return;
  obs::TraceEvent& e = pview_.records[static_cast<std::size_t>(rec)];
  e.stage_delta[static_cast<std::size_t>(stage)] =
      static_cast<std::uint32_t>(cycle_ - e.cycle);
}

void Pipeline::pview_close(std::uint32_t tid, std::uint32_t slot,
                           obs::PipeTerminal term) {
  std::int32_t& slot_rec = pview_rec(tid, slot);
  if (slot_rec < 0) return;
  obs::TraceEvent& e = pview_.records[static_cast<std::size_t>(slot_rec)];
  const auto delta = static_cast<std::uint32_t>(cycle_ - e.cycle);
  // The decode/rename stamps were prefilled optimistically at open; an
  // early squash can retire the instruction before it reached them. A
  // stage past the terminal never happened — zero it.
  for (std::uint32_t& s : e.stage_delta) {
    if (s > delta) s = 0;
  }
  e.stage_delta[static_cast<std::size_t>(obs::PipeStage::kRetire)] = delta;
  e.span = delta;
  e.code = static_cast<std::uint8_t>(term);
  if (threads_[tid].flags[slot] & kFlagMispredicted) {
    e.mask |= obs::kPipeMispredicted;
  }
  pview_.sink->record(e);
  --pview_.live;
  pview_.free_slots.push_back(slot_rec);
  slot_rec = -1;
}

void Pipeline::mark_quantum() {
  for (Thread& t : threads_) t.counters.mark_quantum(cycle_);
}

std::uint64_t Pipeline::charged_stall_slots() const noexcept {
  std::uint64_t total = machine_stalls_.total();
  for (const Thread& t : threads_) total += t.stalls.total();
  return total;
}

// ---------------------------------------------------------------------------
// CPI-stack commit-slot accounting (obs/cpi_stack.hpp).
//
// Runs at the end of step(), after every stage: each thread's head-of-
// window state then explains the whole cycle, because commit is in-order
// — whatever blocks the head blocks every younger instruction behind it.
// Committed slots are Δhead_seq (advances exactly one per retirement and
// is preserved across squashes and context switches, so the delta needs
// no epoch handling); the remaining commit_width − Δ slots are charged
// to exactly one cause. Conservation — per cycle and per run — is
// total() == commit_width × cycles_accounted per thread, enforced by
// tests/test_cpi_stack.cpp and scripts/check_cpi.sh.
// ---------------------------------------------------------------------------
void Pipeline::set_cpi_accounting(bool on) {
  cpi_ = {};
  if (!on) return;
  cpi_.enabled = true;
  const std::size_t n = threads_.size();
  cpi_.stacks.assign(n, obs::CpiStack{});
  cpi_.prev_head_seq.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    cpi_.prev_head_seq[i] = threads_[i].head_seq;
  }
  cpi_.fetch_cause.assign(n, 0);
  cpi_.swap_stall_until.assign(n, 0);
  cpi_.refill_cause.assign(
      n, static_cast<std::uint8_t>(obs::CpiCause::kRobEmpty));
  cpi_.refill_sub.assign(
      n, static_cast<std::int8_t>(obs::StallCause::kPolicyThrottle));
}

void Pipeline::charge_cpi_contention(std::uint32_t tid, std::uint64_t lost,
                                     std::uint64_t holders) {
  obs::CpiStack& st = cpi_.stacks[tid];
  st.charge(obs::CpiCause::kFuContention, lost);
  // Blame co-runners; only with no co-runner to blame does the loss
  // fall back on the thread itself (intra-thread arbitration).
  std::uint64_t mask = holders & ~(1ull << tid);
  if (mask == 0) mask = 1ull << tid;
  std::array<std::uint32_t, 64> ids;  // n <= 64
  std::uint32_t m = 0;
  for (std::uint64_t b = mask; b != 0; b &= b - 1) {
    // Co-runners beyond the 8-context convention fold into the last
    // bucket so the contend invariant survives exotic configurations.
    ids[m++] = std::min<std::uint32_t>(
        ctz64(b), static_cast<std::uint32_t>(obs::kCpiMaxThreads) - 1);
  }
  // Slot k blames ids[(cycle % m + k) % m]: the start rotates with the
  // cycle so repeated single-slot losses do not systematically blame the
  // lowest-numbered holder. Whole rounds of m slots blame every holder
  // once, which keeps a leap's width × cycles loss O(m).
  for (std::uint32_t i = 0; i < m; ++i) st.contend.charge(ids[i], lost / m);
  std::uint32_t at = static_cast<std::uint32_t>(cycle_ % m);
  for (std::uint64_t k = lost % m; k > 0;
       --k, at = (at + 1 == m ? 0 : at + 1)) {
    st.contend.charge(ids[at]);
  }
}

void Pipeline::account_cpi(std::uint64_t cycles) {
  const std::uint32_t n = num_threads();
  const std::uint64_t width = cfg_.commit_width;

  // Per-thread committed slots this cycle, and the committer set (the
  // holders when a done head lost the shared commit bandwidth).
  std::array<std::uint64_t, 64> committed{};  // n <= 64
  std::uint64_t committers = 0;
  std::uint64_t committed_total = 0;
  for (std::uint32_t tid = 0; tid < n; ++tid) {
    const std::uint64_t c = threads_[tid].head_seq - cpi_.prev_head_seq[tid];
    committed[tid] = c;
    committed_total += c;
    if (c != 0) committers |= 1ull << tid;
  }
  // A leapt span commits and issues nothing, so below every loss has one
  // cause and contention blames only the thread itself (no rotation).
  assert(cycles == 1 || (committed_total == 0 && cpi_.issued_tids == 0));

  for (std::uint32_t tid = 0; tid < n; ++tid) {
    Thread& t = threads_[tid];
    obs::CpiStack& st = cpi_.stacks[tid];
    cpi_.prev_head_seq[tid] = t.head_seq;
    st.charge(obs::CpiCause::kCommitted, committed[tid]);
    const std::uint64_t lost = width * cycles - committed[tid];
    if (lost == 0) continue;

    if (win_empty(t)) {
      // Starved window: back-propagate this cycle's fetch-side cause.
      // No recorded cause means the thread merely lost fetch
      // arbitration — the policy throttle working as designed.
      const std::uint8_t fc = cpi_.fetch_cause[tid];
      const obs::StallCause cause =
          fc != 0 ? static_cast<obs::StallCause>(fc - 1)
                  : obs::StallCause::kPolicyThrottle;
      obs::CpiCause top = obs::CpiCause::kRobEmpty;
      std::int8_t sub = -1;
      if (cause == obs::StallCause::kFetchBlackout) {
        top = obs::CpiCause::kSwitchOverhead;
      } else if (cause == obs::StallCause::kSquashRecovery) {
        top = cycle_ < cpi_.swap_stall_until[tid]
                  ? obs::CpiCause::kSwitchOverhead
                  : obs::CpiCause::kSquashRecovery;
      } else {
        sub = static_cast<std::int8_t>(cause);
      }
      st.charge(top, lost);
      if (sub >= 0) {
        st.rob_empty_by.charge(static_cast<obs::StallCause>(sub), lost);
      }
      // Remember the charge: the frontend_delay refill that follows
      // keeps this attribution until the head reaches dispatch.
      cpi_.refill_cause[tid] = static_cast<std::uint8_t>(top);
      cpi_.refill_sub[tid] = sub;
      continue;
    }

    const std::uint32_t slot = slot_of(t.head_seq);
    switch (static_cast<InstrState>(t.state[slot])) {
      case InstrState::kDone:
        if (committed_total >= width) {
          // Ready to retire, but co-runners consumed the shared commit
          // bandwidth — the symbiosis signal.
          charge_cpi_contention(tid, lost, committers);
        } else {
          // Completed after this cycle's commit stage already ran:
          // pure completion latency, charged as dependency wait.
          st.charge(obs::CpiCause::kDepWait, lost);
        }
        break;
      case InstrState::kIssued:
        if (t.si[slot].cls == isa::InstrClass::kLoad &&
            (t.flags[slot] & kFlagL1dOutstanding)) {
          st.charge(obs::CpiCause::kMemLatency, lost);
        } else {
          st.charge(obs::CpiCause::kDepWait, lost);
        }
        break;
      case InstrState::kQueued:
        // The head's producers are all older than head_seq, hence
        // architecturally complete: it was ready by construction and
        // lost only the issue-width/FU/mem-port arbitration.
        charge_cpi_contention(tid, lost, cpi_.issued_tids);
        break;
      case InstrState::kFrontEnd:
        if (t.dispatch_ready[slot] > cycle_) {
          // Decode/rename refill: keep the charge that emptied the
          // window (cold start defaults to rob_empty/policy_throttle).
          const auto top =
              static_cast<obs::CpiCause>(cpi_.refill_cause[tid]);
          st.charge(top, lost);
          if (cpi_.refill_sub[tid] >= 0) {
            st.rob_empty_by.charge(
                static_cast<obs::StallCause>(cpi_.refill_sub[tid]), lost);
          }
        } else {
          // Released by the front end but dispatch-blocked: IQ/LSQ/
          // rename exhaustion (possibly via FIFO head-of-line).
          st.charge(obs::CpiCause::kStructuralFull, lost);
        }
        break;
      case InstrState::kEmpty:
        // Unreachable for a live head; keep conservation if it ever is.
        st.charge(obs::CpiCause::kRobEmpty, lost);
        st.rob_empty_by.charge(obs::StallCause::kPolicyThrottle, lost);
        break;
    }
  }

  cpi_.issued_tids = 0;
  cpi_.cycles_accounted += cycles;
}

// ---------------------------------------------------------------------------
// Structural audit (src/check + tests).
// ---------------------------------------------------------------------------
Pipeline::ResourceAudit Pipeline::audit_resources() const {
  ResourceAudit a;
  std::uint32_t lsq = 0;
  std::uint32_t int_held = 0;
  std::uint32_t fp_held = 0;
  for (std::uint32_t tid = 0; tid < num_threads(); ++tid) {
    const Thread& t = threads_[tid];
    std::int32_t icount = 0;
    std::int32_t brcount = 0;
    std::int32_t ldcount = 0;
    std::int32_t memcount = 0;
    std::int32_t l1d_out = 0;
    std::int32_t frontend = 0;
    for (std::uint64_t i = 0; i < win_size(t); ++i) {
      const std::uint32_t slot = slot_of(t.head_seq + i);
      if (t.seq[slot] != t.head_seq + i) a.seq_mismatch |= 1u << tid;
      const isa::InstrClass cls = t.si[slot].cls;
      const auto st = static_cast<InstrState>(t.state[slot]);
      const bool mem = isa::is_mem(cls);
      if (mem ? st != InstrState::kDone
              : (st == InstrState::kFrontEnd || st == InstrState::kQueued)) {
        ++icount;
      }
      if (st == InstrState::kFrontEnd) ++frontend;
      if (st != InstrState::kDone) {
        if (cls == isa::InstrClass::kBranch) ++brcount;
        if (cls == isa::InstrClass::kLoad) {
          ++ldcount;
          ++memcount;
        } else if (cls == isa::InstrClass::kStore) {
          ++memcount;
        }
      }
      if (t.flags[slot] & kFlagL1dOutstanding) ++l1d_out;
      if (t.flags[slot] & kFlagLsqEntry) ++lsq;
      if (t.flags[slot] & kFlagRenameReg) {
        if (isa::is_fp(cls)) ++fp_held; else ++int_held;
      }
    }
    const ThreadCounters& c = t.counters;
    if (icount != c.icount || brcount != c.brcount || ldcount != c.ldcount ||
        memcount != c.memcount || l1d_out != c.l1d_outstanding ||
        frontend != t.frontend_count) {
      a.thread_mismatch |= 1u << tid;
    }
  }
  a.lsq_mismatch = lsq != lsq_used_;
  a.int_rename_mismatch = int_held + int_rename_free_ != cfg_.int_rename_regs;
  a.fp_rename_mismatch = fp_held + fp_rename_free_ != cfg_.fp_rename_regs;
  a.iq_overflow =
      popcount64(int_iq_.occ) > cfg_.int_iq_size ||
      popcount64(fp_iq_.occ) > cfg_.fp_iq_size;
  a.ok = a.thread_mismatch == 0 && a.seq_mismatch == 0 && !a.lsq_mismatch &&
         !a.int_rename_mismatch && !a.fp_rename_mismatch && !a.iq_overflow;
  return a;
}

// ---------------------------------------------------------------------------
// Metrics export.
// ---------------------------------------------------------------------------
namespace {

/// One `prefix<bucket>` key per ledger bucket, named by its cause (by
/// its index for a ledger keyed by thread id).
template <typename Cause, std::size_t N>
void set_buckets(obs::MetricsRegistry& reg, const std::string& prefix,
                 const obs::SlotLedger<Cause, N>& ledger) {
  for (std::size_t i = 0; i < N; ++i) {
    if constexpr (std::is_enum_v<Cause>) {
      reg.set(prefix + std::string(name(static_cast<Cause>(i))),
              ledger.slots[i]);
    } else {
      reg.set(prefix + std::to_string(i), ledger.slots[i]);
    }
  }
}

}  // namespace

void export_metrics(const Pipeline& pipe, obs::MetricsRegistry& reg) {
  const PipelineStats& s = pipe.stats();
  reg.set("machine.cycles", s.cycles);
  reg.set("machine.committed", s.committed);
  reg.set("machine.ipc", s.ipc());
  reg.set("machine.fetched", s.fetched);
  reg.set("machine.fetched_wrong_path", s.fetched_wrong_path);
  reg.set("machine.squashed", s.squashed);
  reg.set("machine.branches_resolved", s.branches_resolved);
  reg.set("machine.mispredicts", s.mispredicts);
  reg.set("machine.btb_misses", s.btb_misses);
  reg.set("machine.syscall_flushes", s.syscall_flushes);
  reg.set("machine.fetch_slots_idle", s.fetch_slots_idle);
  reg.set("machine.dt_slots_used", s.dt_slots_used);
  reg.set("machine.charged_stall_slots", pipe.charged_stall_slots());

  set_buckets(reg, "machine.stalls.", pipe.machine_stall_breakdown());

  for (std::uint32_t tid = 0; tid < pipe.num_threads(); ++tid) {
    // Per-job figures: since the current program was loaded.
    const ThreadCounters& c = pipe.counters(tid);
    const EventCounts e = c.since_load();
    const std::string thread = "threads." + std::to_string(tid) + '.';
    reg.set(thread + "committed", e.committed);
    reg.set(thread + "cycles_seen", c.cycles_since_load(pipe.now()));
    reg.set(thread + "fetched", e.fetched);
    reg.set(thread + "ipc", c.acc_ipc(pipe.now()));
    const obs::StallBreakdown& sb = pipe.stall_breakdown(tid);
    reg.set(thread + "stall_slots", sb.total());
    set_buckets(reg, thread + "stalls.", sb);
  }

  // CPI-stack accounting appears only when enabled: an accounting-off
  // run's stats document is byte-identical to pre-CPI output (golden
  // digests), the same contract as check.* keys.
  if (!pipe.cpi_accounting()) return;
  const std::uint64_t width = pipe.config().commit_width;
  const std::uint64_t acct_cycles = pipe.cpi_cycles_accounted();
  reg.set("cpi.commit_width", width);
  reg.set("cpi.cycles_accounted", acct_cycles);
  reg.set("cpi.slots_accounted", width * acct_cycles * pipe.num_threads());
  for (std::uint32_t tid = 0; tid < pipe.num_threads(); ++tid) {
    const obs::CpiStack& st = pipe.cpi_stack(tid);
    const std::string cpi = "threads." + std::to_string(tid) + ".cpi.";
    reg.set(cpi + "slots", st.total());
    set_buckets(reg, cpi, st);
    set_buckets(reg, cpi + "rob_empty_by.", st.rob_empty_by);
    set_buckets(reg, cpi + "contend.", st.contend);
  }
}

}  // namespace smt::pipeline
