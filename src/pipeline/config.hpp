// Machine configuration for the SMT pipeline.
//
// Defaults mirror the ICOUNT.2.8 configuration of Tullsen et al. (the
// paper configures SimpleSMT "to have resources compatible with previous
// research on SMT [20] for verification purposes"): 8 contexts, 8-wide
// fetch from up to 2 threads per cycle, separate INT/FP instruction
// queues (24 entries here, 32 in Tullsen's machine), 100 extra renaming
// registers per file, 6 INT ALUs of which 4 are load/store ports, 3 FP
// units. DESIGN.md §5 lists every default and each departure.
#pragma once

#include <cstdint>

#include "branch/predictor.hpp"
#include "isa/instruction.hpp"
#include "mem/hierarchy.hpp"

namespace smt::pipeline {

struct PipelineConfig {
  std::uint32_t fetch_width = 8;    ///< total instructions fetched per cycle
  std::uint32_t fetch_threads = 2;  ///< threads fetched per cycle (ICOUNT.2.8)
  std::uint32_t dispatch_width = 8;
  std::uint32_t issue_width = 8;
  std::uint32_t commit_width = 8;
  /// Extra front-end depth (decode+rename) between fetch and dispatch;
  /// SimpleSMT has "more pipeline stages to reflect the additional
  /// complexity of SMT".
  std::uint32_t frontend_delay = 5;

  std::uint32_t int_iq_size = 24;
  std::uint32_t fp_iq_size = 24;
  std::uint32_t lsq_size = 48;
  /// Per-thread fetch/decode buffer: a thread whose front-end holds this
  /// many not-yet-dispatched instructions cannot fetch. Small by design —
  /// the meaningful backpressure must come from the *shared* structures
  /// (IQs, LSQ, renaming registers), because whose instructions occupy
  /// those is exactly what the fetch policies control. Note the Little's
  /// law consequence: with a frontend_delay of 5, one thread can sustain
  /// at most 12/5 = 2.4 fetched instructions per cycle — an intentional
  /// per-thread ceiling (single-thread IPC of the era's SMT studies), and
  /// what keeps bad fetch decisions from parking more of a clogging
  /// thread's instructions in front of the shared rename stage.
  std::uint32_t fetch_buffer_cap = 12;
  /// Per-thread in-flight bookkeeping bound (ROB). Deliberately deep:
  /// the real machine's limit is renaming registers, not a per-thread
  /// reorder window.
  std::uint32_t rob_per_thread = 256;

  std::uint32_t int_rename_regs = 100;  ///< renaming registers beyond architected
  std::uint32_t fp_rename_regs = 100;

  std::uint32_t int_alus = 6;   ///< integer units (branches resolve here)
  std::uint32_t mem_ports = 4;  ///< of the INT units, how many do loads/stores
  std::uint32_t fp_units = 3;

  std::uint32_t mispredict_penalty = 6;  ///< redirect bubble after resolution
  std::uint32_t btb_miss_penalty = 2;    ///< taken-predicted but target unknown
  std::uint32_t syscall_flush_penalty = 120;  ///< all-thread drain (paper §6)

  // Execution latencies per class.
  std::uint32_t lat_int_alu = 1;
  std::uint32_t lat_int_mul = 3;
  std::uint32_t lat_int_div = 12;
  std::uint32_t lat_fp_add = 2;
  std::uint32_t lat_fp_mul = 4;
  std::uint32_t lat_fp_div = 12;
  std::uint32_t lat_branch = 1;

  mem::HierarchyConfig memory{};
  branch::PredictorConfig predictor{};

  [[nodiscard]] std::uint32_t latency_for(isa::InstrClass c) const noexcept {
    using isa::InstrClass;
    switch (c) {
      case InstrClass::kIntAlu: return lat_int_alu;
      case InstrClass::kIntMul: return lat_int_mul;
      case InstrClass::kIntDiv: return lat_int_div;
      case InstrClass::kFpAdd: return lat_fp_add;
      case InstrClass::kFpMul: return lat_fp_mul;
      case InstrClass::kFpDiv: return lat_fp_div;
      case InstrClass::kBranch: return lat_branch;
      // Loads/stores: latency comes from the cache hierarchy at issue.
      case InstrClass::kLoad: return 1;
      case InstrClass::kStore: return 1;
      case InstrClass::kSyscall: return 1;
    }
    return 1;
  }
};

}  // namespace smt::pipeline
