// Unit tests: sim::config_digest — the content address under every
// trace, stats document and grid result file.
//
// Two properties matter:
//  1. Sensitivity — flipping any digest-relevant field changes the
//     digest (a field the digest ignores would let two different
//     configurations share a grid result).
//  2. Stability — the digest of a fixed configuration never changes
//     across refactors. The golden value below is a tripwire: if it
//     moves, every content-addressed artifact (grid result files,
//     trace/stats cross-checks) silently keys differently, so the
//     change must be deliberate and release-noted, not incidental.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace smt::sim {
namespace {

SimConfig base_config() {
  SimConfig cfg;
  cfg.apps = {"gzip", "mcf", "swim", "art"};
  cfg.workload_seed = 2003;
  cfg.fixed_policy = policy::FetchPolicy::kIcount;
  cfg.use_adts = false;
  return cfg;
}

struct FieldFlip {
  const char* name;
  std::function<void(SimConfig&)> apply;
};

// Every digest-relevant knob, one minimal mutation each. Kept in the
// same order as config_digest() mixes them so a missing field is easy
// to spot by eyeballing the two lists side by side.
std::vector<FieldFlip> digest_fields() {
  using policy::FetchPolicy;
  return {
      {"apps.value", [](SimConfig& c) { c.apps[1] = "gcc"; }},
      {"apps.order", [](SimConfig& c) { std::swap(c.apps[0], c.apps[1]); }},
      {"apps.count", [](SimConfig& c) { c.apps.push_back("vpr"); }},
      {"workload_seed", [](SimConfig& c) { ++c.workload_seed; }},
      {"fixed_policy",
       [](SimConfig& c) { c.fixed_policy = FetchPolicy::kRoundRobin; }},
      {"use_adts", [](SimConfig& c) { c.use_adts = true; }},

      {"machine.fetch_width", [](SimConfig& c) { ++c.machine.fetch_width; }},
      {"machine.fetch_threads",
       [](SimConfig& c) { ++c.machine.fetch_threads; }},
      {"machine.dispatch_width",
       [](SimConfig& c) { ++c.machine.dispatch_width; }},
      {"machine.issue_width", [](SimConfig& c) { ++c.machine.issue_width; }},
      {"machine.commit_width", [](SimConfig& c) { ++c.machine.commit_width; }},
      {"machine.frontend_delay",
       [](SimConfig& c) { ++c.machine.frontend_delay; }},
      {"machine.int_iq_size", [](SimConfig& c) { ++c.machine.int_iq_size; }},
      {"machine.fp_iq_size", [](SimConfig& c) { ++c.machine.fp_iq_size; }},
      {"machine.lsq_size", [](SimConfig& c) { ++c.machine.lsq_size; }},
      {"machine.fetch_buffer_cap",
       [](SimConfig& c) { ++c.machine.fetch_buffer_cap; }},
      {"machine.rob_per_thread",
       [](SimConfig& c) { ++c.machine.rob_per_thread; }},
      {"machine.int_rename_regs",
       [](SimConfig& c) { ++c.machine.int_rename_regs; }},
      {"machine.fp_rename_regs",
       [](SimConfig& c) { ++c.machine.fp_rename_regs; }},
      {"machine.int_alus", [](SimConfig& c) { ++c.machine.int_alus; }},
      {"machine.mem_ports", [](SimConfig& c) { ++c.machine.mem_ports; }},
      {"machine.fp_units", [](SimConfig& c) { ++c.machine.fp_units; }},
      {"machine.mispredict_penalty",
       [](SimConfig& c) { ++c.machine.mispredict_penalty; }},
      {"machine.btb_miss_penalty",
       [](SimConfig& c) { ++c.machine.btb_miss_penalty; }},
      {"machine.syscall_flush_penalty",
       [](SimConfig& c) { ++c.machine.syscall_flush_penalty; }},
      {"machine.lat_int_alu", [](SimConfig& c) { ++c.machine.lat_int_alu; }},
      {"machine.lat_int_mul", [](SimConfig& c) { ++c.machine.lat_int_mul; }},
      {"machine.lat_int_div", [](SimConfig& c) { ++c.machine.lat_int_div; }},
      {"machine.lat_fp_add", [](SimConfig& c) { ++c.machine.lat_fp_add; }},
      {"machine.lat_fp_mul", [](SimConfig& c) { ++c.machine.lat_fp_mul; }},
      {"machine.lat_fp_div", [](SimConfig& c) { ++c.machine.lat_fp_div; }},
      {"machine.lat_branch", [](SimConfig& c) { ++c.machine.lat_branch; }},
      {"machine.memory.l1i.size_bytes",
       [](SimConfig& c) { c.machine.memory.l1i.size_bytes *= 2; }},
      {"machine.memory.l1i.line_bytes",
       [](SimConfig& c) { c.machine.memory.l1i.line_bytes *= 2; }},
      {"machine.memory.l1i.ways",
       [](SimConfig& c) { c.machine.memory.l1i.ways *= 2; }},
      {"machine.memory.l1d.size_bytes",
       [](SimConfig& c) { c.machine.memory.l1d.size_bytes *= 2; }},
      {"machine.memory.l1d.line_bytes",
       [](SimConfig& c) { c.machine.memory.l1d.line_bytes *= 2; }},
      {"machine.memory.l1d.ways",
       [](SimConfig& c) { c.machine.memory.l1d.ways *= 2; }},
      {"machine.memory.l2.size_bytes",
       [](SimConfig& c) { c.machine.memory.l2.size_bytes *= 2; }},
      {"machine.memory.l2.line_bytes",
       [](SimConfig& c) { c.machine.memory.l2.line_bytes *= 2; }},
      {"machine.memory.l2.ways",
       [](SimConfig& c) { c.machine.memory.l2.ways *= 2; }},
      {"machine.memory.l1_latency",
       [](SimConfig& c) { ++c.machine.memory.l1_latency; }},
      {"machine.memory.l2_latency",
       [](SimConfig& c) { ++c.machine.memory.l2_latency; }},
      {"machine.memory.mem_latency",
       [](SimConfig& c) { ++c.machine.memory.mem_latency; }},
      {"machine.predictor.kind",
       [](SimConfig& c) {
         c.machine.predictor.kind = branch::PredictorKind::kGshare;
       }},
      {"machine.predictor.history_bits",
       [](SimConfig& c) { ++c.machine.predictor.history_bits; }},
      {"machine.predictor.pht_bits",
       [](SimConfig& c) { ++c.machine.predictor.pht_bits; }},
      {"machine.predictor.btb_entries",
       [](SimConfig& c) { c.machine.predictor.btb_entries *= 2; }},

      {"adts.quantum_cycles",
       [](SimConfig& c) { ++c.adts.quantum_cycles; }},
      {"adts.ipc_threshold",
       [](SimConfig& c) { c.adts.ipc_threshold += 0.25; }},
      {"adts.heuristic",
       [](SimConfig& c) { c.adts.heuristic = core::HeuristicType::kType4; }},
      {"adts.conditions.l1_miss_per_cycle",
       [](SimConfig& c) { c.adts.conditions.l1_miss_per_cycle += 0.01; }},
      {"adts.conditions.lsq_full_per_cycle",
       [](SimConfig& c) { c.adts.conditions.lsq_full_per_cycle += 0.01; }},
      {"adts.conditions.mispredict_per_cycle",
       [](SimConfig& c) { c.adts.conditions.mispredict_per_cycle += 0.01; }},
      {"adts.conditions.cond_branch_per_cycle",
       [](SimConfig& c) { c.adts.conditions.cond_branch_per_cycle += 0.01; }},
      {"adts.adaptive_conditions",
       [](SimConfig& c) { c.adts.adaptive_conditions = !c.adts.adaptive_conditions; }},
      {"adts.adaptive_factor",
       [](SimConfig& c) { c.adts.adaptive_factor += 0.125; }},
      {"adts.adaptive_alpha",
       [](SimConfig& c) { c.adts.adaptive_alpha += 0.125; }},
      {"adts.dt_check_instrs",
       [](SimConfig& c) { ++c.adts.dt_check_instrs; }},
      {"adts.dt_decide_instrs",
       [](SimConfig& c) { ++c.adts.dt_decide_instrs; }},
      {"adts.instant_switch",
       [](SimConfig& c) { c.adts.instant_switch = !c.adts.instant_switch; }},
      {"adts.switch_penalty_cycles",
       [](SimConfig& c) { ++c.adts.switch_penalty_cycles; }},
      {"adts.clog_icount_share",
       [](SimConfig& c) { c.adts.clog_icount_share += 0.05; }},
      {"adts.enable_clog_control",
       [](SimConfig& c) { c.adts.enable_clog_control = !c.adts.enable_clog_control; }},
      {"adts.clog_block_cycles",
       [](SimConfig& c) { ++c.adts.clog_block_cycles; }},

      {"pipeview.window",
       [](SimConfig& c) { c.pipeview.push_back({1024, 16}); }},
  };
}

TEST(ConfigDigest, EveryFieldFlipChangesTheDigest) {
  const std::uint64_t base = config_digest(base_config());
  for (const FieldFlip& flip : digest_fields()) {
    SimConfig mutated = base_config();
    flip.apply(mutated);
    EXPECT_NE(config_digest(mutated), base)
        << "flipping '" << flip.name << "' did not change the digest — "
        << "either config_digest() skips the field or the mutation is a no-op";
  }
}

TEST(ConfigDigest, FlippedDigestsAreMutuallyDistinct) {
  // Stronger than pairwise-vs-base: no two single-field mutations may
  // collide either (each flip perturbs a different mix position).
  std::vector<std::pair<std::string, std::uint64_t>> seen;
  seen.emplace_back("<base>", config_digest(base_config()));
  for (const FieldFlip& flip : digest_fields()) {
    SimConfig mutated = base_config();
    flip.apply(mutated);
    const std::uint64_t d = config_digest(mutated);
    for (const auto& [other, digest] : seen) {
      EXPECT_NE(d, digest) << "'" << flip.name << "' collides with '" << other
                           << "'";
    }
    seen.emplace_back(flip.name, d);
  }
}

TEST(ConfigDigest, DeterministicAcrossCalls) {
  const SimConfig cfg = base_config();
  const std::uint64_t first = config_digest(cfg);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(config_digest(cfg), first);
  }
}

TEST(ConfigDigest, GoldenValueIsStable) {
  // Tripwire: this exact configuration hashed to this value. If the
  // expectation fails, the digest function or a struct default changed
  // — every existing grid result file and trace cross-check re-keys. Update the constant only as part of
  // a deliberate, release-noted format change.
  const std::uint64_t golden = 0xf3ddf5450f8c72faull;
  EXPECT_EQ(config_digest(base_config()), golden)
      << "actual: 0x" << std::hex << config_digest(base_config());
}

}  // namespace
}  // namespace smt::sim
