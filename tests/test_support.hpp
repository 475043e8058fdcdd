// Shared test support: a random-configuration generator for tests that
// must hold beyond the golden configs, a simulator's stats document, a
// reader that flattens such documents back into their dotted metric
// names, and an instruction comparison.
#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "branch/predictor.hpp"
#include "check/invariants.hpp"
#include "common/rng.hpp"
#include "core/heuristics.hpp"
#include "isa/instruction.hpp"
#include "mem/cache.hpp"
#include "obs/metrics.hpp"
#include "policy/fetch_policy.hpp"
#include "sim/simulator.hpp"
#include "workload/mix.hpp"

namespace smt::test {

/// A random machine geometry (widths, queues, latencies, the three caches
/// and the branch predictor), thread count, policy and detector set-up,
/// with the invariant checker on and CPI accounting on half the draws.
inline sim::SimConfig random_config(Rng& rng) {
  const auto pick = [&rng](std::uint32_t lo, std::uint32_t hi) {
    return static_cast<std::uint32_t>(lo + rng.below(hi - lo + 1));
  };
  const std::vector<workload::Mix>& mixes = workload::all_mixes();
  sim::SimConfig cfg = sim::make_config(mixes[rng.below(mixes.size())],
                                        pick(1, 8), rng.next());
  cfg.check = check::CheckMode::kOn;
  cfg.cpi = rng.below(2) == 0;
  const std::vector<policy::FetchPolicy>& policies = policy::all_policies();
  cfg.fixed_policy = policies[rng.below(policies.size())];

  pipeline::PipelineConfig& m = cfg.machine;
  m.fetch_width = pick(1, 16);
  m.fetch_threads = pick(1, 8);
  m.dispatch_width = pick(1, 12);
  m.issue_width = pick(1, 12);
  m.commit_width = pick(1, 12);
  m.frontend_delay = pick(0, 8);
  m.int_iq_size = pick(2, 64);
  m.fp_iq_size = pick(2, 64);
  m.lsq_size = pick(2, 64);
  m.fetch_buffer_cap = pick(1, 24);
  m.rob_per_thread = pick(8, 256);
  m.int_rename_regs = pick(4, 128);
  m.fp_rename_regs = pick(4, 128);
  m.int_alus = pick(1, 8);
  m.mem_ports = pick(1, 4);
  m.fp_units = pick(1, 4);
  m.mispredict_penalty = pick(0, 20);
  m.btb_miss_penalty = pick(0, 8);
  m.syscall_flush_penalty = pick(0, 200);
  m.lat_int_alu = pick(1, 3);
  m.lat_int_mul = pick(1, 8);
  m.lat_int_div = pick(1, 40);
  m.lat_fp_add = pick(1, 8);
  m.lat_fp_mul = pick(1, 8);
  m.lat_fp_div = pick(1, 40);
  m.lat_branch = pick(1, 3);
  m.memory.l1_latency = pick(1, 3);
  m.memory.l2_latency = pick(4, 20);
  m.memory.mem_latency = pick(20, 150);

  cfg.adts.quantum_cycles = pick(1024, 8192);
  cfg.use_adts = rng.below(2) == 0;
  if (cfg.use_adts) {
    core::AdtsConfig& a = cfg.adts;
    a.heuristic = static_cast<core::HeuristicType>(
        rng.below(core::kNumHeuristics));
    a.ipc_threshold = 0.5 + 0.25 * rng.below(12);
    // Zero DT cost leaves a decision pending with no work to drain.
    a.dt_check_instrs = rng.below(4) == 0 ? 0 : pick(1, 200);
    a.dt_decide_instrs = rng.below(4) == 0 ? 0 : pick(1, 1000);
    a.instant_switch = rng.below(4) == 0;
    a.switch_penalty_cycles = pick(0, 64);
    a.enable_clog_control = rng.below(2) == 0;
    a.clog_icount_share = 0.2 + 0.1 * rng.below(6);
    a.clog_block_cycles = pick(1, 600);
  }

  // Cache geometries, drawn last so the draws above keep their values:
  // a power-of-two line of 8 to 128 bytes, 1 to 16 ways and a
  // power-of-two set count, with a line × sets span of at least the
  // 32 bytes the hierarchy requires.
  const auto geometry = [&pick](mem::CacheConfig& c,
                                std::uint32_t max_sets_log2) {
    const std::uint32_t line_log2 = pick(3, 7);
    c.line_bytes = 1u << line_log2;
    c.ways = pick(1, 16);
    const std::uint32_t sets_log2 =
        pick(line_log2 >= 5 ? 0 : 5 - line_log2, max_sets_log2);
    c.size_bytes = std::uint64_t{c.line_bytes} * c.ways << sets_log2;
  };
  geometry(m.memory.l1i, 9);
  geometry(m.memory.l1d, 9);
  geometry(m.memory.l2, 12);

  // The predictor, drawn after the caches for the same reason, over the
  // whole range its constructor accepts.
  branch::PredictorConfig& bp = m.predictor;
  bp.kind = rng.below(2) == 0 ? branch::PredictorKind::kGshare
                              : branch::PredictorKind::kBimodal;
  bp.history_bits = pick(0, 63);
  bp.pht_bits = pick(1, 24);
  bp.btb_entries = pick(1, 4096);
  return cfg;
}

/// The --stats-json document of `sim`.
inline std::string stats_doc(const sim::Simulator& sim) {
  obs::MetricsRegistry reg;
  sim.export_metrics(reg);
  std::ostringstream os;
  reg.write_json(os);
  return os.str();
}

/// A minimal JSON reader, just rich enough to round-trip what the writers
/// emit (objects, strings, numbers, bools, null). Flattens nested objects
/// back into the dotted names the registry was populated with.
struct MiniJson {
  const std::string& s;
  std::size_t i = 0;

  void skip_ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  char peek() {
    skip_ws();
    EXPECT_LT(i, s.size()) << "unexpected end of JSON";
    return s[i];
  }
  void expect(char c) {
    ASSERT_EQ(peek(), c) << "at offset " << i;
    ++i;
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') ++i;
      out += s[i++];
    }
    expect('"');
    return out;
  }
  std::string parse_scalar() {  // number / bool / null, as raw text
    skip_ws();
    std::string out;
    while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != '\n' &&
           !std::isspace(static_cast<unsigned char>(s[i]))) {
      out += s[i++];
    }
    return out;
  }
  void parse_object(const std::string& prefix,
                    std::map<std::string, std::string>& out) {
    expect('{');
    if (peek() == '}') {
      ++i;
      return;
    }
    while (true) {
      const std::string key = parse_string();
      expect(':');
      const std::string full = prefix.empty() ? key : prefix + "." + key;
      if (peek() == '{') {
        parse_object(full, out);
      } else if (peek() == '"') {
        out[full] = parse_string();
      } else {
        out[full] = parse_scalar();
      }
      if (peek() == ',') {
        ++i;
        continue;
      }
      expect('}');
      return;
    }
  }
};

inline std::map<std::string, std::string> flatten_json(
    const std::string& text) {
  std::map<std::string, std::string> out;
  MiniJson p{text};
  p.parse_object("", out);
  return out;
}

/// Whether two instructions are the same, reading of the address word
/// only the member each class makes active (a load's or store's
/// mem_addr, a branch's branch_target).
inline ::testing::AssertionResult same_instruction(const isa::Instruction& a,
                                                   const isa::Instruction& b) {
  const auto differ = [&](const char* field) {
    return ::testing::AssertionFailure()
           << field << " differs (pc " << a.pc << " vs " << b.pc << ")";
  };
  if (a.cls != b.cls) return differ("cls");
  if (a.pc != b.pc) return differ("pc");
  if (a.dep1 != b.dep1 || a.dep2 != b.dep2) return differ("dep");
  if (a.taken != b.taken) return differ("taken");
  if (isa::is_mem(a.cls) && a.mem_addr != b.mem_addr) return differ("mem_addr");
  if (a.cls == isa::InstrClass::kBranch && a.branch_target != b.branch_target) {
    return differ("branch_target");
  }
  return ::testing::AssertionSuccess();
}

}  // namespace smt::test
