// Branch direction prediction: gshare (with per-thread global history)
// or bimodal, plus a simple BTB for taken-target availability.
//
// On an SMT machine the PHT is a shared structure; per-thread histories
// keep the index streams of independent programs from destructively
// interfering the way a single shared history register would. Mispredicted
// branches are what fill the pipeline with wrong-path instructions — the
// waste the paper's BRCOUNT policy exists to limit — so prediction quality
// must come from real table dynamics, not from a fixed per-branch coin.
#pragma once

#include <cstdint>
#include <vector>

namespace smt::branch {

enum class PredictorKind : std::uint8_t { kGshare, kBimodal };

struct PredictorConfig {
  /// Bimodal (per-PC 2-bit counters) is the default: the synthetic
  /// workloads' branch outcomes are per-site Bernoulli draws, which is
  /// exactly the behaviour a bimodal table captures; gshare's
  /// history-correlation advantage has nothing to correlate with here and
  /// its history-hashed indexing only smears per-site bias across the
  /// PHT. gshare remains available for sensitivity studies.
  PredictorKind kind = PredictorKind::kBimodal;
  std::uint32_t history_bits = 12;  ///< gshare global history length, 0–63
  std::uint32_t pht_bits = 14;      ///< log2(# of 2-bit counters), 1–24
  std::uint32_t btb_entries = 1024; ///< direct-mapped BTB, >= 1
  std::uint32_t max_threads = 9;
};

struct PredictorStats {
  std::uint64_t lookups = 0;
  std::uint64_t mispredicts = 0;

  [[nodiscard]] double mispredict_rate() const noexcept {
    return lookups ? static_cast<double>(mispredicts) /
                         static_cast<double>(lookups)
                   : 0.0;
  }
};

class Predictor {
 public:
  Predictor() : Predictor(PredictorConfig{}) {}
  /// Throws std::invalid_argument for a field outside its range, before
  /// any table is allocated.
  explicit Predictor(const PredictorConfig& cfg);

  /// Direction prediction for the branch at `pc` in thread `tid`.
  [[nodiscard]] bool predict(std::uint32_t tid, std::uint64_t pc) const;

  /// Does the BTB know a target for `pc`? (A taken branch without a BTB
  /// entry costs a front-end bubble even when the direction is right.)
  [[nodiscard]] bool btb_hit(std::uint64_t pc) const;

  /// Train with the resolved outcome; also installs the BTB entry for
  /// taken branches and updates the thread's global history.
  void update(std::uint32_t tid, std::uint64_t pc, bool taken,
              std::uint64_t target, bool mispredicted);

  [[nodiscard]] const PredictorStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const PredictorConfig& config() const noexcept { return cfg_; }
  void reset_stats() { stats_ = PredictorStats{}; }

 private:
  [[nodiscard]] std::uint32_t pht_index(std::uint32_t tid,
                                        std::uint64_t pc) const noexcept;

  PredictorConfig cfg_;
  std::vector<std::uint8_t> pht_;       ///< 2-bit saturating counters
  std::vector<std::uint64_t> history_;  ///< per-thread global history
  struct BtbEntry {
    std::uint64_t tag = 0;
    std::uint64_t target = 0;
    bool valid = false;
  };
  std::vector<BtbEntry> btb_;
  PredictorStats stats_;
};

}  // namespace smt::branch
