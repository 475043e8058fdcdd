#include "branch/predictor.hpp"

#include <stdexcept>

namespace smt::branch {

namespace {

/// `cfg`, once every field the tables are sized or indexed by is in range.
const PredictorConfig& validated(const PredictorConfig& cfg) {
  if (cfg.pht_bits == 0 || cfg.pht_bits > 24) {
    throw std::invalid_argument("pht_bits out of range");
  }
  if (cfg.history_bits > 63) {
    // pht_index shifts a 64-bit one by history_bits.
    throw std::invalid_argument("history_bits out of range");
  }
  if (cfg.btb_entries == 0) {
    throw std::invalid_argument("btb_entries must be >= 1");
  }
  return cfg;
}

}  // namespace

Predictor::Predictor(const PredictorConfig& cfg)
    : cfg_(validated(cfg)),
      pht_(std::size_t{1} << cfg_.pht_bits, 1),  // weakly not-taken
      history_(cfg_.max_threads, 0),
      btb_(cfg_.btb_entries) {}

std::uint32_t Predictor::pht_index(std::uint32_t tid,
                                   std::uint64_t pc) const noexcept {
  const std::uint64_t mask = (std::uint64_t{1} << cfg_.pht_bits) - 1;
  const std::uint64_t pc_bits = pc >> 2;  // drop instruction alignment
  if (cfg_.kind == PredictorKind::kBimodal) {
    return static_cast<std::uint32_t>(pc_bits & mask);
  }
  const std::uint64_t hist_mask =
      (std::uint64_t{1} << cfg_.history_bits) - 1;
  return static_cast<std::uint32_t>((pc_bits ^ (history_[tid] & hist_mask)) &
                                    mask);
}

bool Predictor::predict(std::uint32_t tid, std::uint64_t pc) const {
  return pht_[pht_index(tid, pc)] >= 2;
}

bool Predictor::btb_hit(std::uint64_t pc) const {
  const BtbEntry& e = btb_[(pc >> 2) % btb_.size()];
  return e.valid && e.tag == pc;
}

void Predictor::update(std::uint32_t tid, std::uint64_t pc, bool taken,
                       std::uint64_t target, bool mispredicted) {
  ++stats_.lookups;
  if (mispredicted) ++stats_.mispredicts;

  std::uint8_t& ctr = pht_[pht_index(tid, pc)];
  if (taken) {
    if (ctr < 3) ++ctr;
  } else {
    if (ctr > 0) --ctr;
  }

  // History is updated at resolution (simpler than speculative history
  // with checkpoint/restore; slightly pessimistic for accuracy, identical
  // in structure).
  history_[tid] = (history_[tid] << 1) | (taken ? 1u : 0u);

  if (taken) {
    BtbEntry& e = btb_[(pc >> 2) % btb_.size()];
    if (!e.valid || e.tag != pc) {
      e.valid = true;
      e.tag = pc;
      e.target = target;
    }
  }
}

}  // namespace smt::branch
