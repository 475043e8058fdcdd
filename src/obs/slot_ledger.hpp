// SlotLedger: the counting half of every "each slot has exactly one
// cause" account — the fetch-slot StallBreakdown (obs/stall.hpp) and the
// commit-slot CpiStack with its sub-attributions (obs/cpi_stack.hpp).
//
// charge() is the hot-path operation, one inline add to a fixed array;
// `+=`, `-=` and `-` serve the observers that aggregate rows and difference
// monotone ledgers against a snapshot. What a ledger means inside a
// trace row is the row codec's business (obs/trace_event.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace smt::obs {

/// Slot counters, one bucket per value of `Cause` below N. `Cause` is a
/// cause enum, or std::size_t for buckets keyed by a thread id.
template <typename Cause, std::size_t N>
struct SlotLedger {
  std::array<std::uint64_t, N> slots{};

  void charge(Cause c, std::uint64_t n = 1) noexcept {
    slots[static_cast<std::size_t>(c)] += n;
  }
  [[nodiscard]] std::uint64_t operator[](Cause c) const noexcept {
    return slots[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (const std::uint64_t s : slots) t += s;
    return t;
  }

  SlotLedger& operator+=(const SlotLedger& o) noexcept {
    for (std::size_t i = 0; i < N; ++i) slots[i] += o.slots[i];
    return *this;
  }
  SlotLedger& operator-=(const SlotLedger& o) noexcept {
    for (std::size_t i = 0; i < N; ++i) slots[i] -= o.slots[i];
    return *this;
  }
  /// Bucket-wise a − b: the slots a monotone ledger charged since `b`
  /// was copied from it.
  [[nodiscard]] friend SlotLedger operator-(SlotLedger a,
                                            const SlotLedger& b) noexcept {
    return a -= b;
  }
  bool operator==(const SlotLedger&) const = default;
};

}  // namespace smt::obs
