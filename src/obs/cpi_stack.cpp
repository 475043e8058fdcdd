#include "obs/cpi_stack.hpp"

namespace smt::obs {

CpiStack& CpiStack::operator+=(const CpiStack& o) noexcept {
  SlotLedger::operator+=(o);
  rob_empty_by += o.rob_empty_by;
  contend += o.contend;
  return *this;
}

CpiStack& CpiStack::operator-=(const CpiStack& o) noexcept {
  SlotLedger::operator-=(o);
  rob_empty_by -= o.rob_empty_by;
  contend -= o.contend;
  return *this;
}

namespace {

[[nodiscard]] std::uint64_t absdiff(std::uint64_t a, std::uint64_t b) noexcept {
  return a > b ? a - b : b - a;
}

}  // namespace

std::uint64_t conservation_gap(const CpiStack& s, std::uint64_t commit_width,
                               std::uint64_t cycles) noexcept {
  return absdiff(s.total(), commit_width * cycles) +
         absdiff(s.rob_empty_by.total(), s[CpiCause::kRobEmpty]) +
         absdiff(s.contend.total(), s[CpiCause::kFuContention]);
}

}  // namespace smt::obs
