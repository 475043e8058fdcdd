// DropOnCopy<T>: observer state that a copy of its owner does not keep.
//
// Simulators and pipelines are copied to snapshot a machine (the oracle
// re-runs copies over quanta the original already recorded). Observers
// attached to the original — a trace sink, a profiler, the invariant
// checker, CPI accounting — must not follow: a copy that shared them
// would record every re-run as if it happened once. Wrapping that state
// in DropOnCopy lets the owner keep defaulted copy operations: copying
// yields a value-initialized T, moving moves it. T's members stay
// directly accessible because DropOnCopy derives from T.
#pragma once

namespace smt {

template <typename T>
struct DropOnCopy : T {
  DropOnCopy() = default;
  DropOnCopy(const DropOnCopy& /*other*/) : T() {}
  DropOnCopy& operator=(const DropOnCopy& /*other*/) {
    static_cast<T&>(*this) = T();
    return *this;
  }
  DropOnCopy(DropOnCopy&&) = default;
  DropOnCopy& operator=(DropOnCopy&&) = default;
  ~DropOnCopy() = default;
};

}  // namespace smt
