// Sharing primitives for immutable data read by several threads.
//
// The workload layer links its decoded-stream chunks into a chain that
// simulator copies on different pool workers walk side by side
// (workload/stream_cache.hpp). The first reader to reach the end of a
// chunk builds the next one; the rest must find it built. That needs a
// fill-once link and a process-wide byte counter, and the
// thread-primitive lint rule keeps every concurrency primitive in this
// module, so both live here.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

namespace smt::par {

/// A link filled at most once and then read by any thread. A mutex
/// rather than std::call_once guards it, so that take() is ordered
/// after every earlier get(): whoever frees a chain empties links that
/// other threads have read.
template <typename T>
class OnceSlot {
 public:
  /// The value, built by `make()` on the first call. `built` tells the
  /// caller whether this call built it. Concurrent callers wait for the
  /// one that builds; if `make` throws, the slot stays empty.
  template <typename Make>
  [[nodiscard]] std::shared_ptr<const T> get(Make&& make, bool& built) {
    const std::lock_guard<std::mutex> lock(mu_);
    built = value_ == nullptr;
    if (built) value_ = std::forward<Make>(make)();
    return value_;
  }

  /// Empty the slot and hand its value to the caller.
  [[nodiscard]] std::shared_ptr<const T> take() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::move(value_);
  }

 private:
  std::mutex mu_;
  std::shared_ptr<const T> value_;
};

/// A process-wide counter that threads move up and down (live bytes,
/// say).
class Gauge {
 public:
  void add(std::int64_t delta) noexcept { value_ += delta; }
  [[nodiscard]] std::int64_t value() const noexcept { return value_; }

 private:
  std::atomic<std::int64_t> value_{0};
};

}  // namespace smt::par
