// Deterministic parallel execution engine.
//
// Every workload this pool runs is embarrassingly parallel: independent
// whole simulations (oracle candidate trials, experiment-grid cells,
// per-mix sweeps) with no shared mutable state. Parallelism therefore
// never has to change results — parallel_map returns results in
// submission-index order and reductions stay on the calling thread, so
// output is byte-identical to the serial loop for any worker count.
// This is the repo's determinism contract extended to threads: the grain
// of parallelism is the simulation, never the cycle (DESIGN.md §12).
//
// The pool is the only library component allowed to use std::thread /
// mutex primitives (scripts/check_lint.sh allowlists src/par/ and
// bench/); everything above it stays single-threaded and oblivious.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace smt::par {

/// Upper bound on workers; a fan-out wider than this is queue depth, not
/// speedup, and unbounded SMT_JOBS values should not spawn thousands of
/// threads.
inline constexpr std::size_t kMaxJobs = 64;

/// Host-time telemetry for one worker slot (slot 0 is the calling thread
/// in inline mode). `busy_ticks` is in whatever unit the injected clock
/// returns; it stays 0 when no clock is set.
struct WorkerStats {
  std::uint64_t tasks = 0;       ///< tasks executed by this slot
  std::uint64_t busy_ticks = 0;  ///< host ticks spent inside tasks
};

/// Monotonic host-clock callback (par sits below prof, so the profiler's
/// fenced clock is injected rather than linked).
using ClockFn = std::uint64_t (*)();

/// Fixed-size task pool. Constructed with a job count: `jobs >= 2` spawns
/// that many workers (clamped to kMaxJobs); `jobs <= 1` spawns none and
/// submit() runs tasks inline on the calling thread, making the serial
/// and parallel code paths literally the same code.
///
/// Tasks submitted directly must not throw (parallel_for/parallel_map
/// wrap user callables and capture exceptions per index). Nested
/// submission from inside a task is not supported.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t jobs);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ThreadPool(ThreadPool&&) = delete;
  ThreadPool& operator=(ThreadPool&&) = delete;

  /// Number of worker threads (0 in inline mode).
  [[nodiscard]] std::size_t workers() const noexcept {
    return threads_.size();
  }

  /// Enqueue a task (runs it inline when there are no workers).
  void submit(std::function<void()> task);

  /// Block until every task submitted so far has finished.
  void wait();

  /// Install (or, with nullptr, remove) the clock used to time task
  /// bodies. Observation-only — results are identical either way. Call
  /// only while the pool is idle: workers read the pointer unlocked and
  /// rely on submit()'s mutex for the happens-before.
  void set_clock(ClockFn clock) noexcept { clock_ = clock; }

  /// Per-slot task/busy-tick counters (one slot per worker; a single
  /// slot 0 in inline mode). Call after wait() for a consistent view.
  [[nodiscard]] std::vector<WorkerStats> worker_stats() const;

 private:
  void worker_loop(std::size_t slot);
  void run_task(const std::function<void()>& task, std::size_t slot);

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::vector<WorkerStats> stats_;
  ClockFn clock_ = nullptr;
  mutable std::mutex mu_;
  std::condition_variable cv_task_;  ///< signals workers: work or stop
  std::condition_variable cv_done_;  ///< signals wait(): drained
  std::size_t in_flight_ = 0;        ///< queued + running tasks
  bool stop_ = false;
};

/// Run fn(i) for every i in [0, n) across the pool and wait for all of
/// them. If any invocation throws, the exception thrown by the *lowest
/// index* is rethrown after the barrier (a deterministic choice — the
/// same one the serial loop would have surfaced first); the pool itself
/// survives and stays usable.
template <typename Fn>
void parallel_for(ThreadPool& pool, std::size_t n, Fn&& fn) {
  std::vector<std::exception_ptr> errors(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([i, &fn, &errors] {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  pool.wait();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Map i -> fn(i) over [0, n), returning results in submission-index
/// order regardless of completion order — the vector is byte-equivalent
/// to what the serial `for` loop would have produced. The result type
/// only needs to be movable.
template <typename Fn>
[[nodiscard]] auto parallel_map(ThreadPool& pool, std::size_t n, Fn&& fn)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> {
  using T = std::decay_t<decltype(fn(std::size_t{0}))>;
  std::vector<std::optional<T>> slots(n);
  parallel_for(pool, n, [&slots, &fn](std::size_t i) {
    slots[i].emplace(fn(i));
  });
  std::vector<T> out;
  out.reserve(n);
  for (std::optional<T>& s : slots) out.push_back(std::move(*s));
  return out;
}

}  // namespace smt::par
