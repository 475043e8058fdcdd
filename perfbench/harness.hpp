// Shared plumbing of the benchmark driver: host clocks, order
// statistics, the in-memory span log of traced runs, and the report
// that driver.cpp serialises as one JSON document.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace perfbench {

/// Nanoseconds since the driver process started (static initialisation).
[[nodiscard]] std::int64_t now_ns();

/// Quantile by linear interpolation between order statistics (q in
/// [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// num ÷ den, or 0 when den is not positive.
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}
[[nodiscard]] inline double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

/// Process user + system CPU seconds so far.
[[nodiscard]] double process_cpu_s();

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Folds a value into a global sink so timed loops stay observable and
/// cannot be optimised away. Safe to call from any thread.
void keep(std::uint64_t v) noexcept;

/// One metric as measured: value, unit and how many samples it rests on.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 1;
};

/// Everything one driver invocation reports.
struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed unit/check
  std::string digest;                 ///< simulated-stats digest (hex)
  double ipc = 0.0;                   ///< simulated IPC of the digest region
  double setup_s = 0.0;
  std::vector<double> pass_wall_s;    ///< every timed pass, in order

  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Record one checked item; a false `ok` counts it as failed.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

// --- spans -------------------------------------------------------------------

/// One timed call across a layer boundary. `parent` is the id of the
/// enclosing span (0 for a root), `unit` the benchmark unit it serves.
struct Span {
  const char* name = "";
  const char* layer = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t unit = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

/// In-memory span store of a traced run, written out when the run ends.
/// Recording is switched on and off between passes, while no unit runs.
class SpanLog {
 public:
  void set_enabled(bool on) noexcept { on_.store(on); }
  [[nodiscard]] bool enabled() const noexcept { return on_.load(); }
  [[nodiscard]] std::uint64_t next_id() noexcept { return ++ids_; }
  void add(const Span& s) {
    const std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(s);
  }
  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

SpanLog& spans();

/// RAII span; inert (id 0) while the log is disabled.
class SpanScope {
 public:
  SpanScope(const char* name, const char* layer, std::uint64_t parent,
            std::uint64_t unit)
      : on_(spans().enabled()) {
    if (on_) {
      s_.name = name;
      s_.layer = layer;
      s_.id = spans().next_id();
      s_.parent = parent;
      s_.unit = unit;
      s_.t0 = now_ns();
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (on_) {
      s_.t1 = now_ns();
      spans().add(s_);
    }
  }
  [[nodiscard]] std::uint64_t id() const noexcept { return s_.id; }

 private:
  bool on_;
  Span s_;
};

/// Self time per layer in ns: each span's duration minus the union of
/// its children's intervals (clipped to the span), summed by layer.
[[nodiscard]] std::map<std::string, double> layer_self_ns(
    const std::vector<Span>& spans);

// --- per-layer probes (probes.cpp) ------------------------------------------

/// What the probes need to know about the workload they describe.
struct ProbeContext {
  std::vector<std::string> mixes;  ///< the workload's own mixes
  bool adts = false;  ///< ADTS runs count toward the pipeline figures
  std::uint64_t seed = 0;
  std::size_t workers = 1;
  /// The workload's live simulator, whose copy cost sim.copy_us times.
  const smt::sim::Simulator* live = nullptr;
  /// Oracle trials the workload itself ran; when 0 the probes run a
  /// short ten-policy oracle from `live` so the copy path is exercised.
  std::uint64_t oracle_trials = 0;
};

/// Runs every per-layer probe that does not come from the workload's
/// own timed passes and adds its metrics (and conservation checks) to
/// `r`.
void run_layer_probes(const ProbeContext& ctx, Report& r);

/// Host reference kernel: ns per xoshiro `Rng::next()` call, median of
/// several timed loops.
[[nodiscard]] double reference_kernel_ns();

}  // namespace perfbench
