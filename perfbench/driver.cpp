// Benchmark driver: runs one workload against the simulator libraries
// and prints one JSON document of raw measurements on stdout. run.py
// builds and invokes it; see NOTES.md for the workloads and metrics.
//
//   perfbench_driver --workload ilp8_single|adts_sweep|bal1_oracle
//                    --seed N --seconds S --workers J
//                    --mode setup|timed|traced [--spans-out FILE]
//                    [--corrupt-identity]
//
// setup   runs only the set-up and reports its duration;
// timed   runs set-up, whole passes of the unit plan until S seconds have
//         passed, then an untimed check pass (end-to-end metrics);
// traced  does the same with spans recorded on every other pass and the
//         per-layer probes afterwards (per-layer metrics).
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "check/invariants.hpp"
#include "common/build_info.hpp"
#include "common/host_info.hpp"
#include "common/rng.hpp"
#include "core/heuristics.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "policy/fetch_policy.hpp"
#include "prof/host_clock.hpp"
#include "sim/experiment.hpp"
#include "sim/oracle.hpp"
#include "sim/simulator.hpp"
#include "workload/mix.hpp"
#include "workload/stream_cache.hpp"

namespace perfbench {

namespace {
const std::chrono::steady_clock::time_point g_start =
    std::chrono::steady_clock::now();
// Written from pool workers too, hence atomic.
std::atomic<std::uint64_t> g_sink{0};
}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_start)
      .count();
}

void keep(std::uint64_t v) noexcept {
  g_sink.fetch_xor(v, std::memory_order_relaxed);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

std::map<std::string, double> layer_self_ns(const std::vector<Span>& all) {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : all) children[s.parent].push_back(&s);
  std::map<std::string, double> self;
  for (const Span& s : all) {
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const std::int64_t a = std::max(c->t0, s.t0);
        const std::int64_t b = std::min(c->t1, s.t1);
        if (a < b) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t end = s.t0;
    for (const auto& [a, b] : iv) {
      const std::int64_t from = std::max(a, end);
      if (b > from) {
        covered += b - from;
        end = b;
      }
    }
    self[s.layer] += static_cast<double>((s.t1 - s.t0) - covered);
  }
  return self;
}

namespace {

using smt::sim::OracleResult;
using smt::sim::SampleResult;
using smt::sim::SimConfig;
using smt::sim::Simulator;

constexpr std::uint64_t kQuantum = 8192;

enum class Mode { kSetup, kTimed, kTraced };

struct Args {
  std::string workload;
  std::uint64_t seed = 2003;
  double seconds = 10.0;
  std::size_t workers = 0;  ///< required
  Mode mode = Mode::kTimed;
  std::string spans_out;
  bool corrupt_identity = false;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Digest of a simulator's exported stats without build/host provenance,
/// the same document the golden stats digests hash.
std::uint64_t stats_digest(const Simulator& sim) {
  const SpanScope span("sim.export_metrics", "obs", 0, 0);
  smt::obs::MetricsRegistry reg;
  sim.export_metrics(reg);
  for (const char* key : {"run.version", "run.git_sha", "run.compiler",
                          "run.flags", "run.host_cpu", "run.host_cores",
                          "run.smt_jobs"}) {
    reg.erase(key);
  }
  std::ostringstream os;
  reg.write_json(os);
  const std::string doc = os.str();
  smt::Fnv1a h;
  h.mix_bytes(doc.data(), doc.size());
  return h.digest();
}

void mix_result(smt::Fnv1a& h, const SampleResult& r) {
  for (const std::uint64_t v :
       {r.cycles, r.committed, r.quanta, r.low_throughput_quanta, r.switches,
        r.benign_switches, r.malignant_switches, r.switches_skipped_dt_busy,
        r.switches_dropped_fault, r.switches_stale, r.guard_anomalies,
        r.guard_reverts, r.guard_vetoes}) {
    h.mix(v);
  }
}

void mix_result(smt::Fnv1a& h, const OracleResult& r) {
  h.mix(r.cycles);
  h.mix(r.committed);
  h.mix(r.switches);
  for (const std::uint64_t q : r.quanta_per_policy) h.mix(q);
}

template <typename R>
std::uint64_t digest_of(const R& r) {
  smt::Fnv1a h;
  mix_result(h, r);
  return h.digest();
}

/// One timed pass of a workload's unit plan.
struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process user + system time during the pass
  std::uint64_t committed = 0;
  std::uint64_t cycles = 0;
};

/// Measurements shared by every workload. Workloads add units, commits
/// and cycles; the pass loop turns the running totals into Pass records.
struct Timed {
  std::vector<Pass> passes;         ///< untraced passes
  std::vector<Pass> traced_passes;  ///< traced passes (traced runs only)
  std::vector<double> unit_ms;      ///< untraced units only
  std::uint64_t committed = 0;
  std::uint64_t cycles = 0;
  double peak_rss_mb = 0.0;  ///< over set-up and the timed passes
  // Worker accounting for par.*: busy ns per worker slot, traced passes.
  std::vector<double> busy_ns;
  double busy_wall_ns = 0.0;
  std::uint64_t tasks = 0;
};

/// A workload: set-up, one pass of its fixed unit plan, and the untimed
/// checks. Passes are numbered; pass 0's results feed the digest.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;

  virtual void setup() = 0;
  /// Untimed preparation of pass `p` (a fresh simulator, say).
  virtual void prepare_pass(std::uint64_t /*p*/) {}
  /// Runs pass `p`; `parent` is the pass span; traced passes also time
  /// worker occupancy.
  virtual void run_pass(std::uint64_t p, std::uint64_t parent, bool traced,
                        Timed& t, Report& r) = 0;
  /// Untimed checks after the timed phase; also sets r.digest / r.ipc.
  virtual void check(Report& r) = 0;
  /// What the per-layer probes need; may build the live state they time.
  [[nodiscard]] virtual ProbeContext probe_context() = 0;
  /// Memo-cache statistics the workload collected (workload.* metrics).
  virtual void cache_metrics(Report& r) const = 0;
};

SimConfig fixed_config(const std::string& mix, std::uint64_t seed) {
  SimConfig cfg = smt::sim::make_config(smt::workload::mix(mix), 8, seed);
  cfg.fixed_policy = smt::policy::FetchPolicy::kIcount;
  cfg.check = smt::check::CheckMode::kOff;
  return cfg;
}

struct CacheDelta {
  std::uint64_t generated = 0;
  std::uint64_t hits = 0;
  double resident_mb = 0.0;

  void add(const smt::workload::StreamCache::Stats& before,
           const smt::workload::StreamCache::Stats& after) {
    generated += after.chunks_generated - before.chunks_generated;
    hits += after.chunk_hits - before.chunk_hits;
    resident_mb = std::max(
        resident_mb, static_cast<double>(after.resident_bytes) / (1 << 20));
  }
  void merge(const CacheDelta& o) {
    generated += o.generated;
    hits += o.hits;
    resident_mb = std::max(resident_mb, o.resident_mb);
  }
  void report(Report& r) const {
    const std::uint64_t lookups = generated + hits;
    r.set("workload.chunk_hit_ratio", ratio(hits, lookups), "ratio", lookups);
    r.set("workload.chunks_generated", static_cast<double>(generated), "count",
          lookups);
    r.set("workload.resident_mb", resident_mb, "MB", lookups);
  }
};

/// Runs fn(u, span) for every unit u in [0, n) on the pool, under one
/// "par.parallel_for" span (the pass barrier). Traced passes time the
/// workers and add their busy time and task counts to `t`.
template <typename Fn>
void run_on_pool(smt::par::ThreadPool& pool, std::size_t n,
                 std::uint64_t parent, bool traced, Timed& t, Fn&& fn) {
  pool.set_clock(traced ? &smt::prof::host_ticks : nullptr);
  const std::vector<smt::par::WorkerStats> before = pool.worker_stats();
  const std::int64_t t0 = now_ns();
  {
    const SpanScope wait("par.parallel_for", "par", parent, 0);
    smt::par::parallel_for(pool, n, [&](std::size_t u) { fn(u, wait.id()); });
  }
  if (!traced) return;
  t.busy_wall_ns += static_cast<double>(now_ns() - t0);
  const std::vector<smt::par::WorkerStats> after = pool.worker_stats();
  t.busy_ns.resize(std::max(t.busy_ns.size(), after.size()));
  for (std::size_t s = 0; s < after.size(); ++s) {
    t.busy_ns[s] += static_cast<double>(
        smt::prof::ticks_to_ns(after[s].busy_ticks - before[s].busy_ticks));
    t.tasks += after[s].tasks - before[s].tasks;
  }
}

// --- ilp8_single ------------------------------------------------------------

/// One serial simulator on ilp8, fixed ICOUNT, timed in quantum slices.
/// Each pass is one run as the CLI makes it: a fresh simulator on its
/// own seed and an empty memo cache, warmed untimed, then kSlices slices.
class Ilp8Single final : public Workload {
 public:
  explicit Ilp8Single(const Args& a)
      : seed_(a.seed), corrupt_(a.corrupt_identity) {}

  void setup() override { start_run(0); }
  void prepare_pass(std::uint64_t p) override {
    if (p > 0) start_run(p);
  }

  void run_pass(std::uint64_t p, std::uint64_t parent, bool traced, Timed& t,
                Report& r) override {
    const auto before = smt::workload::StreamCache::local().stats();
    const std::int64_t pass_t0 = now_ns();
    double busy = 0.0;
    for (std::uint64_t i = 0; i < kSlices; ++i) {
      const std::uint64_t unit = p * kSlices + i + 1;
      const SpanScope us("unit", "bench", parent, unit);
      const std::uint64_t c0 = sim_->committed();
      const std::int64_t t0 = now_ns();
      try {
        const SpanScope span("sim.run", "sim", us.id(), unit);
        sim_->run(kQuantum);
        r.check(true, "");
      } catch (const std::exception& e) {
        r.check(false, std::string("slice threw: ") + e.what());
      }
      const double ns = static_cast<double>(now_ns() - t0);
      busy += ns;
      t.unit_ms.push_back(ns / 1e6);
      t.committed += sim_->committed() - c0;
      t.cycles += kQuantum;
    }
    if (traced) {
      if (t.busy_ns.empty()) t.busy_ns.resize(1);
      t.busy_ns[0] += busy;
      t.busy_wall_ns += static_cast<double>(now_ns() - pass_t0);
      t.tasks += kSlices;
    }
    cache_.add(before, smt::workload::StreamCache::local().stats());
    if (p == 0) {
      pass0_digest_ = stats_digest(*sim_);
      pass0_ipc_ = sim_->ipc();
    }
  }

  void check(Report& r) override {
    // Copy/resume identity: a copy continued in lockstep with the live
    // simulator must end in the same state.
    Simulator copy = *sim_;
    if (corrupt_) copy.pipeline().testing_corrupt_committed(1);
    sim_->run(kQuantum);
    copy.run(kQuantum);
    r.check(stats_digest(copy) == stats_digest(*sim_),
            "ilp8_single: copy/resume identity failed");
    // Replay: a fresh simulator reaches the pass-0 digest again.
    Simulator fresh(config_for(0));
    fresh.run(kWarmup + kSlices * kQuantum);
    if (corrupt_) fresh.pipeline().testing_corrupt_committed(1);
    r.check(stats_digest(fresh) == pass0_digest_,
            "ilp8_single: fresh replay missed the pass-0 digest");
    r.digest = hex(pass0_digest_);
    r.ipc = pass0_ipc_;
  }

  [[nodiscard]] ProbeContext probe_context() override {
    ProbeContext c;
    c.mixes = {"ilp8"};
    c.live = sim_.get();
    return c;
  }
  void cache_metrics(Report& r) const override { cache_.report(r); }

 private:
  static constexpr std::uint64_t kWarmup = 8 * kQuantum;
  static constexpr std::uint64_t kSlices = 32;

  [[nodiscard]] SimConfig config_for(std::uint64_t pass) const {
    return fixed_config("ilp8",
                        pass == 0 ? seed_ : smt::mix64(seed_ ^ (pass << 32)));
  }

  void start_run(std::uint64_t pass) {
    const SpanScope span("sim.construct", "sim", 0, 0);
    sim_.reset();
    // A new run starts on an empty memo cache, as a new process would:
    // the previous pass's seed is never read again.
    smt::workload::StreamCache::local().clear();
    sim_ = std::make_unique<Simulator>(config_for(pass));
    sim_->run(kWarmup);
  }

  std::uint64_t seed_;
  bool corrupt_;
  std::unique_ptr<Simulator> sim_;
  std::uint64_t pass0_digest_ = 0;
  double pass0_ipc_ = 0.0;
  CacheDelta cache_;
};

// --- adts_sweep -------------------------------------------------------------

/// The Fig. 7/8 grid: every mix under fixed ICOUNT and under each of the
/// 5 heuristics × 5 thresholds, one run per unit, over a fixed pool.
class AdtsSweep final : public Workload {
 public:
  explicit AdtsSweep(const Args& a)
      : seed_(a.seed),
        workers_(a.workers),
        corrupt_(a.corrupt_identity),
        mixes_(mix_names()) {
    for (const smt::core::HeuristicType h : smt::core::all_heuristics()) {
      for (const double m : smt::sim::threshold_sweep()) {
        configs_.push_back({h, m});
      }
    }
  }

  void setup() override {
    pool_ = std::make_unique<smt::par::ThreadPool>(workers_);
    // One fixed-policy run per mix fills the workers' code and allocator
    // paths before the first timed unit; its seeds are never timed.
    smt::par::parallel_for(*pool_, mixes_.size(), [&](std::size_t k) {
      keep(run_unit(kSetupPass, k, 0).committed);
    });
  }

  void run_pass(std::uint64_t p, std::uint64_t parent, bool traced, Timed& t,
                Report& r) override {
    const std::size_t n = units_per_pass();
    std::vector<SampleResult> results(n);
    std::vector<double> ms(n, 0.0);
    std::vector<std::string> errors(n);
    std::vector<CacheDelta> cache(n);
    run_on_pool(*pool_, n, parent, traced, t,
                [&](std::size_t u, std::uint64_t wait) {
      const std::uint64_t unit = p * n + u + 1;
      const SpanScope us("unit", "bench", wait, unit);
      start_sweep_on_this_thread(p);
      const auto before = smt::workload::StreamCache::local().stats();
      const std::int64_t t0 = now_ns();
      try {
        const SpanScope span(
            u < mixes_.size() ? "sim.run_fixed" : "sim.run_adts", "sim",
            us.id(), unit);
        results[u] = run_unit(p, u % mixes_.size(), u / mixes_.size());
      } catch (const std::exception& e) {
        errors[u] = e.what();
      }
      ms[u] = static_cast<double>(now_ns() - t0) / 1e6;
      cache[u].add(before, smt::workload::StreamCache::local().stats());
    });
    for (std::size_t u = 0; u < n; ++u) {
      r.check(errors[u].empty(), "adts_sweep unit threw: " + errors[u]);
      t.unit_ms.push_back(ms[u]);
      t.committed += results[u].committed;
      t.cycles += results[u].cycles;
      if (traced) cache_.merge(cache[u]);
    }
    if (p == 0) pass0_ = std::move(results);
  }

  void check(Report& r) override {
    // Serial replays on this thread of one unit per mix, across the
    // configurations: each must match its pooled result exactly.
    for (std::size_t k = 0; k < mixes_.size(); ++k) {
      const std::size_t u = 27 * k;  // mix k, configuration 2k
      SampleResult serial = run_unit(0, u % mixes_.size(), u / mixes_.size());
      if (corrupt_) serial.committed += 1;
      r.check(digest_of(serial) == digest_of(pass0_[u]),
              "adts_sweep: serial replay differs from pooled unit " +
                  std::to_string(u));
    }
    smt::Fnv1a h;
    std::uint64_t committed = 0;
    std::uint64_t cycles = 0;
    for (const SampleResult& s : pass0_) {
      mix_result(h, s);
      committed += s.committed;
      cycles += s.cycles;
    }
    r.digest = hex(h.digest());
    r.ipc = ratio(committed, cycles);
  }

  [[nodiscard]] ProbeContext probe_context() override {
    // The sweep keeps no simulator between units, so the copy probe
    // times a warmed simulator of the first mix.
    live_ = std::make_unique<Simulator>(fixed_config(mixes_.front(), seed_));
    live_->run(kPlan.warmup_cycles);
    ProbeContext c;
    c.mixes = mixes_;
    c.adts = true;
    c.workers = workers_;
    c.live = live_.get();
    return c;
  }
  void cache_metrics(Report& r) const override { cache_.report(r); }

 private:
  static constexpr std::uint64_t kSetupPass = ~std::uint64_t{0};
  static constexpr smt::sim::SamplingPlan kPlan{1, kQuantum, 4 * kQuantum};

  static std::vector<std::string> mix_names() {
    std::vector<std::string> names;
    for (const auto& m : smt::workload::all_mixes()) names.push_back(m.name);
    return names;
  }

  [[nodiscard]] std::size_t units_per_pass() const {
    return mixes_.size() * (configs_.size() + 1);
  }

  /// Configuration 0 is the fixed-ICOUNT baseline; c ≥ 1 is ADTS
  /// configs_[c - 1]. Every (pass, mix, configuration) gets its own seed.
  [[nodiscard]] SampleResult run_unit(std::uint64_t pass, std::size_t mix,
                                      std::size_t config) const {
    smt::sim::ExperimentScale scale;
    scale.plan = kPlan;
    scale.jobs = 1;
    scale.base_seed =
        smt::mix64(seed_ ^ smt::mix64(pass * 0x10001ull +
                                      config * 0x101ull + mix));
    const smt::workload::Mix& m = smt::workload::mix(mixes_[mix]);
    if (config == 0) {
      return smt::sim::run_fixed(m, smt::policy::FetchPolicy::kIcount, 8,
                                 scale);
    }
    const auto& [heuristic, threshold] = configs_[config - 1];
    return smt::sim::run_adts(m, heuristic, threshold, 8, scale);
  }

  /// Each pass stands for one sweep process: the first unit a worker
  /// runs in a pass empties that worker's memo cache, as a fresh process
  /// would start. No later unit could hit the dropped entries, since
  /// every unit runs on its own seed; without this, entries of all past
  /// passes stay resident and the footprint grows with run length.
  static void start_sweep_on_this_thread(std::uint64_t pass) {
    thread_local std::uint64_t current = kSetupPass;
    if (current != pass) {
      smt::workload::StreamCache::local().clear();
      current = pass;
    }
  }

  std::uint64_t seed_;
  std::size_t workers_;
  bool corrupt_;
  std::vector<std::string> mixes_;
  std::vector<std::pair<smt::core::HeuristicType, double>> configs_;
  std::unique_ptr<smt::par::ThreadPool> pool_;
  std::unique_ptr<Simulator> live_;
  std::vector<SampleResult> pass0_;
  CacheDelta cache_;
};

// --- bal1_oracle ------------------------------------------------------------

/// The ten-policy oracle on bal1: short oracle runs from snapshots of
/// warmed simulators, one run per unit, units fanned over a fixed pool.
/// The snapshots come from kBases simulators on different seeds, so a
/// pass covers several stretches of the workload rather than one.
///
/// Each unit runs its trials serially (jobs = 1) and the pool runs
/// units side by side. Fanning the trials of one quantum over the
/// workers instead puts a barrier after every quantum; on a shared host
/// whose hypervisor steals vCPU time, that made pass times swing about
/// three times as much as independent units do. The check pass replays
/// units with the trials fanned out (run_oracle's own pool) and requires
/// identical results, so that path is still exercised and checked.
class Bal1Oracle final : public Workload {
 public:
  explicit Bal1Oracle(const Args& a)
      : seed_(a.seed), workers_(a.workers), corrupt_(a.corrupt_identity) {
    ocfg_.quantum_cycles = kQuantum;
    ocfg_.candidates = smt::policy::all_policies();
  }

  void setup() override {
    for (std::uint64_t b = 0; b < kBases; ++b) {
      Simulator sim(fixed_config(
          "bal1", b == 0 ? seed_ : smt::mix64(seed_ ^ (b << 40))));
      sim.run(kWarmup);
      for (std::size_t k = 0; k < kSnapshots / kBases; ++k) {
        const SpanScope span("sim.copy", "sim", 0, 0);
        snapshots_.push_back(sim);
        sim.run(kQuantum);
      }
    }
    pool_ = std::make_unique<smt::par::ThreadPool>(workers_);
    // One untimed unit per base starts filling the workers' memo caches.
    smt::par::parallel_for(*pool_, kBases, [&](std::size_t b) {
      keep(run_unit(b * (kSnapshots / kBases), 1).committed);
    });
    trials_ += kBases * trials_per_unit();
  }

  void run_pass(std::uint64_t p, std::uint64_t parent, bool traced, Timed& t,
                Report& r) override {
    std::vector<OracleResult> results(kSnapshots);
    std::vector<double> ms(kSnapshots, 0.0);
    std::vector<std::string> errors(kSnapshots);
    std::vector<CacheDelta> cache(kSnapshots);
    run_on_pool(*pool_, kSnapshots, parent, traced, t,
                [&](std::size_t k, std::uint64_t wait) {
      const std::uint64_t unit = p * kSnapshots + k + 1;
      const SpanScope us("unit", "bench", wait, unit);
      const auto before = smt::workload::StreamCache::local().stats();
      const std::int64_t t0 = now_ns();
      try {
        Simulator snap = [&] {
          const SpanScope span("sim.copy", "sim", us.id(), unit);
          return snapshots_[k];
        }();
        const SpanScope span("sim.run_oracle", "sim", us.id(), unit);
        results[k] = smt::sim::run_oracle(std::move(snap), kUnitQuanta, ocfg_);
      } catch (const std::exception& e) {
        errors[k] = e.what();
      }
      ms[k] = static_cast<double>(now_ns() - t0) / 1e6;
      cache[k].add(before, smt::workload::StreamCache::local().stats());
    });
    for (std::size_t k = 0; k < kSnapshots; ++k) {
      r.check(errors[k].empty(), "bal1_oracle unit threw: " + errors[k]);
      t.unit_ms.push_back(ms[k]);
      // Each quantum runs one trial per candidate over the same cycles;
      // run_oracle reports the winner's commits, so every trial is
      // counted at the winner's count.
      t.committed += results[k].committed * ocfg_.candidates.size();
      t.cycles += results[k].cycles * ocfg_.candidates.size();
      trials_ += trials_per_unit();
      if (traced) cache_.merge(cache[k]);
    }
    if (p == 0) pass0_ = std::move(results);
  }

  void check(Report& r) override {
    // Replays with the trials fanned over run_oracle's own pool must pick
    // the same policies and commit the same work as the pooled units.
    for (std::size_t k = 0; k < kChecked; ++k) {
      OracleResult fanned = run_unit(k, workers_);
      trials_ += trials_per_unit();
      if (corrupt_) fanned.committed += 1;
      r.check(digest_of(fanned) == digest_of(pass0_[k]),
              "bal1_oracle: fanned-out replay differs from pooled unit " +
                  std::to_string(k));
    }
    smt::Fnv1a h;
    std::uint64_t committed = 0;
    std::uint64_t cycles = 0;
    for (const OracleResult& o : pass0_) {
      mix_result(h, o);
      committed += o.committed;
      cycles += o.cycles;
    }
    r.digest = hex(h.digest());
    r.ipc = ratio(committed, cycles);
  }

  [[nodiscard]] ProbeContext probe_context() override {
    ProbeContext c;
    c.mixes = {"bal1"};
    c.workers = workers_;
    c.live = &snapshots_.front();
    c.oracle_trials = trials_;
    return c;
  }
  void cache_metrics(Report& r) const override { cache_.report(r); }

 private:
  static constexpr std::uint64_t kWarmup = 4 * kQuantum;
  static constexpr std::uint64_t kBases = 4;
  static constexpr std::size_t kSnapshots = 16;
  static constexpr std::uint64_t kUnitQuanta = 3;
  static constexpr std::size_t kChecked = 4;

  [[nodiscard]] OracleResult run_unit(std::size_t k, std::size_t jobs) const {
    return smt::sim::run_oracle(snapshots_[k], kUnitQuanta, ocfg_, jobs);
  }
  [[nodiscard]] std::uint64_t trials_per_unit() const {
    return kUnitQuanta * ocfg_.candidates.size();
  }

  std::uint64_t seed_;
  std::size_t workers_;
  bool corrupt_;
  smt::sim::OracleConfig ocfg_;
  std::vector<Simulator> snapshots_;
  std::unique_ptr<smt::par::ThreadPool> pool_;
  std::vector<OracleResult> pass0_;
  std::uint64_t trials_ = 0;
  CacheDelta cache_;
};

// --- driver -----------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_driver: %s\n", why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = val();
      else if (k == "--seed") a.seed = std::stoull(val());
      else if (k == "--seconds") a.seconds = std::stod(val());
      else if (k == "--workers") a.workers = std::stoul(val());
      else if (k == "--spans-out") a.spans_out = val();
      else if (k == "--corrupt-identity") a.corrupt_identity = true;
      else if (k == "--mode") {
        const std::string m = val();
        if (m == "setup") a.mode = Mode::kSetup;
        else if (m == "timed") a.mode = Mode::kTimed;
        else if (m == "traced") a.mode = Mode::kTraced;
        else usage("unknown mode " + m);
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k);
    }
  }
  if (a.workers < 1 || a.workers > smt::par::kMaxJobs) usage("bad --workers");
  if (!(a.seconds > 0.0)) usage("bad --seconds");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "ilp8_single") return std::make_unique<Ilp8Single>(a);
  if (a.workload == "adts_sweep") return std::make_unique<AdtsSweep>(a);
  if (a.workload == "bal1_oracle") return std::make_unique<Bal1Oracle>(a);
  usage("unknown workload '" + a.workload + "'");
}

template <typename Fn>
std::vector<double> per_pass(const std::vector<Pass>& passes, Fn&& fn) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(fn(p));
  return v;
}

void end_to_end(const Timed& t, Report& r) {
  const std::uint64_t n = t.passes.size();
  const auto n_units = static_cast<std::uint64_t>(t.unit_ms.size());
  r.set("sim_mips", median(per_pass(t.passes, [](const Pass& p) {
          return static_cast<double>(p.committed) / p.wall_s / 1e6;
        })), "MIPS", n);
  r.set("sim_kcycles_per_s", median(per_pass(t.passes, [](const Pass& p) {
          return static_cast<double>(p.cycles) / p.wall_s / 1e3;
        })), "kcycles/s", n);
  r.set("wall_s",
        median(per_pass(t.passes, [](const Pass& p) { return p.wall_s; })),
        "s", n);
  r.set("unit_ms_p50", quantile(t.unit_ms, 0.5), "ms", n_units);
  r.set("unit_ms_p90", quantile(t.unit_ms, 0.9), "ms", n_units);
  r.set("cpu_s",
        median(per_pass(t.passes, [](const Pass& p) { return p.cpu_s; })),
        "s", n);
  r.set("peak_rss_mb", t.peak_rss_mb, "MB", 1);
}

void per_layer(const Timed& t, const std::vector<Span>& all, Report& r) {
  // Host time per committed instruction, so passes of different size
  // (ilp8_single's per-pass seeds) still compare.
  const auto cost = [](const Pass& p) {
    return ratio(p.wall_s, static_cast<double>(p.committed));
  };
  const double untraced = median(per_pass(t.passes, cost));
  const double traced = median(per_pass(t.traced_passes, cost));
  const std::size_t n = t.traced_passes.size();
  r.set("bench.trace_overhead_pct", 100.0 * (traced / untraced - 1.0), "%", n);
  // Self time per pass counts only the spans inside traced passes, not
  // set-up, checks or probes.
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& s : all) by_id[s.id] = &s;
  std::vector<Span> in_passes;
  for (const Span& s : all) {
    const Span* root = &s;
    while (root->parent != 0 && by_id.count(root->parent) != 0) {
      root = by_id[root->parent];
    }
    if (std::string_view(root->name) == "pass") in_passes.push_back(s);
  }
  const std::map<std::string, double> self = layer_self_ns(in_passes);
  for (const char* layer : {"bench", "sim", "par"}) {
    const auto it = self.find(layer);
    r.set(std::string(layer) + ".self_ms_per_pass",
          it == self.end() ? 0.0 : it->second / 1e6 / static_cast<double>(n),
          "ms", n);
  }
  double total = 0.0;
  double peak = 0.0;
  for (const double b : t.busy_ns) {
    total += b;
    peak = std::max(peak, b);
  }
  const auto workers =
      static_cast<double>(std::max<std::size_t>(1, t.busy_ns.size()));
  r.set("par.busy_frac", ratio(total, workers * t.busy_wall_ns), "ratio",
        t.tasks);
  r.set("par.imbalance", ratio(peak * workers, total), "ratio", t.tasks);
  r.set("par.tasks", static_cast<double>(t.tasks), "count", t.tasks);
}

void write_spans(const std::string& path, const std::vector<Span>& all) {
  if (path.empty()) return;
  std::ofstream out(path);
  for (const Span& s : all) {
    out << "{\"name\":\"" << s.name << "\",\"layer\":\"" << s.layer
        << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"unit\":" << s.unit << ",\"start_ns\":" << s.t0
        << ",\"end_ns\":" << s.t1 << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

std::string utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string json_str(const std::string& s) {
  return "\"" + smt::obs::json_escape(s) + "\"";
}

void print_json(const Args& a, const Report& r, double ref_ns, double load1) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"workload\":" << json_str(a.workload) << ",\"seed\":" << a.seed
    << ",\"setup_s\":" << r.setup_s << ",\"attempted\":" << r.attempted
    << ",\"failed\":" << r.failed << ",\"digest\":" << json_str(r.digest)
    << ",\"ipc\":" << r.ipc << ",\"pass_wall_s\":[";
  for (std::size_t i = 0; i < r.pass_wall_s.size(); ++i) {
    o << (i ? "," : "") << r.pass_wall_s[i];
  }
  o << "],\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    o << (i ? "," : "") << json_str(r.failures[i]);
  }
  const smt::HostInfo& hi = smt::host_info();
  o << "],\"host\":{\"cpu\":" << json_str(hi.cpu_model)
    << ",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"loadavg_1m\":" << load1
    << ",\"git_sha\":" << json_str(std::string(smt::build_info().git_sha))
    << ",\"utc\":" << json_str(utc_now()) << ",\"ref_ns\":" << ref_ns
    << "},\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    o << (first ? "" : ",") << json_str(name) << ":{\"value\":" << m.value
      << ",\"unit\":" << json_str(m.unit) << ",\"samples\":" << m.samples
      << "}";
    first = false;
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
}

int run(const Args& a) {
  // run_adts/run_fixed build their configs with CheckMode::kAuto, which
  // reads SMT_CHECK: scrub it so no timed run checks invariants.
  unsetenv("SMT_CHECK");
  if (smt::check::check_enabled(smt::check::CheckMode::kAuto)) {
    usage("invariant checking could not be disabled");
  }
  double load[1] = {0.0};
  if (getloadavg(load, 1) != 1) load[0] = -1.0;

  std::unique_ptr<Workload> w = make_workload(a);
  Report r;
  const bool traced_mode = a.mode == Mode::kTraced;
  spans().set_enabled(traced_mode);
  w->setup();
  r.setup_s = static_cast<double>(now_ns()) / 1e9;
  if (a.mode == Mode::kSetup) {
    print_json(a, r, 0.0, load[0]);
    return 0;
  }

  const double ref_before = reference_kernel_ns();
  Timed t;
  const std::int64_t t0 = now_ns();
  const auto deadline = static_cast<std::int64_t>(a.seconds * 1e9);
  // Whole passes until the deadline; a traced run alternates untraced
  // and traced passes so both see the same host window, and runs at
  // least one of each.
  const std::uint64_t min_passes = traced_mode ? 2 : 1;
  for (std::uint64_t p = 0; p < min_passes || now_ns() - t0 < deadline; ++p) {
    const bool traced = traced_mode && (p % 2 == 1);
    spans().set_enabled(false);
    w->prepare_pass(p);
    spans().set_enabled(traced);
    const std::uint64_t c0 = t.committed;
    const std::uint64_t y0 = t.cycles;
    const std::size_t u0 = t.unit_ms.size();
    const double cpu0 = process_cpu_s();
    const std::int64_t p0 = now_ns();
    {
      const SpanScope span("pass", "bench", 0, 0);
      w->run_pass(p, span.id(), traced, t, r);
    }
    Pass rec;
    rec.wall_s = static_cast<double>(now_ns() - p0) / 1e9;
    rec.cpu_s = process_cpu_s() - cpu0;
    rec.committed = t.committed - c0;
    rec.cycles = t.cycles - y0;
    if (traced) t.unit_ms.resize(u0);
    (traced ? t.traced_passes : t.passes).push_back(rec);
    r.pass_wall_s.push_back(rec.wall_s);
  }
  t.peak_rss_mb = peak_rss_mb();
  const double ref_after = reference_kernel_ns();

  spans().set_enabled(traced_mode);
  w->check(r);
  if (traced_mode) {
    w->cache_metrics(r);
    ProbeContext ctx = w->probe_context();
    ctx.seed = a.seed;
    run_layer_probes(ctx, r);
    const std::vector<Span> all = spans().spans();
    per_layer(t, all, r);
    r.set("host.ref_ns", 0.5 * (ref_before + ref_after), "ns", 2);
    write_spans(a.spans_out, all);
  } else {
    end_to_end(t, r);
  }
  print_json(a, r, 0.5 * (ref_before + ref_after), load[0]);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
