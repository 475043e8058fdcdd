#include "obs/trace_sink.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "obs/metrics.hpp"
#include "obs/switch_audit.hpp"

namespace smt::obs {

namespace {

/// Deterministic shortest-ish double rendering (%.9g): stable across runs
/// of the same binary, compact, and precise enough for 9-digit rates.
void put_double(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << (std::isnan(v) ? "null" : (v > 0 ? "1e308" : "-1e308"));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  os << buf;
}

void put_code(std::ostream& os, std::string_view (*namer)(std::uint8_t),
              std::uint8_t code) {
  if (namer != nullptr) {
    os << namer(code);
  } else {
    os << static_cast<unsigned>(code);
  }
}

void put_json_string(std::ostream& os, std::string_view s) {
  os << '"' << json_escape(s) << '"';
}

/// One build_info JSON object: the first JSONL line, and the args of the
/// Chrome export's build_info instant.
void put_build_info(std::ostream& os, const RunInfo& info) {
  os << "{\"" << key(TraceKey::kEvent) << "\":";
  put_json_string(os, kBuildInfoEvent);
  const auto values = build_info_values(info);
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << ",\"" << kBuildInfoKeys[i] << "\":";
    put_json_string(os, values[i]);
  }
  os << '}';
}

/// A JSON array of counts.
template <typename T, std::size_t N>
void put_list(std::ostream& os, const std::array<T, N>& v) {
  os << '[';
  for (std::size_t i = 0; i < N; ++i) {
    if (i > 0) os << ',';
    os << v[i];
  }
  os << ']';
}

/// A JSON object of counts keyed by `names` (a cause-name table).
template <std::size_t N>
void put_named(std::ostream& os, const std::array<std::uint64_t, N>& v,
               const std::array<std::string_view, N>& names) {
  os << '{';
  for (std::size_t i = 0; i < N; ++i) {
    if (i > 0) os << ',';
    os << '"' << names[i] << "\":" << v[i];
  }
  os << '}';
}

/// The value of key `k` on event `e`, as write_jsonl spells it.
void put_value(std::ostream& os, TraceKey k, const TraceEvent& e) {
  switch (k) {
    case TraceKey::kEvent: put_json_string(os, name(e.kind)); break;
    case TraceKey::kQuantum: os << e.quantum; break;
    case TraceKey::kCycle: os << e.cycle; break;
    case TraceKey::kTid: os << e.tid; break;
    case TraceKey::kSpan: os << e.span; break;
    case TraceKey::kPolicyBefore:
      os << static_cast<unsigned>(e.policy_before);
      break;
    case TraceKey::kPolicyAfter:
      os << static_cast<unsigned>(e.policy_after);
      break;
    case TraceKey::kCode: os << static_cast<unsigned>(e.code); break;
    case TraceKey::kMask: os << static_cast<unsigned>(e.mask); break;
    case TraceKey::kValue: os << e.value; break;
    case TraceKey::kIpc: put_double(os, e.ipc); break;
    case TraceKey::kFetchShare: put_double(os, e.fetch_share); break;
    case TraceKey::kMispredictRate: put_double(os, e.mispredict_rate); break;
    case TraceKey::kL1dMissRate: put_double(os, e.l1d_miss_rate); break;
    case TraceKey::kL1iMissRate: put_double(os, e.l1i_miss_rate); break;
    case TraceKey::kStalls: put_named(os, e.stalls, kStallCauseNames); break;
    case TraceKey::kStages: put_list(os, e.stage_delta); break;
    case TraceKey::kCpi: put_named(os, e.cpi, kCpiCauseNames); break;
    case TraceKey::kContend: put_list(os, e.contend); break;
  }
}

}  // namespace

std::array<std::string, kBuildInfoKeys.size()> build_info_values(
    const RunInfo& info) {
  char digest[32];
  std::snprintf(digest, sizeof digest, "0x%016llx",
                static_cast<unsigned long long>(info.config_digest));
  return {info.tool,
          info.version,
          info.git_sha,
          info.compiler,
          info.flags,
          std::to_string(info.seed),
          digest,
          info.host_cpu,
          std::to_string(info.host_cores),
          std::to_string(info.smt_jobs)};
}

std::optional<RunInfo> run_info_from_values(
    const std::array<std::string, kBuildInfoKeys.size()>& values) {
  const auto number = [](std::string_view s, auto& out, int base = 10) {
    const char* end = s.data() + s.size();
    return s.empty() || std::from_chars(s.data(), end, out, base) ==
                            std::from_chars_result{end, std::errc{}};
  };
  RunInfo info;
  info.tool = values[0];
  info.version = values[1];
  info.git_sha = values[2];
  info.compiler = values[3];
  info.flags = values[4];
  info.host_cpu = values[7];
  const std::string_view digest = values[6];
  const bool ok =
      number(values[5], info.seed) &&
      (digest.empty() || digest.rfind("0x", 0) == 0) &&
      number(digest.substr(digest.empty() ? 0 : 2), info.config_digest, 16) &&
      number(values[8], info.host_cores) && number(values[9], info.smt_jobs);
  if (!ok) return std::nullopt;
  return info;
}

TraceSink::TraceSink(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  events_.reserve(capacity_);
}

void TraceSink::record(const TraceEvent& e) {
  if (events_.size() < capacity_) {
    events_.push_back(e);
    return;
  }
  // Ring is full: overwrite the oldest slot.
  events_[head_] = e;
  head_ = (head_ + 1) % capacity_;
  wrapped_ = true;
  ++dropped_;
}

std::vector<TraceEvent> TraceSink::snapshot() const {
  if (!wrapped_) return events_;
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(head_ + i) % events_.size()]);
  }
  return out;
}

void TraceSink::clear() {
  events_.clear();
  head_ = 0;
  wrapped_ = false;
  dropped_ = 0;
}

void TraceSink::write(std::ostream& os) const {
  write_jsonl(os, snapshot(), run_info_.has_value() ? &*run_info_ : nullptr);
}

// ---------------------------------------------------------------------------
// JSONL — the trace format: one self-describing object per line, numeric
// codes, the keys of kTraceKeys in table order (obs/trace_schema.hpp).
// ---------------------------------------------------------------------------
void TraceSink::write_jsonl(std::ostream& os,
                            const std::vector<TraceEvent>& evs,
                            const RunInfo* info) {
  if (info != nullptr) {
    put_build_info(os, *info);
    os << '\n';
  }
  for (const TraceEvent& e : evs) {
    char sep = '{';
    for (std::size_t k = 0; k < kTraceKeys.size(); ++k) {
      if (!carries(kTraceKeys[k], e.kind)) continue;
      os << sep << '"' << kTraceKeys[k].key << "\":";
      put_value(os, static_cast<TraceKey>(k), e);
      sep = ',';
    }
    os << "}\n";
  }
}

// ---------------------------------------------------------------------------
// Chrome trace-event export — loads in Perfetto / chrome://tracing.
// Timestamps are cycles reported as microseconds (1 cycle = 1 µs), so a
// quantum shows as an 8.192 ms block; "dur" spans are exact.
// ---------------------------------------------------------------------------
void TraceSink::write_chrome(std::ostream& os,
                             const std::vector<TraceEvent>& evs,
                             const TraceDecoder& dec, const RunInfo* info) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto next = [&os, &first]() {
    if (!first) os << ',';
    first = false;
    os << "\n";
  };
  if (info != nullptr) {
    next();
    os << "{\"name\":\"build_info\",\"cat\":\"meta\",\"ph\":\"i\",\"ts\":0,"
          "\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":";
    put_build_info(os, *info);
    os << '}';
  }
  for (const TraceEvent& e : evs) {
    switch (e.kind) {
      case EventKind::kQuantum: {
        next();
        const std::uint64_t start = e.cycle >= e.span ? e.cycle - e.span : 0;
        os << "{\"name\":\"";
        put_code(os, dec.policy, e.policy_after);
        os << "\",\"cat\":\"policy\",\"ph\":\"X\",\"ts\":" << start
           << ",\"dur\":" << e.span
           << ",\"pid\":0,\"tid\":0,\"args\":{\"ipc\":";
        put_double(os, e.ipc);
        os << ",\"committed\":" << e.value << ",\"quantum\":" << e.quantum
           << "}}";
        next();
        os << "{\"name\":\"machine ipc\",\"ph\":\"C\",\"ts\":" << e.cycle
           << ",\"pid\":0,\"tid\":0,\"args\":{\"ipc\":";
        put_double(os, e.ipc);
        os << "}}";
        break;
      }
      case EventKind::kThreadQuantum: {
        next();
        os << "{\"name\":\"thread " << e.tid
           << " ipc\",\"ph\":\"C\",\"ts\":" << e.cycle
           << ",\"pid\":0,\"tid\":0,\"args\":{\"ipc\":";
        put_double(os, e.ipc);
        os << "}}";
        next();
        os << "{\"name\":\"thread " << e.tid
           << " stalls\",\"ph\":\"C\",\"ts\":" << e.cycle
           << ",\"pid\":0,\"tid\":0,\"args\":";
        put_named(os, e.stalls, kStallCauseNames);
        os << '}';
        break;
      }
      case EventKind::kInvariant: {
        next();
        os << "{\"name\":\"invariant ";
        put_code(os, dec.invariant, e.code);
        os << "\",\"cat\":\"check\",\"ph\":\"i\",\"ts\":" << e.cycle
           << ",\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":{\"tid\":" << e.tid
           << ",\"value\":" << e.value << "}}";
        break;
      }
      case EventKind::kPipeview: {
        // One duration slice per sampled instruction, on the fetching
        // thread's own track so waterfalls line up per thread.
        next();
        os << "{\"name\":\"i" << e.value << ' '
           << name(static_cast<PipeTerminal>(e.code))
           << "\",\"cat\":\"pipeview\",\"ph\":\"X\",\"ts\":" << e.cycle
           << ",\"dur\":" << e.span << ",\"pid\":1,\"tid\":" << e.tid
           << ",\"args\":{\"flags\":\"";
        const std::string flags = pipe_flag_names(e.mask);
        os << (flags.empty() ? "-" : flags) << "\",\"stages\":";
        put_list(os, e.stage_delta);
        os << "}}";
        break;
      }
      case EventKind::kSwitchAudit: {
        next();
        os << "{\"name\":\"audit "
           << name(static_cast<SwitchLabel>(e.value)) << ' ';
        put_code(os, dec.policy, e.policy_before);
        os << " -> ";
        put_code(os, dec.policy, e.policy_after);
        os << "\",\"cat\":\"adts\",\"ph\":\"i\",\"ts\":" << e.cycle
           << ",\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":{\"heuristic\":\"";
        put_code(os, dec.heuristic, e.code);
        os << "\",\"flags\":\"" << audit_flag_names(e.mask)
           << "\",\"ipc_before\":";
        put_double(os, e.fetch_share);
        os << ",\"ipc_after\":";
        put_double(os, e.ipc);
        os << "}}";
        break;
      }
      case EventKind::kCpiStack: {
        // One counter track per thread: the per-quantum commit-slot
        // stack renders as a stacked area chart over time.
        next();
        os << "{\"name\":\"thread " << e.tid
           << " cpi\",\"ph\":\"C\",\"ts\":" << e.cycle
           << ",\"pid\":0,\"tid\":0,\"args\":";
        put_named(os, e.cpi, kCpiCauseNames);
        os << '}';
        break;
      }
    }
  }
  os << "\n]}\n";
}

}  // namespace smt::obs
