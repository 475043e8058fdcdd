#include "obs/trace_sink.hpp"

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

std::string pipe_flag_names(std::uint8_t mask) {
  std::string out;
  if ((mask & kPipeWrongPath) != 0) out += "wrong_path";
  if ((mask & kPipeMispredicted) != 0) {
    if (!out.empty()) out += '|';
    out += "mispredicted";
  }
  return out.empty() ? "-" : out;
}

/// The mask column's decoding also depends on the event kind: pipeview
/// rows carry pipe flags, switch and audit rows carry audit flags, and
/// everything else prints raw.
void put_mask(std::ostream& os, const TraceEvent& e) {
  switch (e.kind) {
    case EventKind::kPipeview:
      os << pipe_flag_names(e.mask);
      break;
    case EventKind::kPolicySwitch:
    case EventKind::kSwitchAudit:
      os << audit_flag_names(e.mask);
      break;
    default:
      os << static_cast<unsigned>(e.mask);
      break;
  }
}

/// The column whose decoding depends on the event kind.
void put_kind_code(std::ostream& os, const TraceDecoder& dec,
                   const TraceEvent& e) {
  switch (e.kind) {
    case EventKind::kPolicySwitch:
    case EventKind::kSwitchAudit:
      put_code(os, dec.heuristic, e.code);
      break;
    case EventKind::kInvariant:
      put_code(os, dec.invariant, e.code);
      break;
    case EventKind::kPipeview:
      os << name(static_cast<PipeTerminal>(e.code));
      break;
    default:
      os << static_cast<unsigned>(e.code);
      break;
  }
}

void put_json_string(std::ostream& os, std::string_view s) {
  os << '"' << json_escape(s) << '"';
}

/// One build_info JSON object — the same bytes serve as the first JSONL
/// line and (behind "# ") as the CSV comment header, so one parser reads
/// both (see obs/trace_read.cpp).
void put_build_info(std::ostream& os, const RunInfo& info) {
  char buf[32];
  os << "{\"event\":\"build_info\",\"tool\":";
  put_json_string(os, info.tool);
  os << ",\"version\":";
  put_json_string(os, info.version);
  os << ",\"git_sha\":";
  put_json_string(os, info.git_sha);
  os << ",\"compiler\":";
  put_json_string(os, info.compiler);
  os << ",\"flags\":";
  put_json_string(os, info.flags);
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(info.seed));
  os << ",\"seed\":\"" << buf << "\"";
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(info.config_digest));
  os << ",\"config_digest\":\"" << buf << "\"";
  os << ",\"host_cpu\":";
  put_json_string(os, info.host_cpu);
  os << ",\"host_cores\":\"" << info.host_cores << "\"";
  os << ",\"smt_jobs\":\"" << info.smt_jobs << "\"}";
}

}  // namespace

std::string_view name(TraceFormat f) noexcept {
  switch (f) {
    case TraceFormat::kCsv: return "csv";
    case TraceFormat::kJsonl: return "jsonl";
    case TraceFormat::kChrome: return "chrome";
  }
  return "unknown";
}

std::optional<TraceFormat> parse_trace_format(std::string_view s) noexcept {
  if (s == "csv") return TraceFormat::kCsv;
  if (s == "jsonl") return TraceFormat::kJsonl;
  if (s == "chrome") return TraceFormat::kChrome;
  return std::nullopt;
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

void TraceSink::write(std::ostream& os, TraceFormat format,
                      const TraceDecoder& dec) const {
  const std::vector<TraceEvent> evs = snapshot();
  const RunInfo* info = run_info_.has_value() ? &*run_info_ : nullptr;
  switch (format) {
    case TraceFormat::kCsv: write_csv(os, evs, dec, info); break;
    case TraceFormat::kJsonl: write_jsonl(os, evs, dec, info); break;
    case TraceFormat::kChrome: write_chrome(os, evs, dec, info); break;
  }
}

// ---------------------------------------------------------------------------
// CSV backend — one flat schema for every event kind.
// ---------------------------------------------------------------------------
void TraceSink::write_csv(std::ostream& os, const std::vector<TraceEvent>& evs,
                          const TraceDecoder& dec, const RunInfo* info) {
  if (info != nullptr) {
    os << "# ";
    put_build_info(os, *info);
    os << '\n';
  }
  os << "event,quantum,cycle,tid,span,policy_before,policy_after,code,"
        "mask,value,ipc,fetch_share,mispredict_rate,l1d_miss_rate,"
        "l1i_miss_rate";
  for (std::size_t c = 0; c < kNumStallCauses; ++c) {
    os << ",stall_" << name(static_cast<StallCause>(c));
  }
  for (std::size_t c = 0; c < kNumCpiCauses; ++c) {
    os << ",cpi_" << name(static_cast<CpiCause>(c));
  }
  os << ",stages,label,contend\n";
  for (const TraceEvent& e : evs) {
    os << name(e.kind) << ',' << e.quantum << ',' << e.cycle << ',' << e.tid
       << ',' << e.span << ',';
    put_code(os, dec.policy, e.policy_before);
    os << ',';
    put_code(os, dec.policy, e.policy_after);
    os << ',';
    put_kind_code(os, dec, e);
    os << ',';
    put_mask(os, e);
    os << ',' << e.value << ',';
    put_double(os, e.ipc);
    os << ',';
    put_double(os, e.fetch_share);
    os << ',';
    put_double(os, e.mispredict_rate);
    os << ',';
    put_double(os, e.l1d_miss_rate);
    os << ',';
    put_double(os, e.l1i_miss_rate);
    for (const std::uint64_t s : e.stalls) os << ',' << s;
    for (const std::uint64_t s : e.cpi) os << ',' << s;
    os << ',';
    if (e.kind == EventKind::kPipeview) {
      for (std::size_t i = 0; i < kNumPipeStages; ++i) {
        if (i > 0) os << ';';
        os << e.stage_delta[i];
      }
    }
    os << ',';
    if (e.kind == EventKind::kProf) os << e.label_view();
    os << ',';
    if (e.kind == EventKind::kCpiStack) {
      for (std::size_t h = 0; h < kCpiMaxThreads; ++h) {
        if (h > 0) os << ';';
        os << e.contend[h];
      }
    }
    os << '\n';
  }
}

// ---------------------------------------------------------------------------
// JSONL backend — one self-describing object per line, numeric codes,
// fixed key set (scripts/check_observability.sh validates this schema).
// ---------------------------------------------------------------------------
void TraceSink::write_jsonl(std::ostream& os,
                            const std::vector<TraceEvent>& evs,
                            const TraceDecoder& /*dec*/, const RunInfo* info) {
  if (info != nullptr) {
    put_build_info(os, *info);
    os << '\n';
  }
  for (const TraceEvent& e : evs) {
    os << "{\"event\":\"" << name(e.kind) << "\",\"quantum\":" << e.quantum
       << ",\"cycle\":" << e.cycle << ",\"tid\":" << e.tid
       << ",\"span\":" << e.span
       << ",\"policy_before\":" << static_cast<unsigned>(e.policy_before)
       << ",\"policy_after\":" << static_cast<unsigned>(e.policy_after)
       << ",\"code\":" << static_cast<unsigned>(e.code)
       << ",\"mask\":" << static_cast<unsigned>(e.mask)
       << ",\"value\":" << e.value << ",\"ipc\":";
    put_double(os, e.ipc);
    os << ",\"fetch_share\":";
    put_double(os, e.fetch_share);
    os << ",\"mispredict_rate\":";
    put_double(os, e.mispredict_rate);
    os << ",\"l1d_miss_rate\":";
    put_double(os, e.l1d_miss_rate);
    os << ",\"l1i_miss_rate\":";
    put_double(os, e.l1i_miss_rate);
    os << ",\"stalls\":{";
    for (std::size_t c = 0; c < kNumStallCauses; ++c) {
      if (c > 0) os << ',';
      os << '"' << name(static_cast<StallCause>(c)) << "\":" << e.stalls[c];
    }
    os << '}';
    if (e.kind == EventKind::kPipeview) {
      os << ",\"stages\":[";
      for (std::size_t i = 0; i < kNumPipeStages; ++i) {
        if (i > 0) os << ',';
        os << e.stage_delta[i];
      }
      os << ']';
    }
    if (e.kind == EventKind::kProf) {
      os << ",\"label\":";
      put_json_string(os, e.label_view());
    }
    if (e.kind == EventKind::kCpiStack) {
      os << ",\"cpi\":{";
      for (std::size_t c = 0; c < kNumCpiCauses; ++c) {
        if (c > 0) os << ',';
        os << '"' << name(static_cast<CpiCause>(c)) << "\":" << e.cpi[c];
      }
      os << "},\"contend\":[";
      for (std::size_t h = 0; h < kCpiMaxThreads; ++h) {
        if (h > 0) os << ',';
        os << e.contend[h];
      }
      os << ']';
    }
    os << "}\n";
  }
}

// ---------------------------------------------------------------------------
// Chrome trace-event backend — loads in Perfetto / chrome://tracing.
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
           << ",\"pid\":0,\"tid\":0,\"args\":{";
        for (std::size_t c = 0; c < kNumStallCauses; ++c) {
          if (c > 0) os << ',';
          os << '"' << name(static_cast<StallCause>(c))
             << "\":" << e.stalls[c];
        }
        os << "}}";
        break;
      }
      case EventKind::kPolicySwitch: {
        next();
        os << "{\"name\":\"switch ";
        put_code(os, dec.policy, e.policy_before);
        os << " -> ";
        put_code(os, dec.policy, e.policy_after);
        os << "\",\"cat\":\"adts\",\"ph\":\"i\",\"ts\":" << e.cycle
           << ",\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":{\"heuristic\":\"";
        put_code(os, dec.heuristic, e.code);
        os << "\",\"ipc_last\":";
        put_double(os, e.ipc);
        os << "}}";
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
           << ",\"args\":{\"flags\":\"" << pipe_flag_names(e.mask)
           << "\",\"stages\":[";
        for (std::size_t i = 0; i < kNumPipeStages; ++i) {
          if (i > 0) os << ',';
          os << e.stage_delta[i];
        }
        os << "]}}";
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
      case EventKind::kProf: {
        // Phase nodes live on their own synthetic-time process track
        // (pid 2): ts/dur are profiler nanoseconds laid out preorder so
        // the tree renders as a flame chart, not simulation cycles.
        next();
        os << "{\"name\":\"" << json_escape(e.label_view())
           << "\",\"cat\":\"prof\",\"ph\":\"X\",\"ts\":";
        put_double(os, static_cast<double>(e.cycle) / 1e3);
        os << ",\"dur\":";
        put_double(os, static_cast<double>(e.span) / 1e3);
        os << ",\"pid\":2,\"tid\":0,\"args\":{\"count\":" << e.quantum
           << ",\"excl_ns\":" << e.value
           << ",\"depth\":" << static_cast<unsigned>(e.code) << "}}";
        break;
      }
      case EventKind::kCpiStack: {
        // One counter track per thread: the per-quantum commit-slot
        // stack renders as a stacked area chart over time.
        next();
        os << "{\"name\":\"thread " << e.tid
           << " cpi\",\"ph\":\"C\",\"ts\":" << e.cycle
           << ",\"pid\":0,\"tid\":0,\"args\":{";
        for (std::size_t c = 0; c < kNumCpiCauses; ++c) {
          if (c > 0) os << ',';
          os << '"' << name(static_cast<CpiCause>(c)) << "\":" << e.cpi[c];
        }
        os << "}}";
        break;
      }
    }
  }
  os << "\n]}\n";
}

}  // namespace smt::obs
