// smttrace: offline analysis of smtsim's JSONL trace files.
//
// Its commands, their options and its exit codes are documented once, in
// kCli below (`smttrace --help`). Every command decodes through
// obs::read_trace, which returns the numeric codes the trace holds;
// names come from the policy, heuristic and obs name functions.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "common/table.hpp"
#include "core/heuristics.hpp"
#include "obs/cpi_stack.hpp"
#include "obs/histogram.hpp"
#include "obs/stall.hpp"
#include "obs/switch_audit.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_read.hpp"
#include "obs/trace_schema.hpp"
#include "obs/trace_sink.hpp"
#include "policy/fetch_policy.hpp"
#include "sim/simulator.hpp"

namespace {

using smt::Table;
using smt::obs::EventKind;
using smt::obs::ReadTrace;
using smt::obs::TraceEvent;

// The commands are smttrace's modes: bit i is command kCli.modes[i].
constexpr unsigned kSummary = 1U, kSwitches = 2U, kPipeview = 4U, kDiff = 16U,
                   kCpi = 32U;

const smt::CliTable kCli = {
    R"(usage: smttrace <command> [<trace> [<trace2>]] [options]

commands:
  summary  <trace>            per-quantum machine table + stall breakdown
  switches <trace>            switch-audit table + per-heuristic benign rates
  pipeview <trace>            ASCII waterfall of --pipeview lifecycle samples
  hist     <trace>            stage-latency and quantum-IPC histograms
  diff     <trace> <trace2>   per-quantum IPC/stall/switch deltas
  cpi      <trace> [<trace2>] per-thread CPI stacks (--cpi runs): cause
                              shares, ROB-empty breakdown, contention
                              matrix, per-quantum series; two traces = A/B
                              per-quantum stack diff
  chrome   <trace>            Chrome trace-event JSON on stdout (loads in
                              Perfetto / chrome://tracing)
  schema                      the trace schema as JSON on stdout

)",
    {"summary", "switches", "pipeview", "hist", "diff", "cpi", "chrome",
     "schema"},
    {{"limit", "N", kSummary | kSwitches | kPipeview | kDiff | kCpi,
      "cap table / waterfall rows printed (0 = no cap, default)"},
     {"csv", "", kSummary | kSwitches | kDiff | kCpi,
      "emit tables as CSV instead of aligned text"},
     {"help", "", smt::kAllModes, "this text"}},
    R"(
<trace> is the JSONL file written by `smtsim --trace`; "-" reads stdin.
Chrome exports are output only and are rejected as input.

exit codes: 0 ok, 2 usage error, 3 unreadable or malformed trace.
`diff` always exits 0 when both traces parse; the verdict is the final
"N quanta compared, M differing" line.
)"};

struct Options {
  std::size_t limit = 0;  ///< 0 = unlimited
  bool csv = false;
};

// ---------------------------------------------------------------------------
// Names of the numeric codes a trace holds.

std::string policy_name(std::uint8_t code) {
  return std::string(
      smt::policy::name(static_cast<smt::policy::FetchPolicy>(code)));
}

std::string heuristic_name(std::uint8_t code) {
  return std::string(
      smt::core::name(static_cast<smt::core::HeuristicType>(code)));
}

std::string ipc_or_dash(double v) {
  return std::isnan(v) ? "-" : Table::num(v);
}

void print_table(const Table& t, const Options& opt) {
  if (opt.csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
}

// ---------------------------------------------------------------------------
// Trace loading

ReadTrace load(const std::string& path) {
  if (path == "-") return smt::obs::read_trace(std::cin);
  std::ifstream in(path);
  if (!in) throw smt::ConfigError("cannot open trace file: " + path);
  return smt::obs::read_trace(in);
}

void print_provenance(const ReadTrace& t) {
  if (!t.build) return;
  const auto values = smt::obs::build_info_values(*t.build);
  std::cout << "build:";
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::cout << ' ' << smt::obs::kBuildInfoKeys[i] << '=' << values[i];
  }
  std::cout << '\n';
}

/// Traces of two different configurations still diff; say so first.
void note_digests(const ReadTrace& a, const ReadTrace& b) {
  if (!a.build || !b.build ||
      a.build->config_digest == b.build->config_digest) {
    return;
  }
  const auto hex = [](std::uint64_t d) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(d));
    return std::string(buf);
  };
  std::cout << "note: config digests differ ("
            << hex(a.build->config_digest) << " vs "
            << hex(b.build->config_digest) << ")\n";
}

// ---------------------------------------------------------------------------
// summary

int cmd_summary(const ReadTrace& trace, const Options& opt) {
  print_provenance(trace);

  Table quanta({"quantum", "cycles", "committed", "ipc", "policy"});
  smt::obs::StallBreakdown stalls;
  std::uint64_t committed = 0;
  std::uint64_t cycles = 0;
  std::uint64_t quantum_rows = 0;
  std::uint64_t switches = 0;
  std::size_t skipped = 0;

  for (const TraceEvent& e : trace.events) {
    stalls += smt::obs::decode_fetch_stalls(e);
    switch (e.kind) {
      case EventKind::kQuantum:
        committed += e.value;
        cycles += e.span;
        ++quantum_rows;
        if (opt.limit != 0 && quanta.rows() >= opt.limit) {
          ++skipped;
          break;
        }
        quanta.add_row({std::to_string(e.quantum), std::to_string(e.span),
                        std::to_string(e.value), Table::num(e.ipc),
                        policy_name(e.policy_after)});
        break;
      case EventKind::kSwitchAudit: ++switches; break;
      default: break;
    }
  }

  print_table(quanta, opt);
  if (skipped != 0) std::cout << "  ... " << skipped << " more quanta\n";
  std::cout << '\n';

  const std::uint64_t lost = stalls.total();
  Table st({"stall cause", "lost slots", "share"});
  for (std::size_t i = 0; i < stalls.slots.size(); ++i) {
    const std::uint64_t n = stalls.slots[i];
    if (n == 0) continue;
    st.add_row({std::string(name(static_cast<smt::obs::StallCause>(i))),
                std::to_string(n),
                lost != 0 ? Table::num(static_cast<double>(n) /
                                       static_cast<double>(lost))
                          : "0"});
  }
  print_table(st, opt);

  const double ipc =
      cycles != 0
          ? static_cast<double>(committed) / static_cast<double>(cycles)
          : 0.0;
  std::cout << '\n'
            << quantum_rows << " quanta, " << committed << " committed over "
            << cycles << " cycles (ipc " << Table::num(ipc) << "), "
            << switches << " policy switches\n";
  return smt::kExitOk;
}

// ---------------------------------------------------------------------------
// switches

int cmd_switches(const ReadTrace& trace, const Options& opt) {
  print_provenance(trace);

  Table audits({"#", "quantum", "decided", "applied", "wait", "heuristic",
                "policy", "flags", "ipc_before", "ipc_after", "label"});
  struct HeurStats {
    std::uint64_t benign = 0;
    std::uint64_t malignant = 0;
    std::uint64_t neutral = 0;
  };
  std::map<std::string, HeurStats> by_heuristic;
  std::uint64_t benign = 0;
  std::uint64_t malignant = 0;
  std::uint64_t neutral = 0;
  std::size_t total = 0;
  std::size_t skipped = 0;

  for (const TraceEvent& e : trace.events) {
    if (e.kind != EventKind::kSwitchAudit) continue;
    ++total;
    const auto label = static_cast<smt::obs::SwitchLabel>(e.value);
    const std::string heuristic = heuristic_name(e.code);
    HeurStats& h = by_heuristic[heuristic];
    switch (label) {
      case smt::obs::SwitchLabel::kBenign:
        ++benign;
        ++h.benign;
        break;
      case smt::obs::SwitchLabel::kMalignant:
        ++malignant;
        ++h.malignant;
        break;
      default:
        ++neutral;
        ++h.neutral;
        break;
    }
    if (opt.limit != 0 && audits.rows() >= opt.limit) {
      ++skipped;
      continue;
    }
    audits.add_row(
        {std::to_string(total), std::to_string(e.quantum),
         std::to_string(e.cycle - e.span), std::to_string(e.cycle),
         std::to_string(e.span), heuristic,
         policy_name(e.policy_before) + "->" + policy_name(e.policy_after),
         smt::obs::audit_flag_names(e.mask), Table::num(e.fetch_share),
         ipc_or_dash(e.ipc), std::string(name(label))});
  }

  print_table(audits, opt);
  if (skipped != 0) std::cout << "  ... " << skipped << " more switches\n";

  std::cout << '\n'
            << total << " switches: " << benign << " benign / " << malignant
            << " malignant / " << neutral << " neutral, P(benign) "
            << Table::num(smt::obs::benign_probability(benign, malignant))
            << '\n';

  if (!by_heuristic.empty()) {
    std::cout << '\n';
    Table fig7({"heuristic", "switches", "benign", "malignant", "P(benign)"});
    for (const auto& [h, s] : by_heuristic) {
      fig7.add_row({h, std::to_string(s.benign + s.malignant + s.neutral),
                    std::to_string(s.benign), std::to_string(s.malignant),
                    Table::num(smt::obs::benign_probability(s.benign,
                                                            s.malignant))});
    }
    print_table(fig7, opt);
  }
  return smt::kExitOk;
}

// ---------------------------------------------------------------------------
// pipeview

/// One character per lifecycle stage, placed at its cycle offset in the
/// lane; later stages overwrite earlier ones that land on the same cycle
/// (issue and execute share a cycle by construction).
constexpr std::array<char, smt::obs::kNumPipeStages> kStageChar = {
    'D',  // decode
    'R',  // rename
    'Q',  // dispatched into an issue queue
    'I',  // issued
    'E',  // executing
    'W',  // writeback
    'C',  // retire slot; overwritten by 'X' for squashes
};

int cmd_pipeview(const ReadTrace& trace, const Options& opt) {
  constexpr std::uint64_t kLaneWidth = 64;
  std::size_t shown = 0;
  std::size_t total = 0;
  std::uint64_t committed = 0;
  std::uint64_t squashed = 0;

  for (const TraceEvent& e : trace.events) {
    if (e.kind != EventKind::kPipeview) continue;
    ++total;
    const auto terminal = static_cast<smt::obs::PipeTerminal>(e.code);
    const bool commit = terminal == smt::obs::PipeTerminal::kCommit;
    committed += commit ? 1 : 0;
    squashed += commit ? 0 : 1;
    if (opt.limit != 0 && shown >= opt.limit) continue;
    ++shown;

    // Scale the lane so long lifetimes still fit in kLaneWidth columns.
    const std::uint64_t scale = e.span / kLaneWidth + 1;
    std::string lane(static_cast<std::size_t>(e.span / scale) + 1, '.');
    lane[0] = 'F';
    for (std::size_t s = 0; s < e.stage_delta.size(); ++s) {
      if (e.stage_delta[s] == 0) continue;  // never reached
      lane[static_cast<std::size_t>(e.stage_delta[s] / scale)] = kStageChar[s];
    }
    if (!commit) lane[lane.size() - 1] = 'X';

    const std::string mask = smt::obs::pipe_flag_names(e.mask);
    std::cout << "seq " << e.value << " tid " << e.tid << " fetch@" << e.cycle
              << " +" << e.span << " " << name(terminal);
    if (!mask.empty()) std::cout << " [" << mask << "]";
    if (scale > 1) std::cout << " (1 col = " << scale << " cycles)";
    std::cout << "\n  " << lane << "\n";
  }

  if (total == 0) {
    std::cout << "no pipeview events in trace (run smtsim with --pipeview "
                 "N@CYCLE)\n";
    return smt::kExitOk;
  }
  if (shown < total) {
    std::cout << "... " << (total - shown) << " more instructions\n";
  }
  std::cout << '\n'
            << total << " sampled instructions: " << committed
            << " committed, " << squashed << " squashed\n";
  return smt::kExitOk;
}

// ---------------------------------------------------------------------------
// hist

void render_latency_hist(const std::string& label,
                         const std::vector<std::uint64_t>& samples) {
  std::uint64_t max = 0;
  for (const std::uint64_t v : samples) max = std::max(max, v);
  smt::obs::Histogram h(0.0, static_cast<double>(max + 1),
                        std::min<std::size_t>(static_cast<std::size_t>(max) + 1,
                                              16));
  for (const std::uint64_t v : samples) h.add(static_cast<double>(v));
  h.render(std::cout, label);
  std::cout << '\n';
}

int cmd_hist(const ReadTrace& trace, const Options& /*opt*/) {
  constexpr auto kDispatch =
      static_cast<std::size_t>(smt::obs::PipeStage::kDispatch);
  constexpr auto kIssue =
      static_cast<std::size_t>(smt::obs::PipeStage::kIssue);
  constexpr auto kWriteback =
      static_cast<std::size_t>(smt::obs::PipeStage::kWriteback);

  std::vector<std::uint64_t> frontend;  // fetch -> dispatch
  std::vector<std::uint64_t> queue;     // dispatch -> issue
  std::vector<std::uint64_t> execute;   // issue -> writeback
  std::vector<std::uint64_t> commit;    // writeback -> retire
  std::vector<std::uint64_t> lifetime;  // fetch -> retire
  std::vector<double> quantum_ipc;

  for (const TraceEvent& e : trace.events) {
    if (e.kind == EventKind::kQuantum) {
      quantum_ipc.push_back(e.ipc);
      continue;
    }
    if (e.kind != EventKind::kPipeview) continue;
    lifetime.push_back(e.span);
    const auto& st = e.stage_delta;
    if (st[kDispatch] != 0) {
      frontend.push_back(st[kDispatch]);
      if (st[kIssue] != 0) {
        queue.push_back(st[kIssue] - st[kDispatch]);
        if (st[kWriteback] != 0) {
          execute.push_back(st[kWriteback] - st[kIssue]);
          commit.push_back(e.span - st[kWriteback]);
        }
      }
    }
  }

  if (lifetime.empty()) {
    std::cout << "no pipeview events in trace (run smtsim with --pipeview "
                 "N@CYCLE); stage-latency histograms skipped\n\n";
  } else {
    render_latency_hist("frontend latency, fetch->dispatch (cycles)",
                        frontend);
    render_latency_hist("queue wait, dispatch->issue (cycles)", queue);
    render_latency_hist("execute, issue->writeback (cycles)", execute);
    render_latency_hist("commit wait, writeback->retire (cycles)", commit);
    render_latency_hist("lifetime, fetch->retire (cycles)", lifetime);
  }

  if (!quantum_ipc.empty()) {
    double max = 0.0;
    for (const double v : quantum_ipc) {
      if (!std::isnan(v)) max = std::max(max, v);
    }
    smt::obs::Histogram h(0.0, max > 0.0 ? max * 1.0001 : 1.0, 16);
    for (const double v : quantum_ipc) h.add(v);
    h.render(std::cout, "per-quantum machine IPC");
  }
  return smt::kExitOk;
}

// ---------------------------------------------------------------------------
// diff

struct QuantumFacts {
  double ipc = 0.0;
  std::uint64_t committed = 0;
  std::uint64_t stalls = 0;    ///< lost fetch slots, all causes
  std::uint64_t switches = 0;  ///< switch_audit rows decided at its end
  bool present = false;        ///< saw the machine-level kQuantum row
};

std::map<std::uint64_t, QuantumFacts> collect(const ReadTrace& t) {
  std::map<std::uint64_t, QuantumFacts> m;
  for (const TraceEvent& e : t.events) {
    QuantumFacts& q = m[e.quantum];
    q.stalls += smt::obs::decode_fetch_stalls(e).total();
    switch (e.kind) {
      case EventKind::kQuantum:
        q.present = true;
        q.ipc = e.ipc;
        q.committed = e.value;
        break;
      case EventKind::kSwitchAudit:
        ++q.switches;
        break;
      default:
        break;
    }
  }
  // Drop quanta that never got a machine summary row (e.g. trailing
  // flush-only audit events): they have nothing comparable.
  for (auto it = m.begin(); it != m.end();) {
    it = it->second.present ? std::next(it) : m.erase(it);
  }
  return m;
}

using Row = std::vector<std::string>;

/// Compare two keyed maps over the sorted union of their keys. `row(key,
/// a, b)` gets nullptr for a side that lacks the key and returns the row
/// of a differing key, or nullopt when both sides agree. Prints at most
/// opt.limit differing rows into `t`, then the "N <what> compared, M
/// differing" tally.
template <typename Map, typename RowFn>
void print_map_diff(const Map& a, const Map& b, Table t, const Options& opt,
                    const char* what, RowFn row) {
  std::set<typename Map::key_type> keys;
  for (const auto& [k, v] : a) keys.insert(k);
  for (const auto& [k, v] : b) keys.insert(k);

  std::size_t differing = 0;
  std::size_t skipped = 0;
  for (const auto& k : keys) {
    const auto ia = a.find(k);
    const auto ib = b.find(k);
    std::optional<Row> r = row(k, ia != a.end() ? &ia->second : nullptr,
                               ib != b.end() ? &ib->second : nullptr);
    if (!r) continue;
    ++differing;
    if (opt.limit != 0 && t.rows() >= opt.limit) {
      ++skipped;
      continue;
    }
    t.add_row(std::move(*r));
  }

  if (t.rows() != 0) {
    print_table(t, opt);
    if (skipped != 0) std::cout << "  ... " << skipped << " more\n";
    std::cout << '\n';
  }
  std::cout << keys.size() << ' ' << what << " compared, " << differing
            << " differing\n";
}

/// b - a as a signed decimal.
std::string delta(std::uint64_t a, std::uint64_t b) {
  return std::to_string(static_cast<std::int64_t>(b) -
                        static_cast<std::int64_t>(a));
}

int cmd_diff(const ReadTrace& a, const ReadTrace& b, const Options& opt) {
  note_digests(a, b);
  print_map_diff(
      collect(a), collect(b),
      Table({"quantum", "ipc_a", "ipc_b", "d_ipc", "d_committed", "d_stalls",
             "d_switches"}),
      opt, "quanta",
      [](std::uint64_t k, const QuantumFacts* fa,
         const QuantumFacts* fb) -> std::optional<Row> {
        if (fa == nullptr || fb == nullptr) {
          return Row{std::to_string(k), fa ? Table::num(fa->ipc) : "-",
                     fb ? Table::num(fb->ipc) : "-", "-", "-", "-", "-"};
        }
        if (fa->ipc == fb->ipc && fa->committed == fb->committed &&
            fa->stalls == fb->stalls && fa->switches == fb->switches) {
          return std::nullopt;
        }
        return Row{std::to_string(k), Table::num(fa->ipc), Table::num(fb->ipc),
                   Table::num(fb->ipc - fa->ipc),
                   delta(fa->committed, fb->committed),
                   delta(fa->stalls, fb->stalls),
                   delta(fa->switches, fb->switches)};
      });
  return smt::kExitOk;
}

// ---------------------------------------------------------------------------
// cpi

/// A sum of kCpiStack rows: the stack and the cycles it covers.
using CpiSum = std::pair<smt::obs::CpiStack, std::uint64_t>;

void add_cpi_row(CpiSum& sum, const TraceEvent& e) {
  sum.first += smt::obs::decode_cpi_stack(e);
  sum.second += e.span;
}

std::string share_of(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? "0"
                    : Table::num(static_cast<double>(part) /
                                 static_cast<double>(whole));
}

int cmd_cpi(const ReadTrace& trace, const Options& opt) {
  print_provenance(trace);

  std::map<std::int64_t, CpiSum> by_tid;
  std::uint64_t width = 0;  ///< commit width (kCpiStack value column)
  std::size_t rows = 0;
  for (const TraceEvent& e : trace.events) {
    if (e.kind != EventKind::kCpiStack) continue;
    add_cpi_row(by_tid[e.tid], e);
    width = e.value;
    ++rows;
  }
  if (rows == 0) {
    std::cout << "no cpi_stack events in trace (run smtsim with --cpi "
                 "--trace)\n";
    return smt::kExitOk;
  }

  // Per-thread stacks, one cause per row; the ROB-empty bucket breaks out
  // into the fetch stall cause that starved the window.
  Table stacks({"thread", "cause", "slots", "share", "cpi"});
  std::uint64_t conservation_gap = 0;
  std::uint64_t slots_accounted = 0;
  for (const auto& [tid, sum] : by_tid) {
    const auto& [a, cycles] = sum;
    const std::uint64_t budget = width * cycles;
    slots_accounted += budget;
    conservation_gap += smt::obs::conservation_gap(a, width, cycles);
    const std::uint64_t committed = a[smt::obs::CpiCause::kCommitted];
    for (std::size_t c = 0; c < a.slots.size(); ++c) {
      if (a.slots[c] == 0) continue;
      // "cpi" is the bucket's contribution to the thread's CPI: lost
      // slots per committed instruction (the committed row reads as the
      // base cost, 1/IPC of a perfect machine at this width).
      stacks.add_row(
          {std::to_string(tid),
           std::string(name(static_cast<smt::obs::CpiCause>(c))),
           std::to_string(a.slots[c]), share_of(a.slots[c], budget),
           committed != 0 ? Table::num(static_cast<double>(a.slots[c]) /
                                       static_cast<double>(committed))
                          : "-"});
      if (static_cast<smt::obs::CpiCause>(c) ==
          smt::obs::CpiCause::kRobEmpty) {
        for (std::size_t s = 0; s < a.rob_empty_by.slots.size(); ++s) {
          const std::uint64_t n = a.rob_empty_by.slots[s];
          if (n == 0) continue;
          stacks.add_row(
              {std::to_string(tid),
               "  rob_empty:" +
                   std::string(name(static_cast<smt::obs::StallCause>(s))),
               std::to_string(n), share_of(n, budget), ""});
        }
      }
    }
  }
  print_table(stacks, opt);

  // Co-runner contention matrix: who held the FU / memory port while each
  // thread's ready head waited — the symbiosis signal.
  bool any_contention = false;
  for (const auto& [tid, sum] : by_tid) {
    any_contention |= sum.first.contend.total() != 0;
  }
  if (any_contention) {
    std::cout << '\n';
    std::vector<std::string> head{"waiter \\ holder"};
    for (const auto& [tid, sum] : by_tid) head.push_back(std::to_string(tid));
    Table m(head);
    for (const auto& [tid, sum] : by_tid) {
      std::vector<std::string> row{std::to_string(tid)};
      for (const auto& [holder, unused] : by_tid) {
        row.push_back(std::to_string(
            sum.first.contend[static_cast<std::size_t>(holder)]));
      }
      m.add_row(row);
    }
    print_table(m, opt);
  }

  // Per-quantum time-series (total loss share and the dominant cause).
  std::cout << '\n';
  Table series({"quantum", "thread", "cycles", "ipc", "lost_share",
                "top_cause", "top_share"});
  std::size_t skipped = 0;
  for (const TraceEvent& e : trace.events) {
    if (e.kind != EventKind::kCpiStack) continue;
    if (opt.limit != 0 && series.rows() >= opt.limit) {
      ++skipped;
      continue;
    }
    const std::uint64_t budget = e.value * e.span;
    const smt::obs::CpiStack st = smt::obs::decode_cpi_stack(e);
    const auto committed_ix =
        static_cast<std::size_t>(smt::obs::CpiCause::kCommitted);
    std::size_t top = 0;
    std::uint64_t top_v = 0;
    std::uint64_t lost = 0;
    for (std::size_t c = 0; c < st.slots.size(); ++c) {
      if (c == committed_ix) continue;
      lost += st.slots[c];
      if (st.slots[c] > top_v) {
        top_v = st.slots[c];
        top = c;
      }
    }
    series.add_row(
        {std::to_string(e.quantum), std::to_string(e.tid),
         std::to_string(e.span), ipc_or_dash(e.ipc), share_of(lost, budget),
         top_v != 0 ? std::string(name(static_cast<smt::obs::CpiCause>(top)))
                    : "-",
         share_of(top_v, budget)});
  }
  print_table(series, opt);
  if (skipped != 0) std::cout << "  ... " << skipped << " more rows\n";

  std::cout << '\n'
            << rows << " cpi rows, " << by_tid.size() << " threads, "
            << slots_accounted << " commit slots accounted, conservation "
            << (conservation_gap == 0
                    ? "OK"
                    : "VIOLATED (gap " + std::to_string(conservation_gap) +
                          ")")
            << '\n';
  return smt::kExitOk;
}

int cmd_cpi_diff(const ReadTrace& a, const ReadTrace& b, const Options& opt) {
  note_digests(a, b);

  // Key rows by quantum × tid; each side contributes at most one
  // kCpiStack row per key.
  using Key = std::pair<std::uint64_t, std::int64_t>;
  const auto collect_cpi = [](const ReadTrace& t) {
    std::map<Key, CpiSum> m;
    for (const TraceEvent& e : t.events) {
      if (e.kind != EventKind::kCpiStack) continue;
      add_cpi_row(m[{e.quantum, e.tid}], e);
    }
    return m;
  };

  Row head{"quantum", "thread"};
  for (std::size_t c = 0; c < smt::obs::kNumCpiCauses; ++c) {
    head.push_back("d_" +
                   std::string(name(static_cast<smt::obs::CpiCause>(c))));
  }
  print_map_diff(
      collect_cpi(a), collect_cpi(b), Table(head), opt, "cpi rows",
      [](const Key& k, const CpiSum* pa,
         const CpiSum* pb) -> std::optional<Row> {
        if (pa && pb && *pa == *pb) return std::nullopt;
        const smt::obs::CpiStack ea = pa ? pa->first : smt::obs::CpiStack{};
        const smt::obs::CpiStack eb = pb ? pb->first : smt::obs::CpiStack{};
        Row row{std::to_string(k.first), std::to_string(k.second)};
        for (std::size_t c = 0; c < smt::obs::kNumCpiCauses; ++c) {
          row.push_back(delta(ea.slots[c], eb.slots[c]));
        }
        return row;
      });
  return smt::kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const smt::CliArgs args(argc, argv, kCli);
    if (args.has("help")) {
      smt::write_help(std::cout, kCli);
      return smt::kExitOk;
    }
    const std::vector<std::string>& pos = args.positional();
    if (pos.empty()) throw smt::UsageError("missing command");
    const std::string& cmd = pos[0];
    const auto mode = std::find(kCli.modes.begin(), kCli.modes.end(), cmd);
    if (mode == kCli.modes.end()) {
      throw smt::UsageError("unknown command: " + cmd);
    }
    args.check_mode(1U << (mode - kCli.modes.begin()));
    if (cmd == "schema") {
      if (pos.size() != 1) throw smt::UsageError("schema takes no arguments");
      smt::obs::write_schema(std::cout);
      return smt::kExitOk;
    }
    const bool is_diff = cmd == "diff";
    const bool is_cpi = cmd == "cpi";
    if (is_cpi) {
      if (pos.size() != 2 && pos.size() != 3) {
        throw smt::UsageError("cpi takes 1 or 2 trace arguments");
      }
    } else {
      const std::size_t want = is_diff ? 3 : 2;
      if (pos.size() != want) {
        throw smt::UsageError(cmd + " takes exactly " +
                              std::to_string(want - 1) +
                              " trace argument(s)");
      }
    }

    Options opt;
    opt.limit = static_cast<std::size_t>(args.get_u64("limit", 0));
    opt.csv = args.has("csv");

    const ReadTrace trace = load(pos[1]);
    if (cmd == "summary") return cmd_summary(trace, opt);
    if (cmd == "switches") return cmd_switches(trace, opt);
    if (cmd == "pipeview") return cmd_pipeview(trace, opt);
    if (cmd == "hist") return cmd_hist(trace, opt);
    if (cmd == "chrome") {
      smt::obs::TraceSink::write_chrome(
          std::cout, trace.events, smt::sim::trace_decoder(),
          trace.build ? &*trace.build : nullptr);
      return smt::kExitOk;
    }
    if (is_cpi) {
      return pos.size() == 3 ? cmd_cpi_diff(trace, load(pos[2]), opt)
                             : cmd_cpi(trace, opt);
    }
    return cmd_diff(trace, load(pos[2]), opt);
  } catch (const smt::UsageError& e) {
    std::cerr << "smttrace: " << e.what() << "\n\n";
    smt::write_help(std::cerr, kCli);
    return smt::kExitUsage;
  } catch (const smt::obs::TraceReadError& e) {
    std::cerr << "smttrace: " << e.what() << '\n';
    return smt::kExitConfig;
  } catch (const std::exception& e) {
    std::cerr << "smttrace: " << e.what() << '\n';
    return smt::kExitConfig;
  }
}
