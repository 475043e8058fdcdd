#include "obs/trace_read.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <limits>
#include <variant>

namespace smt::obs {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw TraceReadError("trace line " + std::to_string(line_no) + ": " + what);
}

// --- minimal JSON parser ---------------------------------------------------
// Only what the JSONL backend emits: flat objects with string keys and
// null / bool / number / string / object / array values. Recursive
// descent over a string_view; depth is bounded by the schema (2).
struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;
struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonObject,
               JsonArray>
      v = nullptr;
};

struct JsonParser {
  std::string_view s;
  std::size_t pos = 0;
  std::size_t line_no;

  void skip_ws() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t')) ++pos;
  }
  char peek() {
    skip_ws();
    if (pos >= s.size()) fail(line_no, "unexpected end of JSON");
    return s[pos];
  }
  void expect(char c) {
    if (peek() != c) {
      fail(line_no, std::string("expected '") + c + "' got '" + s[pos] + "'");
    }
    ++pos;
  }
  bool consume(char c) {
    skip_ws();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos < s.size() && s[pos] != '"') {
      char c = s[pos++];
      if (c == '\\' && pos < s.size()) {
        const char esc = s[pos++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          default: fail(line_no, "unsupported JSON escape");
        }
      }
      out += c;
    }
    if (pos >= s.size()) fail(line_no, "unterminated JSON string");
    ++pos;  // closing quote
    return out;
  }

  JsonValue parse_value() {
    const char c = peek();
    JsonValue out;
    if (c == '{') {
      ++pos;
      JsonObject obj;
      if (!consume('}')) {
        do {
          std::string key = parse_string();
          expect(':');
          obj.emplace(std::move(key), parse_value());
        } while (consume(','));
        expect('}');
      }
      out.v = std::move(obj);
    } else if (c == '[') {
      ++pos;
      JsonArray arr;
      if (!consume(']')) {
        do {
          arr.push_back(parse_value());
        } while (consume(','));
        expect(']');
      }
      out.v = std::move(arr);
    } else if (c == '"') {
      out.v = parse_string();
    } else if (s.compare(pos, 4, "null") == 0) {
      pos += 4;
      out.v = nullptr;
    } else if (s.compare(pos, 4, "true") == 0) {
      pos += 4;
      out.v = true;
    } else if (s.compare(pos, 5, "false") == 0) {
      pos += 5;
      out.v = false;
    } else {
      char* end = nullptr;
      const double num = std::strtod(s.data() + pos, &end);
      if (end == s.data() + pos) fail(line_no, "bad JSON value");
      pos = static_cast<std::size_t>(end - s.data());
      out.v = num;
    }
    return out;
  }
};

JsonObject parse_json_object(std::string_view line, std::size_t line_no) {
  JsonParser p{line, 0, line_no};
  JsonValue v = p.parse_value();
  if (!std::holds_alternative<JsonObject>(v.v)) {
    fail(line_no, "expected a JSON object");
  }
  return std::get<JsonObject>(std::move(v.v));
}

double as_double(const JsonValue& v, std::size_t line_no) {
  if (std::holds_alternative<double>(v.v)) return std::get<double>(v.v);
  if (std::holds_alternative<std::nullptr_t>(v.v)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  fail(line_no, "expected a number");
}

std::string as_code_string(const JsonValue& v, std::size_t line_no) {
  if (std::holds_alternative<std::string>(v.v)) return std::get<std::string>(v.v);
  if (std::holds_alternative<double>(v.v)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", std::get<double>(v.v));
    return buf;
  }
  fail(line_no, "expected a string or number");
}

// --- field-name tables -----------------------------------------------------

constexpr std::array<EventKind, 8> kAllKinds{
    EventKind::kQuantum,     EventKind::kThreadQuantum,
    EventKind::kPolicySwitch, EventKind::kInvariant,
    EventKind::kPipeview,    EventKind::kSwitchAudit,
    EventKind::kProf,        EventKind::kCpiStack};

std::uint64_t parse_u64_field(const std::string& s, std::size_t line_no) {
  if (s.empty()) return 0;
  char* end = nullptr;
  const std::uint64_t out = std::strtoull(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') fail(line_no, "bad integer '" + s + "'");
  return out;
}

std::int64_t parse_i64_field(const std::string& s, std::size_t line_no) {
  if (s.empty()) return 0;
  char* end = nullptr;
  const std::int64_t out = std::strtoll(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') fail(line_no, "bad integer '" + s + "'");
  return out;
}

double parse_double_field(const std::string& s, std::size_t line_no) {
  if (s.empty() || s == "null") {
    return std::numeric_limits<double>::quiet_NaN();
  }
  char* end = nullptr;
  const double out = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0') fail(line_no, "bad number '" + s + "'");
  return out;
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    out.push_back(line.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::map<std::string, std::string> build_from_object(const JsonObject& obj) {
  std::map<std::string, std::string> out;
  for (const auto& [key, val] : obj) {
    if (key == "event") continue;
    out.emplace(key, as_code_string(val, 0));
  }
  return out;
}

// Parse a "d;d;...;d" stage list (CSV) into the fixed stage array.
void parse_stage_list(const std::string& s, ReadEvent& e,
                      std::size_t line_no) {
  if (s.empty()) return;
  std::size_t start = 0;
  std::size_t slot = 0;
  while (start <= s.size() && slot < e.stages.size()) {
    const std::size_t semi = s.find(';', start);
    const std::string tok = s.substr(
        start, semi == std::string::npos ? std::string::npos : semi - start);
    e.stages[slot++] = parse_u64_field(tok, line_no);
    if (semi == std::string::npos) return;
    start = semi + 1;
  }
  if (start <= s.size()) fail(line_no, "too many stage deltas");
}

// Parse a "d;d;...;d" contention list (CSV) into the holder-tid array.
void parse_contend_list(const std::string& s, ReadEvent& e,
                        std::size_t line_no) {
  if (s.empty()) return;
  std::size_t start = 0;
  std::size_t slot = 0;
  while (start <= s.size() && slot < e.contend.size()) {
    const std::size_t semi = s.find(';', start);
    const std::string tok = s.substr(
        start, semi == std::string::npos ? std::string::npos : semi - start);
    e.contend[slot++] = parse_u64_field(tok, line_no);
    if (semi == std::string::npos) return;
    start = semi + 1;
  }
  if (start <= s.size()) fail(line_no, "too many contention slots");
}

}  // namespace

std::optional<EventKind> parse_event_kind(std::string_view s) noexcept {
  for (const EventKind k : kAllKinds) {
    if (name(k) == s) return k;
  }
  return std::nullopt;
}

ReadTrace read_trace(std::istream& is) {
  ReadTrace out;
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;        // CSV column header seen
  std::vector<std::string> cols;  // CSV column names
  bool format_known = false;
  bool is_csv = false;

  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line.find("\"displayTimeUnit\"") != std::string::npos ||
        line.find("\"traceEvents\"") != std::string::npos) {
      fail(line_no,
           "chrome-format traces are a write-only export; "
           "re-run with --trace-format csv or jsonl");
    }

    // build_info header: CSV comment or first JSONL object.
    if (line[0] == '#') {
      const std::size_t brace = line.find('{');
      if (brace != std::string::npos) {
        out.build = build_from_object(
            parse_json_object(std::string_view(line).substr(brace), line_no));
      }
      continue;
    }

    if (!format_known) {
      format_known = true;
      is_csv = line[0] != '{';
    }

    if (is_csv) {
      if (!saw_header) {
        if (line.rfind("event,", 0) != 0) {
          fail(line_no, "expected the CSV column header");
        }
        cols = split_csv(line);
        saw_header = true;
        continue;
      }
      std::vector<std::string> f = split_csv(line);
      if (f.size() < cols.size() - 1) fail(line_no, "short CSV row");
      auto field = [&](std::string_view col_name) -> const std::string& {
        static const std::string kEmpty;
        for (std::size_t i = 0; i < cols.size(); ++i) {
          if (cols[i] == col_name) return i < f.size() ? f[i] : kEmpty;
        }
        return kEmpty;
      };
      ReadEvent e;
      const std::optional<EventKind> kind = parse_event_kind(field("event"));
      if (!kind) fail(line_no, "unknown event kind '" + field("event") + "'");
      e.kind = *kind;
      e.quantum = parse_u64_field(field("quantum"), line_no);
      e.cycle = parse_u64_field(field("cycle"), line_no);
      e.tid = parse_i64_field(field("tid"), line_no);
      e.span = parse_u64_field(field("span"), line_no);
      e.policy_before = field("policy_before");
      e.policy_after = field("policy_after");
      e.code = field("code");
      e.mask = field("mask");
      e.value = parse_u64_field(field("value"), line_no);
      e.ipc = parse_double_field(field("ipc"), line_no);
      e.fetch_share = parse_double_field(field("fetch_share"), line_no);
      e.mispredict_rate = parse_double_field(field("mispredict_rate"), line_no);
      e.l1d_miss_rate = parse_double_field(field("l1d_miss_rate"), line_no);
      e.l1i_miss_rate = parse_double_field(field("l1i_miss_rate"), line_no);
      for (std::size_t c = 0; c < kNumStallCauses; ++c) {
        const std::string col =
            "stall_" + std::string(name(static_cast<StallCause>(c)));
        e.stalls[c] = parse_u64_field(field(col), line_no);
      }
      for (std::size_t c = 0; c < kNumCpiCauses; ++c) {
        const std::string col =
            "cpi_" + std::string(name(static_cast<CpiCause>(c)));
        e.cpi[c] = parse_u64_field(field(col), line_no);
      }
      parse_stage_list(field("stages"), e, line_no);
      e.label = field("label");
      parse_contend_list(field("contend"), e, line_no);
      out.events.push_back(std::move(e));
      continue;
    }

    // JSONL object per line.
    const JsonObject obj = parse_json_object(line, line_no);
    const auto ev = obj.find("event");
    if (ev == obj.end()) fail(line_no, "missing \"event\" key");
    const std::string kind_name = as_code_string(ev->second, line_no);
    if (kind_name == "build_info") {
      out.build = build_from_object(obj);
      continue;
    }
    const std::optional<EventKind> kind = parse_event_kind(kind_name);
    if (!kind) fail(line_no, "unknown event kind '" + kind_name + "'");
    ReadEvent e;
    e.kind = *kind;
    auto num = [&](const char* key, double fallback = 0.0) {
      const auto it = obj.find(key);
      return it == obj.end() ? fallback : as_double(it->second, line_no);
    };
    auto code_str = [&](const char* key) {
      const auto it = obj.find(key);
      return it == obj.end() ? std::string()
                             : as_code_string(it->second, line_no);
    };
    e.quantum = static_cast<std::uint64_t>(num("quantum"));
    e.cycle = static_cast<std::uint64_t>(num("cycle"));
    e.tid = static_cast<std::int64_t>(num("tid", -1.0));
    e.span = static_cast<std::uint64_t>(num("span"));
    e.policy_before = code_str("policy_before");
    e.policy_after = code_str("policy_after");
    e.code = code_str("code");
    e.mask = code_str("mask");
    e.value = static_cast<std::uint64_t>(num("value"));
    e.ipc = num("ipc");
    e.fetch_share = num("fetch_share");
    e.mispredict_rate = num("mispredict_rate");
    e.l1d_miss_rate = num("l1d_miss_rate");
    e.l1i_miss_rate = num("l1i_miss_rate");
    if (const auto st = obj.find("stalls"); st != obj.end()) {
      if (!std::holds_alternative<JsonObject>(st->second.v)) {
        fail(line_no, "\"stalls\" must be an object");
      }
      const JsonObject& stalls = std::get<JsonObject>(st->second.v);
      for (std::size_t c = 0; c < kNumStallCauses; ++c) {
        const auto it = stalls.find(std::string(name(static_cast<StallCause>(c))));
        if (it != stalls.end()) {
          e.stalls[c] =
              static_cast<std::uint64_t>(as_double(it->second, line_no));
        }
      }
    }
    if (const auto sg = obj.find("stages"); sg != obj.end()) {
      if (!std::holds_alternative<JsonArray>(sg->second.v)) {
        fail(line_no, "\"stages\" must be an array");
      }
      const JsonArray& stages = std::get<JsonArray>(sg->second.v);
      if (stages.size() > e.stages.size()) {
        fail(line_no, "too many stage deltas");
      }
      for (std::size_t i = 0; i < stages.size(); ++i) {
        e.stages[i] =
            static_cast<std::uint64_t>(as_double(stages[i], line_no));
      }
    }
    if (const auto cp = obj.find("cpi"); cp != obj.end()) {
      if (!std::holds_alternative<JsonObject>(cp->second.v)) {
        fail(line_no, "\"cpi\" must be an object");
      }
      const JsonObject& cpi = std::get<JsonObject>(cp->second.v);
      for (std::size_t c = 0; c < kNumCpiCauses; ++c) {
        const auto it = cpi.find(std::string(name(static_cast<CpiCause>(c))));
        if (it != cpi.end()) {
          e.cpi[c] =
              static_cast<std::uint64_t>(as_double(it->second, line_no));
        }
      }
    }
    if (const auto cn = obj.find("contend"); cn != obj.end()) {
      if (!std::holds_alternative<JsonArray>(cn->second.v)) {
        fail(line_no, "\"contend\" must be an array");
      }
      const JsonArray& contend = std::get<JsonArray>(cn->second.v);
      if (contend.size() > e.contend.size()) {
        fail(line_no, "too many contention slots");
      }
      for (std::size_t i = 0; i < contend.size(); ++i) {
        e.contend[i] =
            static_cast<std::uint64_t>(as_double(contend[i], line_no));
      }
    }
    e.label = code_str("label");
    out.events.push_back(std::move(e));
  }
  return out;
}

}  // namespace smt::obs
