#include "obs/trace_read.hpp"

#include <algorithm>
#include <charconv>
#include <functional>
#include <istream>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

namespace smt::obs {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw TraceReadError("trace line " + std::to_string(line_no) + ": " + what);
}

// --- minimal JSON parser ---------------------------------------------------
// Only what write_jsonl emits: one object per line whose values are null,
// number, string, or one more object / array of scalars. Nesting
// past kMaxDepth is rejected before the parser recurses, so no input can
// exhaust the stack. Numbers keep their spelling so integer fields parse
// exactly (a double holds only 53 bits).
constexpr int kMaxDepth = 2;

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue, std::less<>>;
using JsonArray = std::vector<JsonValue>;
struct JsonNumber {
  std::string text;
};
struct JsonValue {
  std::variant<std::nullptr_t, JsonNumber, std::string, JsonObject, JsonArray>
      v = nullptr;
};

struct JsonParser {
  std::string_view s;
  std::size_t line_no;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < s.size() &&
           (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\r')) {
      ++pos;
    }
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

  /// `depth` = containers already open around this value.
  JsonValue parse_value(int depth) {
    const char c = peek();
    JsonValue out;
    if ((c == '{' || c == '[') && depth >= kMaxDepth) {
      fail(line_no, "JSON nested deeper than the trace schema's " +
                        std::to_string(kMaxDepth) + " levels");
    }
    if (c == '{') {
      ++pos;
      JsonObject obj;
      if (!consume('}')) {
        do {
          std::string key = parse_string();
          expect(':');
          obj.insert_or_assign(std::move(key), parse_value(depth + 1));
        } while (consume(','));
        expect('}');
      }
      out.v = std::move(obj);
    } else if (c == '[') {
      ++pos;
      JsonArray arr;
      if (!consume(']')) {
        do {
          arr.push_back(parse_value(depth + 1));
        } while (consume(','));
        expect(']');
      }
      out.v = std::move(arr);
    } else if (c == '"') {
      out.v = parse_string();
    } else if (s.compare(pos, 4, "null") == 0) {
      pos += 4;
    } else {
      const std::size_t start = pos;
      while (pos < s.size() &&
             ((s[pos] >= '0' && s[pos] <= '9') || s[pos] == '-' ||
              s[pos] == '+' || s[pos] == '.' || s[pos] == 'e' ||
              s[pos] == 'E')) {
        ++pos;
      }
      if (pos == start) fail(line_no, "bad JSON value");
      out.v = JsonNumber{std::string(s.substr(start, pos - start))};
    }
    return out;
  }
};

JsonObject parse_json_object(std::string_view line, std::size_t line_no) {
  JsonParser p{line, line_no};
  JsonValue v = p.parse_value(0);
  if (!std::holds_alternative<JsonObject>(v.v)) {
    fail(line_no, "expected a JSON object");
  }
  p.skip_ws();
  if (p.pos != line.size()) fail(line_no, "trailing text after the object");
  return std::get<JsonObject>(std::move(v.v));
}

// --- typed field access ----------------------------------------------------

/// One value of an event line, named for error messages.
struct Field {
  const JsonValue& v;
  std::string_view key;
  std::size_t line_no;

  [[noreturn]] void bad(const std::string& want) const {
    fail(line_no, "\"" + std::string(key) + "\" must be " + want);
  }

  /// A number of type T. Integer types accept only an integer in T's
  /// range: null, negative-for-unsigned, fractional, exponent and
  /// out-of-range spellings are errors. For double, null (the writer's
  /// spelling of NaN) reads as NaN.
  template <typename T>
  [[nodiscard]] T number() const {
    if constexpr (std::is_floating_point_v<T>) {
      if (std::holds_alternative<std::nullptr_t>(v.v)) {
        return std::numeric_limits<T>::quiet_NaN();
      }
    }
    T out{};
    if (const auto* n = std::get_if<JsonNumber>(&v.v)) {
      const char* end = n->text.data() + n->text.size();
      const auto [p, ec] = std::from_chars(n->text.data(), end, out);
      if (ec == std::errc{} && p == end) return out;
    }
    if constexpr (std::is_floating_point_v<T>) {
      bad("a number or null");
    } else {
      bad("an integer in [" +
          std::to_string(+std::numeric_limits<T>::min()) + ", " +
          std::to_string(+std::numeric_limits<T>::max()) + "]");
    }
  }

  [[nodiscard]] const std::string& string() const {
    if (const auto* s = std::get_if<std::string>(&v.v)) return *s;
    bad("a string");
  }

  /// An object of counts keyed by the names of a cause table; keys the
  /// table does not know are ignored.
  template <std::size_t N>
  void named(std::array<std::uint64_t, N>& out,
             const std::array<std::string_view, N>& names) const {
    const auto* obj = std::get_if<JsonObject>(&v.v);
    if (obj == nullptr) bad("an object");
    for (std::size_t i = 0; i < N; ++i) {
      const auto it = obj->find(names[i]);
      if (it != obj->end()) {
        const Field count{it->second, names[i], line_no};
        out[i] = count.number<std::uint64_t>();
      }
    }
  }

  /// An array of at most N integers.
  template <typename T, std::size_t N>
  void list(std::array<T, N>& out) const {
    const auto* arr = std::get_if<JsonArray>(&v.v);
    if (arr == nullptr) bad("an array");
    if (arr->size() > N) bad("an array of at most " + std::to_string(N));
    for (std::size_t i = 0; i < arr->size(); ++i) {
      out[i] = Field{(*arr)[i], key, line_no}.number<T>();
    }
  }
};

void read_value(TraceKey k, const Field& f, TraceEvent& e) {
  switch (k) {
    case TraceKey::kEvent: break;  // decoded by the caller
    case TraceKey::kQuantum: e.quantum = f.number<std::uint64_t>(); break;
    case TraceKey::kCycle: e.cycle = f.number<std::uint64_t>(); break;
    case TraceKey::kTid: e.tid = f.number<std::int32_t>(); break;
    case TraceKey::kSpan: e.span = f.number<std::uint64_t>(); break;
    case TraceKey::kPolicyBefore:
      e.policy_before = f.number<std::uint8_t>();
      break;
    case TraceKey::kPolicyAfter:
      e.policy_after = f.number<std::uint8_t>();
      break;
    case TraceKey::kCode: e.code = f.number<std::uint8_t>(); break;
    case TraceKey::kMask: e.mask = f.number<std::uint8_t>(); break;
    case TraceKey::kValue: e.value = f.number<std::uint64_t>(); break;
    case TraceKey::kIpc: e.ipc = f.number<double>(); break;
    case TraceKey::kFetchShare: e.fetch_share = f.number<double>(); break;
    case TraceKey::kMispredictRate:
      e.mispredict_rate = f.number<double>();
      break;
    case TraceKey::kL1dMissRate: e.l1d_miss_rate = f.number<double>(); break;
    case TraceKey::kL1iMissRate: e.l1i_miss_rate = f.number<double>(); break;
    case TraceKey::kStalls: f.named(e.stalls, kStallCauseNames); break;
    case TraceKey::kStages: f.list(e.stage_delta); break;
    case TraceKey::kCpi: f.named(e.cpi, kCpiCauseNames); break;
    case TraceKey::kContend: f.list(e.contend); break;
  }
}

TraceEvent parse_event(const JsonObject& obj, EventKind kind,
                       std::size_t line_no) {
  TraceEvent e;
  e.kind = kind;
  for (std::size_t k = 0; k < kTraceKeys.size(); ++k) {
    if (!carries(kTraceKeys[k], kind)) continue;
    const auto it = obj.find(kTraceKeys[k].key);
    if (it == obj.end()) continue;
    read_value(static_cast<TraceKey>(k),
               Field{it->second, kTraceKeys[k].key, line_no}, e);
  }
  return e;
}

RunInfo parse_build_info(const JsonObject& obj, std::size_t line_no) {
  std::array<std::string, kBuildInfoKeys.size()> values;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto it = obj.find(kBuildInfoKeys[i]);
    if (it != obj.end()) {
      values[i] = Field{it->second, kBuildInfoKeys[i], line_no}.string();
    }
  }
  std::optional<RunInfo> info = run_info_from_values(values);
  if (!info) fail(line_no, "malformed number in build_info");
  return *std::move(info);
}

}  // namespace

ReadTrace read_trace(std::istream& is) {
  ReadTrace out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line.find("\"traceEvents\"") != std::string::npos) {
      fail(line_no,
           "this is a Chrome export (smttrace chrome); read the JSONL "
           "trace that smtsim --trace writes");
    }
    const JsonObject obj = parse_json_object(line, line_no);
    const auto ev = obj.find(key(TraceKey::kEvent));
    if (ev == obj.end()) fail(line_no, "missing \"event\" key");
    const std::string& kind_name =
        Field{ev->second, key(TraceKey::kEvent), line_no}.string();
    if (kind_name == kBuildInfoEvent) {
      out.build = parse_build_info(obj, line_no);
      continue;
    }
    if (kind_name == kRetiredPolicySwitchEvent) continue;
    const auto kind = std::find(kEventKindNames.begin(),
                                kEventKindNames.end(), kind_name);
    if (kind == kEventKindNames.end()) {
      fail(line_no, "unknown event kind '" + kind_name + "'");
    }
    out.events.push_back(parse_event(
        obj, static_cast<EventKind>(kind - kEventKindNames.begin()),
        line_no));
  }
  return out;
}

}  // namespace smt::obs
