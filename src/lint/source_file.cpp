#include "lint/source_file.hpp"

#include <algorithm>
#include <cctype>
#include <set>

namespace smt::lint {

bool is_ident_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::size_t find_word(const std::string& s, const std::string& word,
                      std::size_t from) {
  for (std::size_t pos = s.find(word, from); pos != std::string::npos;
       pos = s.find(word, pos + 1)) {
    const bool left_ok = pos == 0 || !is_ident_char(s[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= s.size() || !is_ident_char(s[end]);
    if (left_ok && right_ok) return pos;
  }
  return std::string::npos;
}

namespace {

[[nodiscard]] bool is_ident(char c) noexcept { return is_ident_char(c); }

[[nodiscard]] bool is_space(char c) noexcept {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/// First non-whitespace character of `s`, or '\0'.
[[nodiscard]] char first_nonspace(const std::string& s) noexcept {
  for (char c : s) {
    if (!is_space(c)) return c;
  }
  return '\0';
}

/// Identifier (with :: separators) ending just before `pos`, e.g. for
/// "void Pipeline::step(" and pos at '(' returns "Pipeline::step".
[[nodiscard]] std::string qualified_ident_before(const std::string& s,
                                                 std::size_t pos) {
  std::size_t end = pos;
  while (end > 0 && is_space(s[end - 1])) --end;
  std::size_t begin = end;
  while (begin > 0 && (is_ident(s[begin - 1]) || s[begin - 1] == ':')) {
    --begin;
  }
  while (begin < end && s[begin] == ':') ++begin;  // stray label/ternary ':'
  return s.substr(begin, end - begin);
}

[[nodiscard]] std::string last_component(const std::string& qualified) {
  const std::size_t pos = qualified.rfind("::");
  return pos == std::string::npos ? qualified : qualified.substr(pos + 2);
}

[[nodiscard]] bool is_control_keyword(const std::string& id) {
  static const std::set<std::string> kControl = {
      "if",     "for",    "while",  "switch",    "catch",
      "return", "sizeof", "alignof", "co_await", "co_return"};
  return kControl.count(id) > 0;
}

/// Parenthesis openers that never start a function definition and whose
/// argument list should be skipped when hunting for the defined name.
[[nodiscard]] bool is_specifier_keyword(const std::string& id) {
  static const std::set<std::string> kSpecifier = {
      "alignas", "decltype", "noexcept", "__attribute__", "throw"};
  return kSpecifier.count(id) > 0;
}

enum class ScopeKind { kNamespace, kType, kFunction, kBlock };

struct Scope {
  ScopeKind kind = ScopeKind::kBlock;
  std::string name;  ///< namespace/type/function identifier
};

}  // namespace

SourceFile::SourceFile(std::string path, const std::string& content)
    : path_(std::move(path)) {
  blank_pass(content);
  scope_pass();
}

const std::string& SourceFile::code(int line) const {
  return code_.at(static_cast<std::size_t>(line - 1));
}

bool SourceFile::includes_project(const std::string& target) const {
  return std::any_of(includes_.begin(), includes_.end(),
                     [&](const Include& inc) {
                       return !inc.angled && inc.target == target;
                     });
}

const std::string& SourceFile::enclosing_function(int line) const {
  return func_of_line_.at(static_cast<std::size_t>(line - 1));
}

std::vector<std::string> SourceFile::enclosing_functions(int line) const {
  return func_stack_of_line_.at(static_cast<std::size_t>(line - 1));
}

// ---------------------------------------------------------------------------
// Pass 1: character-level blanking of comments, literals and preprocessor
// text into the column-preserving `code_` image.

void SourceFile::blank_pass(const std::string& content) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else if (c != '\r') {
      cur += c;
    }
  }
  if (!cur.empty()) lines.push_back(cur);

  enum class State {
    kNormal,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kNormal;
  bool in_preprocessor = false;   ///< continued by a trailing backslash
  std::string raw_delim;          ///< raw-string )delim" terminator

  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& line = lines[li];
    const int lineno = static_cast<int>(li) + 1;
    std::string code(line.size(), ' ');

    // A fresh directive starts only from the normal state; a backslash
    // continuation extends the previous one.
    bool pp = in_preprocessor;
    if (state == State::kNormal && !pp && first_nonspace(line) == '#') {
      pp = true;
    }
    if (pp) {
      code_.push_back(std::move(code));  // all blank: macros are opaque
      preprocessor_.push_back(true);
      in_preprocessor = !line.empty() && line.back() == '\\';
      // The directive itself is parsed from the raw line.
      std::size_t pos = line.find('#');
      pos = line.find_first_not_of(" \t", pos + 1);
      if (pos == std::string::npos) continue;
      if (line.compare(pos, 6, "pragma") == 0) {
        const std::size_t once = line.find("once", pos + 6);
        if (once != std::string::npos) pragma_once_ = true;
      } else if (line.compare(pos, 7, "include") == 0) {
        const std::size_t open = line.find_first_of("<\"", pos + 7);
        if (open != std::string::npos) {
          const char close = line[open] == '<' ? '>' : '"';
          const std::size_t end = line.find(close, open + 1);
          if (end != std::string::npos) {
            includes_.push_back({lineno,
                                 line.substr(open + 1, end - open - 1),
                                 line[open] == '<'});
          }
        }
      }
      continue;
    }

    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      switch (state) {
        case State::kNormal: {
          if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
            state = State::kLineComment;
            i = line.size();  // comment may continue via backslash below
            break;
          }
          if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
            state = State::kBlockComment;
            ++i;
            break;
          }
          if (c == '"') {
            // R"delim( ... )delim" — an R (optionally prefixed u8/u/U/L)
            // immediately before the quote, not part of a longer
            // identifier.
            const bool raw_str =
                i > 0 && line[i - 1] == 'R' &&
                (i < 2 || !is_ident(line[i - 2]) || line[i - 2] == '8' ||
                 line[i - 2] == 'u' || line[i - 2] == 'U' ||
                 line[i - 2] == 'L');
            if (raw_str) {
              const std::size_t open = line.find('(', i + 1);
              const std::size_t delim_len =
                  open == std::string::npos ? 0 : open - i - 1;
              raw_delim.assign(1, ')');
              if (open != std::string::npos) {
                raw_delim.append(line, i + 1, delim_len);
              }
              raw_delim.push_back('"');
              state = State::kRawString;
              i = open == std::string::npos ? line.size() : open;
            } else {
              state = State::kString;
            }
            break;
          }
          if (c == '\'') {
            // A quote after an identifier character is a digit separator
            // (1'000'000) or literal suffix, not a char literal.
            if (i > 0 && is_ident(line[i - 1])) {
              code[i] = c;
              break;
            }
            state = State::kChar;
            break;
          }
          code[i] = c;
          break;
        }
        case State::kString: {
          if (c == '\\') {
            if (i + 1 < line.size()) ++i;
            break;
          }
          if (c == '"') state = State::kNormal;
          break;
        }
        case State::kRawString: {
          if (line.compare(i, raw_delim.size(), raw_delim) == 0) {
            i += raw_delim.size() - 1;
            state = State::kNormal;
          }
          break;
        }
        case State::kChar: {
          if (c == '\\') {
            if (i + 1 < line.size()) ++i;
            break;
          }
          if (c == '\'') state = State::kNormal;
          break;
        }
        case State::kBlockComment: {
          if (c == '*' && i + 1 < line.size() && line[i + 1] == '/') {
            state = State::kNormal;
            ++i;
          }
          break;
        }
        case State::kLineComment:
          break;  // handled by the early exit above
      }
    }

    // End of line: close or continue multi-line constructs.
    if (state == State::kLineComment) {
      if (line.empty() || line.back() != '\\') state = State::kNormal;
    } else if (state == State::kString || state == State::kChar) {
      // Unterminated — treat the newline as the end (a backslash
      // continuation inside a narrow literal is vanishingly rare).
      state = State::kNormal;
    }

    code_.push_back(std::move(code));
    preprocessor_.push_back(false);
  }
}

// ---------------------------------------------------------------------------
// Pass 2: brace-tracking scope walk over the blanked code.

void SourceFile::scope_pass() {
  std::vector<Scope> stack;
  std::string head;  ///< code since the last '{', '}' or ';'

  const auto innermost_namespace_tail = [&]() -> std::string {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->kind == ScopeKind::kNamespace) return last_component(it->name);
    }
    return {};
  };
  const auto namespaces_only = [&]() {
    return std::all_of(stack.begin(), stack.end(), [](const Scope& s) {
      return s.kind == ScopeKind::kNamespace;
    });
  };

  const auto classify = [&](int lineno) -> Scope {
    // Collapse whitespace for keyword scanning.
    std::string h;
    for (char c : head) {
      if (is_space(c)) {
        if (!h.empty() && h.back() != ' ') h += ' ';
      } else {
        h += c;
      }
    }
    // Drop template parameter lists so `template <class T> class Foo`
    // classifies on Foo, not on the parameter keyword.
    for (std::size_t tpl = find_word(h, "template");
         tpl != std::string::npos; tpl = find_word(h, "template", tpl + 1)) {
      const std::size_t open = h.find('<', tpl);
      if (open == std::string::npos) break;
      int depth = 0;
      std::size_t close = open;
      for (; close < h.size(); ++close) {
        if (h[close] == '<') ++depth;
        if (h[close] == '>' && --depth == 0) break;
      }
      if (close >= h.size()) break;
      h.erase(open, close - open + 1);
    }
    if (find_word(h, "namespace") != std::string::npos &&
        h.find('(') == std::string::npos) {
      std::size_t pos = find_word(h, "namespace") + 9;
      while (pos < h.size() && is_space(h[pos])) ++pos;
      std::size_t end = pos;
      while (end < h.size() && (is_ident(h[end]) || h[end] == ':')) ++end;
      return {ScopeKind::kNamespace, h.substr(pos, end - pos)};
    }
    // A function definition: the first '(' preceded by a non-keyword
    // identifier (or a lambda's ']').
    for (std::size_t pos = h.find('('); pos != std::string::npos;
         pos = h.find('(', pos + 1)) {
      std::size_t before = pos;
      while (before > 0 && is_space(h[before - 1])) --before;
      if (before > 0 && h[before - 1] == ']') {
        return {ScopeKind::kFunction, "lambda"};
      }
      const std::string qual = qualified_ident_before(h, pos);
      const std::string name = last_component(qual);
      if (name.empty()) continue;
      if (is_control_keyword(name)) return {ScopeKind::kBlock, {}};
      if (is_specifier_keyword(name)) continue;
      return {ScopeKind::kFunction, name};
    }
    for (const char* kw : {"class", "struct", "union", "enum"}) {
      const std::size_t pos = find_word(h, kw);
      if (pos == std::string::npos) continue;
      std::size_t at = pos + std::string(kw).size();
      // Skip `enum class` / `enum struct` and attributes.
      for (const char* skip : {"class", "struct", "final"}) {
        while (at < h.size() && is_space(h[at])) ++at;
        const std::size_t len = std::string(skip).size();
        if (h.compare(at, len, skip) == 0 &&
            (at + len >= h.size() || !is_ident(h[at + len]))) {
          at += len;
        }
      }
      while (at < h.size() && is_space(h[at])) ++at;
      std::size_t end = at;
      while (end < h.size() && is_ident(h[end])) ++end;
      const std::string name = h.substr(at, end - at);
      if (name.empty()) break;
      Scope s{ScopeKind::kType, name};
      if (namespaces_only()) {
        type_decls_.push_back({lineno, innermost_namespace_tail(), name});
      }
      return s;
    }
    return {ScopeKind::kBlock, {}};
  };

  func_of_line_.resize(code_.size());
  func_stack_of_line_.resize(code_.size());

  for (std::size_t li = 0; li < code_.size(); ++li) {
    const std::string& line = code_[li];
    const int lineno = static_cast<int>(li) + 1;
    // Functions enclosing ANY code on this line: those open at line
    // start, plus any opened while scanning it — a one-line body
    // (`void step() { ... }`) still counts as inside step.
    std::vector<std::string> funcs;
    for (const Scope& s : stack) {
      if (s.kind == ScopeKind::kFunction) funcs.push_back(s.name);
    }
    if (!preprocessor_[li]) {
      for (std::size_t pos = find_word(line, "using");
           pos != std::string::npos; pos = find_word(line, "using", pos + 1)) {
        std::size_t after = line.find_first_not_of(" \t", pos + 5);
        if (after != std::string::npos &&
            line.compare(after, 9, "namespace") == 0) {
          using_namespaces_.push_back({lineno, static_cast<int>(pos) + 1});
        }
      }
      for (char c : line) {
        if (c == '{') {
          Scope s = classify(lineno);
          if (s.kind == ScopeKind::kFunction) funcs.push_back(s.name);
          stack.push_back(std::move(s));
          head.clear();
        } else if (c == '}') {
          if (!stack.empty()) stack.pop_back();
          head.clear();
        } else if (c == ';') {
          head.clear();
        } else {
          head += c;
        }
      }
    }
    func_of_line_[li] = funcs.empty() ? std::string() : funcs.back();
    func_stack_of_line_[li] = std::move(funcs);
  }
}

}  // namespace smt::lint
