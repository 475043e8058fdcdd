// The built-in rule catalog (DESIGN.md §16).
//
// Every rule here is the lexer-grounded replacement (or strengthening)
// of an invariant the repo previously enforced by grep — or could not
// enforce at all. Scope conventions, shared by all rules:
//
//   library   = src/** minus src/tools/   (the determinism fence)
//   tools     = src/tools/**              (CLI drivers; may print)
//   bench     = bench/**                  (may read steady_clock only)
//
// Rule ids are stable API: the `[rule-id]` tag of every finding. Add
// new rules by subclassing Rule, registering the instance in
// builtin_rules(), documenting the id in DESIGN.md §16 and adding a
// firing negative fixture to tests/test_lint.cpp.
#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/rule.hpp"

namespace smt::lint {

bool finding_less(const Finding& a, const Finding& b) noexcept {
  if (a.path != b.path) return a.path < b.path;
  if (a.line != b.line) return a.line < b.line;
  if (a.col != b.col) return a.col < b.col;
  if (a.rule_id != b.rule_id) return a.rule_id < b.rule_id;
  return a.message < b.message;
}

const SourceFile* Corpus::source(const std::string& path) const {
  for (const SourceFile& f : sources) {
    if (f.path() == path) return &f;
  }
  return nullptr;
}

void RuleRegistry::add(std::unique_ptr<Rule> rule) {
  rules_.push_back(std::move(rule));
  std::sort(rules_.begin(), rules_.end(),
            [](const auto& a, const auto& b) { return a->id() < b->id(); });
}

bool is_tools_path(const std::string& path) {
  return path.rfind("src/tools/", 0) == 0;
}

bool is_library_path(const std::string& path) {
  return path.rfind("src/", 0) == 0 && !is_tools_path(path);
}

bool is_bench_path(const std::string& path) {
  return path.rfind("bench/", 0) == 0;
}

bool is_header_path(const std::string& path) {
  return path.size() > 4 && path.compare(path.size() - 4, 4, ".hpp") == 0;
}

std::string include_target_of(const std::string& path) {
  if (path.rfind("src/", 0) != 0) return {};
  return path.substr(4);
}

namespace {

/// True when the next non-space character at or after `pos` is `want`.
[[nodiscard]] bool next_nonspace_is(const std::string& s, std::size_t pos,
                                    char want) {
  while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t')) ++pos;
  return pos < s.size() && s[pos] == want;
}

/// True when `word` at `pos` is qualified as std:: immediately before.
[[nodiscard]] bool std_qualified(const std::string& s, std::size_t pos) {
  return pos >= 5 && s.compare(pos - 5, 5, "std::", 5) == 0;
}

/// Emit one finding per word-bounded occurrence of `word` in the file's
/// blanked code.
void flag_word(const SourceFile& f, const std::string& word,
               const char* rule_id, const std::string& message,
               std::vector<Finding>& out, bool require_std = false,
               bool require_call = false) {
  for (int line = 1; line <= f.line_count(); ++line) {
    const std::string& code = f.code(line);
    for (std::size_t pos = find_word(code, word); pos != std::string::npos;
         pos = find_word(code, word, pos + 1)) {
      if (require_std && !std_qualified(code, pos)) continue;
      if (require_call && !next_nonspace_is(code, pos + word.size(), '(')) {
        continue;
      }
      out.push_back({rule_id, f.path(), line, static_cast<int>(pos) + 1,
                     message});
    }
  }
}

// --- ambient-clock ---------------------------------------------------------

class AmbientClockRule : public Rule {
 public:
  std::string_view id() const noexcept override { return "ambient-clock"; }
  std::string_view description() const noexcept override {
    return "ambient nondeterminism (rand, random_device, wall/steady "
           "clocks, time()) outside the src/prof/host_clock allowlist; "
           "all randomness flows through common/rng.hpp, seeded from the "
           "run configuration";
  }

  void check(const SourceFile& f, std::vector<Finding>& out) const override {
    const std::string& p = f.path();
    const bool bench = is_bench_path(p);
    if (!bench && !is_library_path(p)) return;
    // The profiler's fenced clock (DESIGN.md §15) is the single
    // library-side exemption; keeping the allowlist to one module is the
    // point of the rule.
    if (p == "src/prof/host_clock.cpp" || p == "src/prof/host_clock.hpp") {
      return;
    }
    const std::string why = " (deterministic replay: use common/rng.hpp, "
                            "cfg-seeded, or prof::host_ticks)";
    for (const char* w : {"srand", "random_device", "system_clock",
                          "high_resolution_clock"}) {
      flag_word(f, w, "ambient-clock", std::string(w) + why, out);
    }
    if (!bench) {
      // Benches may time themselves with steady_clock — wall-clock
      // throughput is what a benchmark measures — but timing may never
      // feed back into simulated results.
      flag_word(f, "steady_clock", "ambient-clock",
                "steady_clock" + why, out);
    }
    flag_word(f, "rand", "ambient-clock", "rand()" + why, out,
              /*require_std=*/false, /*require_call=*/true);
    flag_word(f, "time", "ambient-clock", "std::time()" + why, out,
              /*require_std=*/true, /*require_call=*/true);
  }
};

// --- unordered-container ---------------------------------------------------

class UnorderedContainerRule : public Rule {
 public:
  std::string_view id() const noexcept override {
    return "unordered-container";
  }
  std::string_view description() const noexcept override {
    return "unordered container in library code: iteration order is "
           "implementation-defined and silently varies results across "
           "standard libraries; use std::map/std::set/std::vector/"
           "FixedQueue";
  }

  void check(const SourceFile& f, std::vector<Finding>& out) const override {
    if (!is_library_path(f.path())) return;
    for (const char* w : {"unordered_map", "unordered_set",
                          "unordered_multimap", "unordered_multiset"}) {
      for (const Include& inc : f.includes()) {
        if (inc.target == w) {
          out.push_back({"unordered-container", f.path(), inc.line, 1,
                         std::string("#include <") + w +
                             "> (iteration order is not deterministic)"});
        }
      }
      flag_word(f, w, "unordered-container",
                std::string(w) + " (iteration order is not deterministic)",
                out);
    }
  }
};

// --- library-iostream ------------------------------------------------------

class LibraryIostreamRule : public Rule {
 public:
  std::string_view id() const noexcept override { return "library-iostream"; }
  std::string_view description() const noexcept override {
    return "stream I/O in library code: only the CLI drivers in "
           "src/tools/ and bench/ may print; library code writes through "
           "explicit std::ostream& writers";
  }

  void check(const SourceFile& f, std::vector<Finding>& out) const override {
    if (!is_library_path(f.path())) return;
    for (const Include& inc : f.includes()) {
      if (inc.angled && inc.target == "iostream") {
        out.push_back({"library-iostream", f.path(), inc.line, 1,
                       "#include <iostream> in library code (only "
                       "src/tools/ may print)"});
      }
    }
    for (const char* w : {"cout", "cerr", "cin", "clog"}) {
      flag_word(f, w, "library-iostream",
                std::string("std::") + w +
                    " in library code (only src/tools/ may print)",
                out, /*require_std=*/true);
    }
  }
};

// --- pragma-once -----------------------------------------------------------

class PragmaOnceRule : public Rule {
 public:
  std::string_view id() const noexcept override { return "pragma-once"; }
  std::string_view description() const noexcept override {
    return "every header carries #pragma once";
  }

  void check(const SourceFile& f, std::vector<Finding>& out) const override {
    if (!is_header_path(f.path())) return;
    if (!f.has_pragma_once()) {
      out.push_back({"pragma-once", f.path(), 1, 1,
                     "header without #pragma once"});
    }
  }
};

// --- thread-primitive ------------------------------------------------------

class ThreadPrimitiveRule : public Rule {
 public:
  std::string_view id() const noexcept override { return "thread-primitive"; }
  std::string_view description() const noexcept override {
    return "thread primitive outside src/par/: the deterministic thread "
           "pool is the single place library code may touch concurrency, "
           "so the determinism argument stays one file long";
  }

  void check(const SourceFile& f, std::vector<Finding>& out) const override {
    const std::string& p = f.path();
    if (!is_library_path(p) || p.rfind("src/par/", 0) == 0) return;
    static const char* const kHeaders[] = {
        "thread", "mutex", "condition_variable", "atomic",
        "future", "shared_mutex", "stop_token", "barrier",
        "latch",  "semaphore"};
    for (const Include& inc : f.includes()) {
      for (const char* h : kHeaders) {
        if (inc.angled && inc.target == h) {
          out.push_back({"thread-primitive", p, inc.line, 1,
                         std::string("#include <") + h +
                             "> outside src/par/ (use par::ThreadPool)"});
        }
      }
    }
    static const char* const kTokens[] = {
        "thread",        "jthread",        "mutex",
        "timed_mutex",   "recursive_mutex", "shared_mutex",
        "condition_variable", "condition_variable_any",
        "atomic",        "atomic_flag",    "future",
        "promise",       "barrier",        "latch",
        "counting_semaphore", "binary_semaphore"};
    for (const char* w : kTokens) {
      flag_word(f, w, "thread-primitive",
                std::string("std::") + w +
                    " outside src/par/ (use par::ThreadPool)",
                out, /*require_std=*/true);
    }
  }
};

// --- using-namespace-header ------------------------------------------------

class UsingNamespaceHeaderRule : public Rule {
 public:
  std::string_view id() const noexcept override {
    return "using-namespace-header";
  }
  std::string_view description() const noexcept override {
    return "`using namespace` in a header leaks the namespace into every "
           "includer";
  }

  void check(const SourceFile& f, std::vector<Finding>& out) const override {
    if (!is_header_path(f.path())) return;
    for (const UsingNamespace& u : f.using_namespaces()) {
      out.push_back({"using-namespace-header", f.path(), u.line, u.col,
                     "`using namespace` in a header leaks into every "
                     "includer"});
    }
  }
};

// --- self-include-first ----------------------------------------------------

class SelfIncludeFirstRule : public Rule {
 public:
  std::string_view id() const noexcept override {
    return "self-include-first";
  }
  std::string_view description() const noexcept override {
    return "a .cpp with a paired header includes it first, before any "
           "other header, proving the header is self-contained";
  }

  void finish(const Corpus& corpus, std::vector<Finding>& out) const override {
    for (const SourceFile& f : corpus.sources) {
      const std::string& p = f.path();
      if (p.rfind("src/", 0) != 0 || is_header_path(p)) continue;
      const std::string header_path = p.substr(0, p.size() - 4) + ".hpp";
      if (corpus.source(header_path) == nullptr) continue;
      const std::string target = include_target_of(header_path);
      if (f.includes().empty()) {
        out.push_back({"self-include-first", p, 1, 1,
                       "missing #include \"" + target + "\" (own header)"});
        continue;
      }
      const Include& first = f.includes().front();
      if (first.angled || first.target != target) {
        out.push_back({"self-include-first", p, first.line, 1,
                       "first include must be the file's own header \"" +
                           target + "\" (found \"" + first.target + "\")"});
      }
    }
  }
};

// --- direct-include --------------------------------------------------------

class DirectIncludeRule : public Rule {
 public:
  std::string_view id() const noexcept override { return "direct-include"; }
  std::string_view description() const noexcept override {
    return "a project type used by qualified name must be directly "
           "included, not reached transitively: removing an unrelated "
           "include must never break an unrelated file";
  }

  void finish(const Corpus& corpus, std::vector<Finding>& out) const override {
    // Symbol index: namespace-scope type definitions in src/ headers,
    // keyed "ns_tail::TypeName". Ambiguous keys (two headers defining
    // the same qualified name) are dropped.
    std::map<std::string, std::string> index;  // key -> include target
    std::set<std::string> ambiguous;
    for (const SourceFile& f : corpus.sources) {
      if (!is_header_path(f.path()) || f.path().rfind("src/", 0) != 0) {
        continue;
      }
      const std::string target = include_target_of(f.path());
      for (const TypeDecl& d : f.type_decls()) {
        if (d.ns_tail.empty()) continue;
        const std::string key = d.ns_tail + "::" + d.name;
        const auto it = index.find(key);
        if (it != index.end() && it->second != target) {
          ambiguous.insert(key);
        } else {
          index.emplace(key, target);
        }
      }
    }
    for (const std::string& key : ambiguous) index.erase(key);

    for (const SourceFile& f : corpus.sources) {
      if (f.path().rfind("src/", 0) != 0 && !is_bench_path(f.path())) {
        continue;
      }
      const std::string own = include_target_of(f.path());
      std::set<std::string> reported;
      for (int line = 1; line <= f.line_count(); ++line) {
        const std::string& code = f.code(line);
        for (std::size_t pos = code.find("::"); pos != std::string::npos;
             pos = code.find("::", pos + 1)) {
          // Extract the adjacent `left::Right` identifier pair.
          std::size_t lb = pos;
          while (lb > 0 && is_ident_char(code[lb - 1])) --lb;
          std::size_t re = pos + 2;
          while (re < code.size() && is_ident_char(code[re])) ++re;
          if (lb == pos || re == pos + 2) continue;
          const std::string key =
              code.substr(lb, pos - lb) + "::" + code.substr(pos + 2,
                                                             re - pos - 2);
          const auto it = index.find(key);
          if (it == index.end()) continue;
          const std::string& target = it->second;
          if (target == own || f.includes_project(target)) continue;
          if (!reported.insert(target).second) continue;
          out.push_back({"direct-include", f.path(), line,
                         static_cast<int>(lb) + 1,
                         key + " is used here but \"" + target +
                             "\" is not included directly (transitive "
                             "includes are not a contract)"});
        }
      }
    }
  }
};

// --- exit-code-literal -----------------------------------------------------

class ExitCodeLiteralRule : public Rule {
 public:
  std::string_view id() const noexcept override {
    return "exit-code-literal";
  }
  std::string_view description() const noexcept override {
    return "CLI drivers return the named constants of "
           "common/exit_codes.hpp (smt::kExit*), never integer literals: "
           "the scripts and the CI workflow match on these numbers";
  }

  void check(const SourceFile& f, std::vector<Finding>& out) const override {
    if (!is_tools_path(f.path())) return;
    const std::string msg =
        "exit-code literal in a CLI driver: use the named constants of "
        "common/exit_codes.hpp (smt::kExit*)";
    for (int line = 1; line <= f.line_count(); ++line) {
      const std::string& code = f.code(line);
      // return <int-literal> ;
      for (std::size_t pos = find_word(code, "return");
           pos != std::string::npos;
           pos = find_word(code, "return", pos + 1)) {
        std::size_t i = pos + 6;
        while (i < code.size() && code[i] == ' ') ++i;
        std::size_t digits = i;
        if (digits < code.size() && (code[digits] == '-')) ++digits;
        std::size_t end = digits;
        while (end < code.size() &&
               std::isdigit(static_cast<unsigned char>(code[end])) != 0) {
          ++end;
        }
        if (end == digits || end == i) continue;
        std::size_t after = end;
        while (after < code.size() && code[after] == ' ') ++after;
        if (after < code.size() && code[after] == ';') {
          out.push_back({"exit-code-literal", f.path(), line,
                         static_cast<int>(pos) + 1, msg});
        }
      }
      // exit(N) / _exit(N) / quick_exit(N)
      for (const char* w : {"exit", "_exit", "quick_exit"}) {
        for (std::size_t pos = find_word(code, w); pos != std::string::npos;
             pos = find_word(code, w, pos + 1)) {
          std::size_t i = pos + std::string(w).size();
          if (i >= code.size() || code[i] != '(') continue;
          ++i;
          std::size_t end = i;
          while (end < code.size() &&
                 std::isdigit(static_cast<unsigned char>(code[end])) != 0) {
            ++end;
          }
          if (end > i && end < code.size() && code[end] == ')') {
            out.push_back({"exit-code-literal", f.path(), line,
                           static_cast<int>(pos) + 1, msg});
          }
        }
      }
    }
  }
};

// --- hot-path-alloc --------------------------------------------------------

class HotPathAllocRule : public Rule {
 public:
  std::string_view id() const noexcept override { return "hot-path-alloc"; }
  std::string_view description() const noexcept override {
    return "no std::function or nested std::vector<std::vector<...>> "
           "anywhere in src/pipeline/ or src/sim/, and no explicit heap "
           "allocation (new, make_unique, make_shared, malloc) or "
           "element-shifting container call (erase, mid-vector insert) "
           "inside their per-cycle step paths (functions named step*, "
           "*_step, do_*, tick, cycle, and the quiet-leap path: run, "
           "leap, quiet_span, account_cpi, after_cycles)";
  }

  void check(const SourceFile& f, std::vector<Finding>& out) const override {
    const std::string& p = f.path();
    if (p.rfind("src/pipeline/", 0) != 0 && p.rfind("src/sim/", 0) != 0) {
      return;
    }
    flag_word(f, "function", "hot-path-alloc",
              "std::function in the simulation core: type-erased calls "
              "allocate and defeat inlining on the per-cycle path",
              out, /*require_std=*/true);
    static const char* const kAlloc[] = {"new",    "make_unique",
                                         "make_shared", "malloc",
                                         "calloc", "realloc"};
    // O(n) element-shifting calls: every erase()/insert() on a contiguous
    // container shifts the tail, and each one the AoS core carried turned
    // into a measurable per-cycle cost. The SoA core replaces them with
    // bitmask compaction, and this keeps them from creeping back in.
    static const char* const kShift[] = {"erase", "insert"};
    for (int line = 1; line <= f.line_count(); ++line) {
      const std::string& code = f.code(line);
      // Nested vectors are a per-element pointer chase plus one heap
      // allocation per inner vector; the hot structures are flat arrays
      // indexed ring- or lane-wise, so the nested spelling is banned
      // file-wide (members declared anywhere are used by the step paths).
      for (std::size_t pos = code.find("vector<"); pos != std::string::npos;
           pos = code.find("vector<", pos + 1)) {
        std::size_t i = pos + 7;
        while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
        if (code.compare(i, 5, "std::", 5) == 0) i += 5;
        if (code.compare(i, 7, "vector<", 7) == 0) {
          out.push_back({"hot-path-alloc", p, line,
                         static_cast<int>(pos) + 1,
                         "nested std::vector<std::vector<...>> in the "
                         "simulation core: one heap block per inner vector "
                         "and a pointer chase per element; use a flat "
                         "array with ring/lane indexing"});
        }
      }
      const bool hot = [&] {
        for (const std::string& fn : f.enclosing_functions(line)) {
          if (is_step_path(fn)) return true;
        }
        return false;
      }();
      if (!hot) continue;
      for (const char* w : kAlloc) {
        for (std::size_t pos = find_word(code, w); pos != std::string::npos;
             pos = find_word(code, w, pos + 1)) {
          out.push_back({"hot-path-alloc", p, line,
                         static_cast<int>(pos) + 1,
                         std::string(w) +
                             " inside a per-cycle step path: allocation "
                             "is forbidden on the simulation hot path "
                             "(preallocate in the constructor)"});
        }
      }
      for (const char* w : kShift) {
        for (std::size_t pos = find_word(code, w); pos != std::string::npos;
             pos = find_word(code, w, pos + 1)) {
          if (!is_member_call(code, pos, std::string(w).size())) continue;
          out.push_back({"hot-path-alloc", p, line,
                         static_cast<int>(pos) + 1,
                         std::string(".") + w +
                             "() inside a per-cycle step path shifts the "
                             "container tail every call: compact with a "
                             "swap-and-pop or a bitmask pass instead"});
        }
      }
    }
  }

 private:
  /// `pos` names a member call: preceded by `.` or `->` and followed by
  /// `(`. Filters bare words (an `insert` local, set::insert free use in
  /// comments is already blanked).
  [[nodiscard]] static bool is_member_call(const std::string& code,
                                           std::size_t pos,
                                           std::size_t len) {
    const bool dot = pos >= 1 && code[pos - 1] == '.';
    const bool arrow =
        pos >= 2 && code[pos - 2] == '-' && code[pos - 1] == '>';
    if (!dot && !arrow) return false;
    return next_nonspace_is(code, pos + len, '(');
  }

  [[nodiscard]] static bool is_step_path(const std::string& fn) {
    static const std::set<std::string> kExact = {
        "step", "tick", "cycle",
        // The quiet-leap path (DESIGN.md §19) runs as often as step().
        "run", "leap", "quiet_span", "account_cpi", "after_cycles"};
    if (kExact.count(fn) > 0) return true;
    if (fn.rfind("step_", 0) == 0 || fn.rfind("do_", 0) == 0) return true;
    const std::string suffix = "_step";
    return fn.size() > suffix.size() &&
           fn.compare(fn.size() - suffix.size(), suffix.size(), suffix) == 0;
  }
};

}  // namespace

RuleRegistry builtin_rules() {
  RuleRegistry reg;
  reg.add(std::make_unique<AmbientClockRule>());
  reg.add(std::make_unique<UnorderedContainerRule>());
  reg.add(std::make_unique<LibraryIostreamRule>());
  reg.add(std::make_unique<PragmaOnceRule>());
  reg.add(std::make_unique<ThreadPrimitiveRule>());
  reg.add(std::make_unique<UsingNamespaceHeaderRule>());
  reg.add(std::make_unique<SelfIncludeFirstRule>());
  reg.add(std::make_unique<DirectIncludeRule>());
  reg.add(std::make_unique<ExitCodeLiteralRule>());
  reg.add(std::make_unique<HotPathAllocRule>());
  return reg;
}

}  // namespace smt::lint
