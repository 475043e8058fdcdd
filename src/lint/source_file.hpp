// Lexed view of one C++ source file for the smtlint analyzer.
//
// The grep rules this replaces (the pre-PR scripts/check_lint.sh) could
// not tell a comment from code: `// never call srand()` tripped the
// ambient-nondeterminism check. SourceFile fixes that class at the root:
// a single character-level pass blanks comments, string/char literals
// and preprocessor lines out of a column-preserving `code` image, so
// every rule that pattern-matches over `code` sees only real code and
// still reports exact line:column positions from the original text.
//
// The same pass collects the side tables rules need:
//   - includes (with angled/quoted form and line number)
//   - a brace-tracking scope pass: enclosing function name per line,
//     `using namespace` occurrences, and namespace-scope type
//     declarations (the symbol index behind the direct-include rule)
//
// Determinism is load-bearing: lexing is a pure function of (path,
// content), all containers are ordered, and no clocks or ambient state
// are read — the lint gate (scripts/check_lint.sh) byte-compares two
// runs.
#pragma once

#include <string>
#include <vector>

namespace smt::lint {

/// True for characters that can appear in an identifier.
[[nodiscard]] bool is_ident_char(char c) noexcept;

/// Word-bounded search for `word` in `s` starting at `from` (neither
/// neighbour is an identifier character); npos when absent.
[[nodiscard]] std::size_t find_word(const std::string& s,
                                    const std::string& word,
                                    std::size_t from = 0);

/// One #include directive.
struct Include {
  int line = 0;        ///< 1-based line of the directive
  std::string target;  ///< header path as written ("obs/trace_sink.hpp")
  bool angled = false; ///< <system> vs "project" form
};

/// A type definition at namespace scope in this file: the unit of the
/// direct-include rule's symbol index.
struct TypeDecl {
  int line = 0;
  std::string ns_tail;  ///< innermost namespace component ("obs")
  std::string name;     ///< declared identifier ("TraceEvent")
};

/// A `using namespace` occurrence in code (never comments/strings).
struct UsingNamespace {
  int line = 0;
  int col = 0;  ///< 1-based column of the `using` keyword
};

class SourceFile {
 public:
  /// Lex `content` (repo-relative `path` is carried for reporting and
  /// scope classification; it is never opened).
  SourceFile(std::string path, const std::string& content);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Number of lines (a trailing newline does not add an empty line).
  [[nodiscard]] int line_count() const noexcept {
    return static_cast<int>(code_.size());
  }

  /// Blanked code image of 1-based `line`: comments, literal contents
  /// and preprocessor text replaced by spaces, columns preserved.
  [[nodiscard]] const std::string& code(int line) const;

  [[nodiscard]] bool has_pragma_once() const noexcept {
    return pragma_once_;
  }

  [[nodiscard]] const std::vector<Include>& includes() const noexcept {
    return includes_;
  }
  [[nodiscard]] bool includes_project(const std::string& target) const;

  [[nodiscard]] const std::vector<TypeDecl>& type_decls() const noexcept {
    return type_decls_;
  }

  [[nodiscard]] const std::vector<UsingNamespace>& using_namespaces()
      const noexcept {
    return using_namespaces_;
  }

  /// Name of the innermost enclosing function at 1-based `line`, or ""
  /// at file/namespace/class scope. Lambdas report as "lambda".
  [[nodiscard]] const std::string& enclosing_function(int line) const;

  /// Every enclosing function name at `line`, outermost first (a lambda
  /// inside Pipeline::step() reports {"step", "lambda"}).
  [[nodiscard]] std::vector<std::string> enclosing_functions(int line) const;

 private:
  void blank_pass(const std::string& content);
  void scope_pass();

  std::string path_;
  std::vector<std::string> code_;
  std::vector<bool> preprocessor_;
  std::vector<std::string> func_of_line_;  ///< innermost function per line
  std::vector<std::vector<std::string>> func_stack_of_line_;
  std::vector<Include> includes_;
  std::vector<TypeDecl> type_decls_;
  std::vector<UsingNamespace> using_namespaces_;
  bool pragma_once_ = false;
};

}  // namespace smt::lint
