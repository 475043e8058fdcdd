// Unit tests: the in-repo static analyzer (src/lint/, DESIGN.md §16).
//
// Organised as the rule catalog demands: every registered rule id has a
// firing negative fixture here (a snippet that MUST produce exactly that
// finding) plus a clean positive showing the allowlisted / corrected
// form, so a rule that silently stops firing fails the suite. The lexer
// and the text report's byte-determinism are covered on the same
// synthetic-corpus path the CLI uses.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "lint/rule.hpp"
#include "lint/runner.hpp"
#include "lint/source_file.hpp"

namespace smt::lint {
namespace {

/// Run the full builtin catalog over synthetic files.
LintResult lint(std::vector<InputFile> files) {
  return run_lint(builtin_rules(), std::move(files));
}

/// Count of findings carrying `id`.
int count_of(const LintResult& r, const std::string& id) {
  int n = 0;
  for (const Finding& f : r.findings) n += (f.rule_id == id) ? 1 : 0;
  return n;
}

// --- lexer -----------------------------------------------------------------

TEST(LintLexer, BlanksLineCommentsButKeepsColumns) {
  const std::string line = "int x = 1;  // srand(7)";
  const SourceFile f("src/a/x.cpp", line + "\n");
  EXPECT_EQ(f.code(1).substr(0, 10), "int x = 1;");
  EXPECT_EQ(f.code(1).find("srand"), std::string::npos);
  EXPECT_EQ(f.code(1).size(), line.size());
}

TEST(LintLexer, BlanksBlockCommentsAcrossLines) {
  const SourceFile f("src/a/x.cpp",
                     "int a; /* srand(1)\n srand(2) */ int b;\n");
  EXPECT_EQ(f.code(1).find("srand"), std::string::npos);
  EXPECT_EQ(f.code(2).find("srand"), std::string::npos);
  EXPECT_NE(f.code(2).find("int b;"), std::string::npos);
}

TEST(LintLexer, BlanksStringContents) {
  const SourceFile f("src/a/x.cpp",
                     "const char* s = \"call srand(3) now\"; int z;\n");
  EXPECT_EQ(f.code(1).find("srand"), std::string::npos);
  EXPECT_EQ(f.code(1).find("now"), std::string::npos);
  EXPECT_NE(f.code(1).find("const char* s ="), std::string::npos);
  EXPECT_NE(f.code(1).find("int z;"), std::string::npos);
}

TEST(LintLexer, RawStringWithDelimiter) {
  const SourceFile f("src/a/x.cpp",
                     "auto s = R\"x(one \"two\" srand())x\";\nint y;\n");
  EXPECT_EQ(f.code(1).find("srand"), std::string::npos);
  EXPECT_EQ(f.code(1).find("two"), std::string::npos);
  EXPECT_NE(f.code(1).find("auto s ="), std::string::npos);
  EXPECT_NE(f.code(2).find("int y;"), std::string::npos);
}

TEST(LintLexer, CharLiteralsBlankedDigitSeparatorsAreNot) {
  const SourceFile f("src/a/x.cpp",
                     "char c = '\\'';\nlong n = 1'000'000;\n");
  EXPECT_EQ(f.code(1).find('\\'), std::string::npos);
  EXPECT_NE(f.code(2).find("1'000'000"), std::string::npos);
}

TEST(LintLexer, PreprocessorLinesAreBlankedButIncludesParsed) {
  const SourceFile f("src/a/x.hpp",
                     "#pragma once\n#include <vector>\n"
                     "#include \"common/rng.hpp\"\n");
  EXPECT_TRUE(f.has_pragma_once());
  ASSERT_EQ(f.includes().size(), 2u);
  EXPECT_TRUE(f.includes()[0].angled);
  EXPECT_EQ(f.includes()[0].target, "vector");
  EXPECT_FALSE(f.includes()[1].angled);
  EXPECT_EQ(f.includes()[1].target, "common/rng.hpp");
  EXPECT_TRUE(f.includes_project("common/rng.hpp"));
  EXPECT_EQ(f.code(2).find("vector"), std::string::npos);
}

TEST(LintLexer, EnclosingFunctionTracksNestingAndLambdas) {
  const SourceFile f("src/a/x.cpp",
                     "namespace smt::a {\n"
                     "void Pipe::step() {\n"
                     "  auto fn = [&]() {\n"
                     "    int y = 0;\n"
                     "  };\n"
                     "}\n"
                     "}  // namespace smt::a\n");
  EXPECT_EQ(f.enclosing_function(4), "lambda");
  const std::vector<std::string> stack = f.enclosing_functions(4);
  ASSERT_EQ(stack.size(), 2u);
  EXPECT_EQ(stack[0], "step");
  EXPECT_EQ(stack[1], "lambda");
  EXPECT_EQ(f.enclosing_function(7), "");
}

TEST(LintLexer, RecordsNamespaceScopeTypeDecls) {
  const SourceFile f("src/foo/types.hpp",
                     "#pragma once\n"
                     "namespace smt::foo {\n"
                     "struct Widget { int x; };\n"
                     "class Gadget {\n"
                     "  struct Inner {};\n"
                     "};\n"
                     "}  // namespace smt::foo\n");
  ASSERT_EQ(f.type_decls().size(), 2u);  // Inner is not namespace-scope
  EXPECT_EQ(f.type_decls()[0].ns_tail, "foo");
  EXPECT_EQ(f.type_decls()[0].name, "Widget");
  EXPECT_EQ(f.type_decls()[1].name, "Gadget");
}

// --- the false-positive class the grep gate could not close ----------------

TEST(LintRules, BannedTokensInCommentsAndStringsDoNotFire) {
  const LintResult r = lint({{"src/a/x.cpp",
                              "// never call srand(1) or rand() here\n"
                              "/* std::cout << unordered_map */\n"
                              "const char* kDoc =\n"
                              "    \"srand(2) steady_clock std::cerr\";\n"
                              "int f() { return kDoc[0]; }  // srand(3)\n"}});
  EXPECT_TRUE(r.findings.empty())
      << "unexpected: " << r.findings[0].message;
}

TEST(LintRules, NolintCommentsDoNotSuppress) {
  const LintResult r = lint(
      {{"src/a/x.cpp",
        "void f() { srand(7); }  // NOLINT(ambient-clock)\n"
        "void g() { srand(8); }  // NOLINT\n"
        "// NOLINTNEXTLINE(ambient-clock)\n"
        "void h() { srand(9); }\n"}});
  ASSERT_EQ(count_of(r, "ambient-clock"), 3);
  EXPECT_EQ(r.findings[0].line, 1);
  EXPECT_EQ(r.findings[1].line, 2);
  EXPECT_EQ(r.findings[2].line, 4);
}

// --- one firing negative per rule id ---------------------------------------

TEST(LintRules, AmbientClockFires) {
  const LintResult r = lint({{"src/a/x.cpp", "void f() { srand(7); }\n"}});
  ASSERT_EQ(count_of(r, "ambient-clock"), 1);
  EXPECT_EQ(r.findings[0].line, 1);
  EXPECT_EQ(r.findings[0].col, 12);
}

TEST(LintRules, AmbientClockAllowsHostClockAndBenchSteadyClock) {
  const LintResult r = lint(
      {{"src/prof/host_clock.cpp",
        "long t() { return std::chrono::steady_clock::now(); }\n"},
       {"bench/bench_x.cpp",
        "long t() { return std::chrono::steady_clock::now(); }\n"}});
  EXPECT_EQ(count_of(r, "ambient-clock"), 0);
}

TEST(LintRules, AmbientClockStillFiresOnBenchWallClock) {
  const LintResult r = lint(
      {{"bench/bench_x.cpp",
        "long t() { return std::chrono::system_clock::now(); }\n"}});
  EXPECT_EQ(count_of(r, "ambient-clock"), 1);
}

TEST(LintRules, UnorderedContainerFires) {
  const LintResult r = lint({{"src/a/x.cpp",
                              "#include <unordered_map>\n"
                              "std::unordered_map<int, int> m;\n"}});
  EXPECT_EQ(count_of(r, "unordered-container"), 2);  // include + use
}

TEST(LintRules, UnorderedContainerAllowedInTools) {
  const LintResult r = lint(
      {{"src/tools/x.cpp", "#include <unordered_map>\n"}});
  EXPECT_EQ(count_of(r, "unordered-container"), 0);
}

TEST(LintRules, LibraryIostreamFires) {
  const LintResult r = lint({{"src/a/x.cpp",
                              "#include <iostream>\n"
                              "void f() { std::cout << 1; }\n"}});
  EXPECT_EQ(count_of(r, "library-iostream"), 2);
}

TEST(LintRules, LibraryIostreamAllowedInToolsAndBench) {
  const LintResult r = lint(
      {{"src/tools/x.cpp", "#include <iostream>\n"},
       {"bench/bench_x.cpp", "void f() { std::cout << 1; }\n"}});
  EXPECT_EQ(count_of(r, "library-iostream"), 0);
}

TEST(LintRules, PragmaOnceFires) {
  const LintResult r = lint({{"src/a/x.hpp", "int x;\n"}});
  EXPECT_EQ(count_of(r, "pragma-once"), 1);
}

TEST(LintRules, PragmaOnceSatisfied) {
  const LintResult r = lint({{"src/a/x.hpp", "#pragma once\nint x;\n"}});
  EXPECT_EQ(count_of(r, "pragma-once"), 0);
}

TEST(LintRules, ThreadPrimitiveFires) {
  const LintResult r = lint({{"src/a/x.cpp",
                              "#include <mutex>\n"
                              "std::mutex m;\n"}});
  EXPECT_EQ(count_of(r, "thread-primitive"), 2);
}

TEST(LintRules, ThreadPrimitiveAllowedInPar) {
  const LintResult r = lint({{"src/par/pool.cpp",
                              "#include <mutex>\n"
                              "std::mutex m;\n"}});
  EXPECT_EQ(count_of(r, "thread-primitive"), 0);
}

TEST(LintRules, UsingNamespaceHeaderFires) {
  const LintResult r = lint(
      {{"src/a/x.hpp", "#pragma once\nusing namespace std;\n"}});
  EXPECT_EQ(count_of(r, "using-namespace-header"), 1);
}

TEST(LintRules, UsingNamespaceAllowedInCpp) {
  const LintResult r = lint(
      {{"src/tools/x.cpp", "int main() { using namespace smt; }\n"}});
  EXPECT_EQ(count_of(r, "using-namespace-header"), 0);
}

TEST(LintRules, SelfIncludeFirstFires) {
  const LintResult r = lint(
      {{"src/a/x.hpp", "#pragma once\nint f();\n"},
       {"src/a/x.cpp",
        "#include <vector>\n#include \"a/x.hpp\"\nint f() { return 1; }\n"}});
  ASSERT_EQ(count_of(r, "self-include-first"), 1);
  EXPECT_EQ(r.findings[0].path, "src/a/x.cpp");
}

TEST(LintRules, SelfIncludeFirstSatisfied) {
  const LintResult r = lint(
      {{"src/a/x.hpp", "#pragma once\nint f();\n"},
       {"src/a/x.cpp",
        "#include \"a/x.hpp\"\n#include <vector>\nint f() { return 1; }\n"}});
  EXPECT_EQ(count_of(r, "self-include-first"), 0);
}

TEST(LintRules, DirectIncludeFires) {
  const LintResult r = lint(
      {{"src/foo/types.hpp",
        "#pragma once\nnamespace smt::foo {\nstruct Widget { int x; };\n"
        "}  // namespace smt::foo\n"},
       {"src/bar/use.cpp",
        "namespace smt::bar {\nint f() { foo::Widget w{}; return w.x; }\n"
        "}  // namespace smt::bar\n"}});
  ASSERT_EQ(count_of(r, "direct-include"), 1);
  EXPECT_EQ(r.findings[0].path, "src/bar/use.cpp");
  EXPECT_NE(r.findings[0].message.find("foo/types.hpp"), std::string::npos);
}

TEST(LintRules, DirectIncludeSatisfiedAndDedupedPerTarget) {
  const LintResult r = lint(
      {{"src/foo/types.hpp",
        "#pragma once\nnamespace smt::foo {\nstruct Widget { int x; };\n"
        "}  // namespace smt::foo\n"},
       {"src/bar/use.cpp",
        "#include \"foo/types.hpp\"\n"
        "namespace smt::bar {\nint f() { foo::Widget w{}; return w.x; }\n"
        "}  // namespace smt::bar\n"}});
  EXPECT_EQ(count_of(r, "direct-include"), 0);
}

TEST(LintRules, ExitCodeLiteralFires) {
  const LintResult r = lint(
      {{"src/tools/x.cpp",
        "int main() {\n  if (bad()) exit(1);\n  return 0;\n}\n"}});
  EXPECT_EQ(count_of(r, "exit-code-literal"), 2);
}

TEST(LintRules, ExitCodeConstantsAreClean) {
  const LintResult r = lint(
      {{"src/tools/x.cpp", "int main() { return kExitOk; }\n"}});
  EXPECT_EQ(count_of(r, "exit-code-literal"), 0);
}

TEST(LintRules, HotPathAllocFiresOnStdFunctionAnywhere) {
  const LintResult r = lint(
      {{"src/pipeline/x.hpp",
        "#pragma once\n#include <functional>\n"
        "std::function<void()> hook;\n"}});
  EXPECT_EQ(count_of(r, "hot-path-alloc"), 1);
}

TEST(LintRules, HotPathAllocFiresOnNewInStepPath) {
  const LintResult r = lint(
      {{"src/sim/x.cpp",
        "namespace smt::sim {\n"
        "void Simulator::step() { int* p = new int(3); use(p); }\n"
        "}  // namespace smt::sim\n"}});
  ASSERT_EQ(count_of(r, "hot-path-alloc"), 1);
  EXPECT_EQ(r.findings[0].line, 2);
}

TEST(LintRules, HotPathAllocFiresOnNewInLeapPath) {
  const LintResult r = lint(
      {{"src/pipeline/x.cpp",
        "namespace smt::pipeline {\n"
        "void Pipeline::leap(std::uint64_t k) {\n"
        "  int* p = new int(3);\n"
        "  use(p, k);\n"
        "}\n"
        "}  // namespace smt::pipeline\n"}});
  ASSERT_EQ(count_of(r, "hot-path-alloc"), 1);
  EXPECT_EQ(r.findings[0].line, 3);
}

TEST(LintRules, HotPathAllocAllowsConstructorAllocation) {
  const LintResult r = lint(
      {{"src/pipeline/x.cpp",
        "namespace smt::pipeline {\n"
        "Pipe::Pipe() { buf_ = new int[64]; }\n"
        "void Pipe::report() { auto p = std::make_unique<int>(1); }\n"
        "}  // namespace smt::pipeline\n"}});
  EXPECT_EQ(count_of(r, "hot-path-alloc"), 0);
}

TEST(LintRules, HotPathAllocFiresOnEraseInsertInStepPath) {
  const LintResult r = lint(
      {{"src/pipeline/x.cpp",
        "namespace smt::pipeline {\n"
        "void Pipe::do_issue() { q_.erase(q_.begin()); }\n"
        "void Pipe::step() { lsq_->insert(lsq_->begin(), v); }\n"
        "}  // namespace smt::pipeline\n"}});
  ASSERT_EQ(count_of(r, "hot-path-alloc"), 2);
  EXPECT_EQ(r.findings[0].line, 2);
  EXPECT_NE(r.findings[0].message.find("erase"), std::string::npos);
  EXPECT_EQ(r.findings[1].line, 3);
}

TEST(LintRules, HotPathAllocAllowsEraseOutsideStepPathAndBareWords) {
  const LintResult r = lint(
      {{"src/sim/x.cpp",
        "namespace smt::sim {\n"
        // Cold path: erase in a setup/reporting function is fine.
        "void Simulator::reset() { jobs_.erase(jobs_.begin()); }\n"
        // Bare identifier named `insert` is not a member call.
        "void Simulator::step() { int insert = 0; use(insert); }\n"
        "}  // namespace smt::sim\n"}});
  EXPECT_EQ(count_of(r, "hot-path-alloc"), 0);
}

TEST(LintRules, HotPathAllocFiresOnNestedVectorAnywhere) {
  const LintResult r = lint(
      {{"src/pipeline/x.hpp",
        "#pragma once\n#include <vector>\n"
        "namespace smt::pipeline {\n"
        "struct Ring { std::vector<std::vector<int>> lanes; };\n"
        "}  // namespace smt::pipeline\n"}});
  ASSERT_EQ(count_of(r, "hot-path-alloc"), 1);
  EXPECT_EQ(r.findings[0].line, 4);
  EXPECT_NE(r.findings[0].message.find("flat"), std::string::npos);
}

TEST(LintRules, HotPathAllocAllowsFlatVectorMembers) {
  const LintResult r = lint(
      {{"src/pipeline/x.hpp",
        "#pragma once\n#include <vector>\n"
        "namespace smt::pipeline {\n"
        "struct Ring { std::vector<int> flat; std::vector<Ref> q; };\n"
        "}  // namespace smt::pipeline\n"}});
  EXPECT_EQ(count_of(r, "hot-path-alloc"), 0);
}

// --- determinism & reports -------------------------------------------------

TEST(LintReport, FindingsAreIndependentOfInputOrder) {
  const std::vector<InputFile> forward = {
      {"src/a/x.cpp", "void f() { srand(7); }\n"},
      {"src/b/y.cpp", "#include <unordered_map>\n"}};
  std::vector<InputFile> backward(forward.rbegin(), forward.rend());
  const LintResult r1 = lint(forward);
  const LintResult r2 = lint(backward);
  ASSERT_EQ(r1.findings.size(), r2.findings.size());
  for (std::size_t i = 0; i < r1.findings.size(); ++i) {
    EXPECT_EQ(r1.findings[i].path, r2.findings[i].path);
    EXPECT_EQ(r1.findings[i].rule_id, r2.findings[i].rule_id);
  }
}

TEST(LintReport, TextIsByteDeterministic) {
  const std::vector<InputFile> files = {
      {"src/a/x.cpp", "void f() { srand(7); }\n"}};
  std::ostringstream t1;
  std::ostringstream t2;
  write_text(t1, lint(files));
  write_text(t2, lint(files));
  EXPECT_EQ(t1.str(), t2.str());
}

TEST(LintReport, TextFormatCarriesLocationAndRuleId) {
  const LintResult r = lint({{"src/a/x.cpp", "void f() { srand(7); }\n"}});
  std::ostringstream os;
  write_text(os, r);
  EXPECT_NE(os.str().find("src/a/x.cpp:1:12: error:"), std::string::npos);
  EXPECT_NE(os.str().find("[ambient-clock]"), std::string::npos);
  EXPECT_NE(os.str().find("smtlint: 1 finding"), std::string::npos);
}

TEST(LintReport, CleanRunSummarizesOk) {
  const LintResult r = lint({{"src/a/x.cpp", "int x;\n"}});
  std::ostringstream os;
  write_text(os, r);
  EXPECT_EQ(os.str(), "smtlint: OK (1 files, 10 rules)\n");
}

// --- registry --------------------------------------------------------------

TEST(LintRegistry, CatalogIsSortedAndComplete) {
  const RuleRegistry reg = builtin_rules();
  const std::vector<std::string> expected = {
      "ambient-clock",       "direct-include",
      "exit-code-literal",   "hot-path-alloc",
      "library-iostream",    "pragma-once",
      "self-include-first",  "thread-primitive",
      "unordered-container", "using-namespace-header"};
  ASSERT_EQ(reg.rules().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(reg.rules()[i]->id(), expected[i]);
  }
}

}  // namespace
}  // namespace smt::lint
