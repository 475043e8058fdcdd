// Unit tests: command-line parser (common/cli.hpp).
#include <gtest/gtest.h>

#include "common/cli.hpp"

namespace smt {
namespace {

CliArgs parse(std::vector<const char*> argv,
              std::vector<std::string> known = {"mix", "threads", "adts",
                                                "threshold", "csv"},
              std::vector<std::string> flags = {"adts", "csv"}) {
  return CliArgs(static_cast<int>(argv.size()), argv.data(), std::move(known),
                 std::move(flags));
}

TEST(Cli, ParsesEqualsForm) {
  const CliArgs a = parse({"prog", "--mix=int8", "--threads=4"});
  EXPECT_EQ(a.get_or("mix", ""), "int8");
  EXPECT_EQ(a.get_u64("threads", 0), 4u);
}

TEST(Cli, ParsesSpaceForm) {
  const CliArgs a = parse({"prog", "--mix", "fp8"});
  EXPECT_EQ(a.get_or("mix", ""), "fp8");
}

TEST(Cli, BareFlag) {
  const CliArgs a = parse({"prog", "--adts", "--csv"});
  EXPECT_TRUE(a.has("adts"));
  EXPECT_TRUE(a.has("csv"));
  EXPECT_FALSE(a.has("mix"));
}

TEST(Cli, FlagFollowedByOptionIsNotConsumed) {
  const CliArgs a = parse({"prog", "--adts", "--mix", "bal1"});
  EXPECT_TRUE(a.has("adts"));
  EXPECT_EQ(a.get_or("mix", ""), "bal1");
}

TEST(Cli, UnknownKeyThrows) {
  EXPECT_THROW(parse({"prog", "--bogus"}), std::invalid_argument);
}

TEST(Cli, PositionalArguments) {
  const CliArgs a = parse({"prog", "first", "--csv", "second"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "first");
  EXPECT_EQ(a.positional()[1], "second");
  EXPECT_EQ(a.program_name(), "prog");
}

TEST(Cli, DefaultsWhenAbsent) {
  const CliArgs a = parse({"prog"});
  EXPECT_EQ(a.get_or("mix", "bal1"), "bal1");
  EXPECT_EQ(a.get_u64("threads", 8), 8u);
  EXPECT_DOUBLE_EQ(a.get_double("threshold", 2.0), 2.0);
  EXPECT_FALSE(a.get_bool("csv", false));
}

TEST(Cli, NumericValidation) {
  const CliArgs a = parse({"prog", "--threads", "abc", "--threshold", "x"});
  EXPECT_THROW((void)a.get_u64("threads", 0), std::invalid_argument);
  EXPECT_THROW((void)a.get_double("threshold", 0), std::invalid_argument);
  // strtoull wraps "-1" to 2^64-1 and strtod accepts nan/inf: a signed
  // unsigned value, an overflow or a non-finite number is a usage error.
  for (const char* bad : {"-1", "+1", " 1", "18446744073709551616", "1e3"}) {
    const CliArgs b = parse({"prog", "--threads", bad});
    EXPECT_THROW((void)b.get_u64("threads", 0), UsageError) << bad;
  }
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "1e999", "2x"}) {
    const CliArgs b = parse({"prog", "--threshold", bad});
    EXPECT_THROW((void)b.get_double("threshold", 0), UsageError) << bad;
  }
  EXPECT_EQ(parse({"prog", "--threads", "18446744073709551615"})
                .get_u64("threads", 0),
            18446744073709551615ull);
  EXPECT_DOUBLE_EQ(parse({"prog", "--threshold", "-0.5"})
                       .get_double("threshold", 0),
                   -0.5);
}

TEST(Cli, ExplicitEmptyNumericValueThrows) {
  // `--threads ''` is a scripting mistake, not an absent option; it must
  // not silently fall back to the default.
  const CliArgs a = parse({"prog", "--threads", "", "--threshold", ""});
  EXPECT_THROW((void)a.get_u64("threads", 0), std::invalid_argument);
  EXPECT_THROW((void)a.get_double("threshold", 0), std::invalid_argument);
}

TEST(Cli, FlagDoesNotConsumeFollowingPositional) {
  const CliArgs a = parse({"prog", "--csv", "tail"});
  EXPECT_TRUE(a.has("csv"));
  ASSERT_EQ(a.positional().size(), 1u);
  EXPECT_EQ(a.positional()[0], "tail");
}

TEST(Cli, BooleanForms) {
  const CliArgs a = parse({"prog", "--adts=false", "--csv=on"});
  EXPECT_FALSE(a.get_bool("adts", true));
  EXPECT_TRUE(a.get_bool("csv", false));
  const CliArgs b = parse({"prog", "--adts=garbage"});
  EXPECT_THROW((void)b.get_bool("adts", false), std::invalid_argument);
}

TEST(Cli, DoubleParsing) {
  const CliArgs a = parse({"prog", "--threshold", "2.5"});
  EXPECT_DOUBLE_EQ(a.get_double("threshold", 0.0), 2.5);
}

TEST(SplitList, Basics) {
  EXPECT_EQ(split_list("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_list("solo"), (std::vector<std::string>{"solo"}));
  EXPECT_TRUE(split_list("").empty());
  EXPECT_EQ(split_list("a,,b,"), (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace smt
