// Unit tests: command-line parser (common/cli.hpp).
#include <gtest/gtest.h>

#include <sstream>

#include "common/cli.hpp"

namespace smt {
namespace {

constexpr unsigned kPlain = 1U;
constexpr unsigned kAdaptive = 2U;

const CliTable kTable = {
    "usage: prog [options]\n\n",
    {"plain runs", "adaptive runs"},
    {{"mix", "NAME", kAllModes, "workload mix"},
     {"threads", "N", kAllModes, "contexts"},
     {"adts", "", kAdaptive, "adaptive"},
     {"threshold", "M", kAdaptive, "IPC threshold"},
     {"csv", "", kAllModes, "csv output"},
     {"trace", "PATH", kAllModes, "trace file", {}, {"csv"}},
     {"pipeview", "N@C", kAllModes,
      "sample the lifecycle of the N instructions fetched from cycle C on "
      "into the trace, one row per instruction",
      {"trace"}}},
    "exit codes: none\n"};

CliArgs parse(std::vector<const char*> argv) {
  return CliArgs(static_cast<int>(argv.size()), argv.data(), kTable);
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
}

TEST(Cli, DefaultsWhenAbsent) {
  const CliArgs a = parse({"prog"});
  EXPECT_EQ(a.get_or("mix", "bal1"), "bal1");
  EXPECT_EQ(a.get_u64("threads", 8), 8u);
  EXPECT_FALSE(a.has("csv"));
}

TEST(Cli, NumericValidation) {
  const CliArgs a = parse({"prog", "--threads", "abc"});
  EXPECT_THROW((void)a.get_u64("threads", 0), UsageError);
  // strtoull wraps "-1" to 2^64-1 and strtod accepts nan/inf: a signed
  // unsigned value, an overflow or a non-finite number does not parse.
  for (const char* bad : {"-1", "+1", " 1", "18446744073709551616", "1e3"}) {
    const CliArgs b = parse({"prog", "--threads", bad});
    EXPECT_THROW((void)b.get_u64("threads", 0), UsageError) << bad;
  }
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "1e999", "2x"}) {
    EXPECT_FALSE(parse_double(bad).has_value()) << bad;
  }
  EXPECT_EQ(parse({"prog", "--threads", "18446744073709551615"})
                .get_u64("threads", 0),
            18446744073709551615ull);
  EXPECT_EQ(parse_double("-0.5"), -0.5);
}

TEST(Cli, ExplicitEmptyNumericValueThrows) {
  // `--threads ''` is a scripting mistake, not an absent option; it must
  // not silently fall back to the default.
  const CliArgs a = parse({"prog", "--threads", ""});
  EXPECT_THROW((void)a.get_u64("threads", 0), UsageError);
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_double("").has_value());
}

TEST(Cli, FlagDoesNotConsumeFollowingPositional) {
  const CliArgs a = parse({"prog", "--csv", "tail"});
  EXPECT_TRUE(a.has("csv"));
  ASSERT_EQ(a.positional().size(), 1u);
  EXPECT_EQ(a.positional()[0], "tail");
}

TEST(Cli, BooleanForms) {
  // A flag is on by being given: "--adts=false" would otherwise turn
  // ADTS on, so a flag given any value is a usage error.
  for (const char* arg : {"--adts=false", "--csv=on", "--csv=", "--adts=1"}) {
    EXPECT_THROW(parse({"prog", arg}), UsageError) << arg;
  }
}

TEST(Cli, DoubleParsing) {
  EXPECT_EQ(parse_double("2.5"), 2.5);
  EXPECT_EQ(parse_double("1e-3"), 1e-3);
}

TEST(Cli, RepeatedKeyThrows) {
  EXPECT_THROW(parse({"prog", "--mix", "bal1", "--mix", "mem8"}), UsageError);
  EXPECT_THROW(parse({"prog", "--mix=bal1", "--mix", "bal1"}), UsageError);
  EXPECT_THROW(parse({"prog", "--csv", "--csv"}), UsageError);
}

TEST(Cli, OptionOutsideTheActiveModeThrows) {
  const CliArgs a = parse({"prog", "--adts", "--threshold", "2", "--mix",
                           "bal1"});
  EXPECT_NO_THROW(a.check_mode(kAdaptive));
  try {
    a.check_mode(kPlain);
    FAIL() << "--adts applies only to adaptive runs";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(), "--adts does not apply to plain runs");
  }
  EXPECT_NO_THROW(parse({"prog", "--mix", "bal1"}).check_mode(kPlain));
}

TEST(Cli, NeedsAndExcludesAreChecked) {
  EXPECT_THROW(parse({"prog", "--pipeview", "8@0"}).check_mode(kPlain),
               UsageError);
  EXPECT_NO_THROW(parse({"prog", "--pipeview", "8@0", "--trace", "t"})
                      .check_mode(kPlain));
  EXPECT_THROW(parse({"prog", "--trace", "t", "--csv"}).check_mode(kPlain),
               UsageError);
}

TEST(Cli, ANegatedNeedIsMetByTheOptionsAbsence) {
  CliTable table = kTable;
  table.options.push_back(
      {"prof", "", kAllModes, "profile", {"trace", "!csv"}});
  const auto check = [&table](std::vector<const char*> argv) {
    CliArgs(static_cast<int>(argv.size()), argv.data(), table)
        .check_mode(kPlain);
  };
  EXPECT_NO_THROW(check({"prog", "--prof"}));
  EXPECT_NO_THROW(check({"prog", "--prof", "--trace", "t"}));
  try {
    check({"prog", "--prof", "--csv"});
    FAIL() << "--prof --csv has neither need";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(), "--prof needs --trace or no --csv");
  }
  std::ostringstream out;
  write_help(out, table);
  EXPECT_NE(out.str().find("(needs --trace or no --csv)"), std::string::npos)
      << out.str();
}

TEST(Cli, HelpGroupsRowsByModes) {
  std::ostringstream out;
  write_help(out, kTable);
  EXPECT_EQ(out.str(),
            "usage: prog [options]\n\n"
            "options:\n"
            "  --mix NAME      workload mix\n"
            "  --threads N     contexts\n"
            "\noptions for adaptive runs:\n"
            "  --adts          adaptive\n"
            "  --threshold M   IPC threshold\n"
            "\noptions:\n"
            "  --csv           csv output\n"
            "  --trace PATH    trace file (not with --csv)\n"
            "  --pipeview N@C  sample the lifecycle of the N instructions "
            "fetched from cycle\n"
            "                  C on into the trace, one row per instruction "
            "(needs --trace)\n"
            "exit codes: none\n");
}

TEST(SplitList, Basics) {
  EXPECT_EQ(split_list("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_list("solo"), (std::vector<std::string>{"solo"}));
  EXPECT_TRUE(split_list("").empty());
  EXPECT_EQ(split_list("a,,b,"), (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace smt
