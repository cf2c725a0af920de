/**
 * @file
 * Tests for the command-line argument parser.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cli.h"

namespace hilos {
namespace {

ArgParser
makeParser()
{
    ArgParser p("tool");
    p.addOption("model", "OPT-66B", "model name")
        .addOption("batch", "16", "batch size")
        .addOption("alpha", "0.5", "ratio")
        .addFlag("verbose", "chatty output");
    return p;
}

bool
parse(ArgParser &p, std::initializer_list<const char *> args)
{
    std::vector<const char *> argv = {"tool"};
    argv.insert(argv.end(), args.begin(), args.end());
    return p.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, DefaultsApplyWhenAbsent)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {}));
    EXPECT_EQ(p.get("model"), "OPT-66B");
    EXPECT_EQ(p.getInt("batch"), 16);
    EXPECT_FALSE(p.getFlag("verbose"));
}

TEST(Cli, SpaceSeparatedValues)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--model", "OPT-175B", "--batch", "4"}));
    EXPECT_EQ(p.get("model"), "OPT-175B");
    EXPECT_EQ(p.getInt("batch"), 4);
}

TEST(Cli, EqualsSeparatedValues)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--model=Qwen2.5-32B", "--alpha=0.25"}));
    EXPECT_EQ(p.get("model"), "Qwen2.5-32B");
    EXPECT_DOUBLE_EQ(p.getDouble("alpha"), 0.25);
}

TEST(Cli, FlagsAreBoolean)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--verbose"}));
    EXPECT_TRUE(p.getFlag("verbose"));
}

TEST(Cli, UnknownOptionFails)
{
    ArgParser p = makeParser();
    EXPECT_FALSE(parse(p, {"--bogus", "1"}));
    EXPECT_FALSE(p.ok());
    EXPECT_NE(p.error().find("bogus"), std::string::npos);
}

TEST(Cli, MissingValueFails)
{
    ArgParser p = makeParser();
    EXPECT_FALSE(parse(p, {"--model"}));
    EXPECT_NE(p.error().find("needs a value"), std::string::npos);
}

TEST(Cli, PositionalArgumentFails)
{
    ArgParser p = makeParser();
    EXPECT_FALSE(parse(p, {"stray"}));
}

TEST(Cli, FlagWithValueFails)
{
    ArgParser p = makeParser();
    EXPECT_FALSE(parse(p, {"--verbose=yes"}));
}

TEST(Cli, BadIntegerSetsError)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--batch", "banana"}));
    EXPECT_EQ(p.getInt("batch"), 0);
    EXPECT_FALSE(p.ok());
}

ArgParser
makeTypedParser()
{
    ArgParser p("tool");
    p.addCount("seed", "7", "seed", 0)
        .addCount("devices", "8", "devices", 1, 16)
        .addCount("replay", "", "repro seed", 0)
        .addReal("alpha", "0.5", "ratio", 0.0, 1.0)
        .addReal("rate", "1", "rate", 1e-9)
        .addRealList("rates", "0.1,0.2", "rates", 1e-9)
        .addChoice("gpu", "a100", "gpu", {"a100", "h100"});
    return p;
}

/** Parse one `--name value` pair; the error text, empty when accepted. */
std::string
rejection(const char *name, const char *value)
{
    ArgParser p = makeTypedParser();
    const std::string flag = std::string("--") + name;
    std::vector<const char *> argv = {"tool", flag.c_str(), value};
    if (p.parse(static_cast<int>(argv.size()), argv.data()))
        return "";
    EXPECT_EQ(p.error().rfind(flag + ":", 0), 0u) << p.error();
    return p.error();
}

TEST(Cli, CountsTakeEveryValueUpToTwoToThe64Exactly)
{
    ArgParser p = makeTypedParser();
    ASSERT_TRUE(parse(p, {"--seed", "18446744073709551615", "--replay",
                          "17630991328043140273"}));
    EXPECT_EQ(p.getCount("seed"), 18446744073709551615ull);
    EXPECT_EQ(p.getCount("replay"), 17630991328043140273ull);
    ASSERT_TRUE(parse(p, {"--devices", "1"}));
    EXPECT_EQ(p.getCount("devices"), 1u);
    ASSERT_TRUE(parse(p, {"--devices", "16"}));
    EXPECT_EQ(p.getCount("devices"), 16u);
}

TEST(Cli, CountsOutsideTheirRangeAreErrorsNotClamps)
{
    // Past 2^64-1: strtoll once clamped this to 2^63-1 and ran it.
    EXPECT_NE(rejection("seed", "18446744073709551616"), "");
    // strtoull would wrap "-1" to 2^64-1; a count takes digits only.
    EXPECT_NE(rejection("seed", "-1"), "");
    EXPECT_NE(rejection("seed", "-0"), "");
    EXPECT_NE(rejection("devices", "0"), "");
    EXPECT_NE(rejection("devices", "17"), "");
    for (const char *bad : {"", "abc", "1.5", "+3", " 7", "7 ", "0x10", "1e3"})
        EXPECT_NE(rejection("devices", bad), "") << "'" << bad << "'";
    EXPECT_NE(rejection("devices", "0").find("integer in 1..16"),
              std::string::npos);
}

TEST(Cli, GetIntReportsOverflowInsteadOfClamping)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--batch", "9223372036854775808"}));
    p.getInt("batch");
    EXPECT_FALSE(p.ok());
    ASSERT_TRUE(parse(p, {"--batch", "-9223372036854775808"}));
    EXPECT_EQ(p.getInt("batch"), INT64_MIN);
    EXPECT_TRUE(p.ok());
}

TEST(Cli, RealsAreFiniteAndInRange)
{
    EXPECT_EQ(rejection("alpha", "0"), "");
    EXPECT_EQ(rejection("alpha", "1"), "");
    EXPECT_NE(rejection("alpha", "1.0000001"), "");
    EXPECT_NE(rejection("alpha", "-0.5"), "");
    EXPECT_EQ(rejection("rate", "1e-9"), "");
    EXPECT_NE(rejection("rate", "9e-10"), "");
    for (const char *bad : {"inf", "-inf", "nan", "1e400", "abc", ""})
        EXPECT_NE(rejection("rate", bad), "") << "'" << bad << "'";
    ArgParser p = makeTypedParser();
    ASSERT_TRUE(parse(p, {"--alpha", "0.25"}));
    EXPECT_DOUBLE_EQ(p.getReal("alpha"), 0.25);
}

TEST(Cli, RealListsCheckEveryElement)
{
    ArgParser p = makeTypedParser();
    ASSERT_TRUE(parse(p, {"--rates", "0.002,,0.25"}));
    EXPECT_EQ(p.getReals("rates"), (std::vector<double>{0.002, 0.25}));
    EXPECT_NE(rejection("rates", "0.1,-1"), "");
    EXPECT_NE(rejection("rates", "0.1,inf"), "");
    EXPECT_NE(rejection("rates", "abc"), "");
    EXPECT_NE(rejection("rates", ","), "");
}

TEST(Cli, ChoicesNameTheirTable)
{
    EXPECT_EQ(rejection("gpu", "h100"), "");
    EXPECT_NE(rejection("gpu", "tpu").find("one of a100, h100"),
              std::string::npos);
}

TEST(Cli, UsagePrintsEachRangeFromTheDeclaration)
{
    const std::string usage = makeTypedParser().usage();
    EXPECT_NE(usage.find("--devices <integer in 1..16; default: 8>"),
              std::string::npos)
        << usage;
    EXPECT_NE(usage.find("--rate <finite number >= 1e-09; default: 1>"),
              std::string::npos)
        << usage;
    EXPECT_NE(usage.find("--alpha <finite number in [0, 1]; default: 0.5>"),
              std::string::npos)
        << usage;
    EXPECT_NE(usage.find("--gpu <one of a100, h100; default: a100>"),
              std::string::npos)
        << usage;
}

TEST(Cli, ADefaultOutsideItsDeclarationDies)
{
    ArgParser p("tool");
    EXPECT_DEATH(p.addCount("devices", "0", "devices", 1, 16),
                 "default of --devices");
}

TEST(Cli, ParseOrExitSettlesHelpAndBadInput)
{
    const auto run = [](std::initializer_list<const char *> args) {
        ArgParser p = makeTypedParser();
        std::vector<const char *> argv = {"tool"};
        argv.insert(argv.end(), args.begin(), args.end());
        p.parseOrExit(static_cast<int>(argv.size()), argv.data());
        std::exit(7);  // a valid command line returns to the caller
    };
    EXPECT_EXIT(run({"--help"}), ::testing::ExitedWithCode(0), "");
    EXPECT_EXIT(run({"--devices", "0"}), ::testing::ExitedWithCode(2),
                "error: --devices: expected integer in 1..16, got '0'");
    EXPECT_EXIT(run({"--devices", "4"}), ::testing::ExitedWithCode(7), "");
}

TEST(Cli, HelpIsDetected)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--help"}));
    EXPECT_TRUE(p.helpRequested());
    EXPECT_NE(p.usage().find("--model"), std::string::npos);
    EXPECT_NE(p.usage().find("model name"), std::string::npos);
}

TEST(Cli, UndeclaredAccessDies)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {}));
    EXPECT_DEATH(p.get("nope"), "undeclared");
}

}  // namespace
}  // namespace hilos
