#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace pcmd {
namespace {

Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsSyntax) {
  const Cli cli = make_cli({"--steps=100", "--density=0.256"});
  EXPECT_EQ(cli.get_int("steps", 0), 100);
  EXPECT_DOUBLE_EQ(cli.get_double("density", 0.0), 0.256);
}

TEST(Cli, SpaceSyntax) {
  const Cli cli = make_cli({"--steps", "250"});
  EXPECT_EQ(cli.get_int("steps", 0), 250);
}

TEST(Cli, BooleanFlag) {
  const Cli cli = make_cli({"--full"});
  EXPECT_TRUE(cli.get_bool("full", false));
  EXPECT_TRUE(cli.has("full"));
  EXPECT_FALSE(cli.has("absent"));
}

TEST(Cli, BooleanExplicitValues) {
  EXPECT_TRUE(make_cli({"--x=true"}).get_bool("x", false));
  EXPECT_TRUE(make_cli({"--x=1"}).get_bool("x", false));
  EXPECT_TRUE(make_cli({"--x=yes"}).get_bool("x", false));
  EXPECT_FALSE(make_cli({"--x=false"}).get_bool("x", true));
  EXPECT_FALSE(make_cli({"--x=off"}).get_bool("x", true));
}

TEST(Cli, BooleanRejectsNonBooleanTokens) {
  EXPECT_THROW(make_cli({"--x=maybe"}).get_bool("x", false),
               std::invalid_argument);
}

TEST(Cli, Fallbacks) {
  const Cli cli = make_cli({});
  EXPECT_EQ(cli.get("mode", "default"), "default");
  EXPECT_EQ(cli.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("d", 2.5), 2.5);
  EXPECT_FALSE(cli.get_bool("b", false));
}

TEST(Cli, PositionalArguments) {
  // No program takes positional arguments, so a stray token is rejected
  // by name instead of being silently ignored.
  try {
    make_cli({"input.txt", "--flag", "output.txt"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'input.txt'"), std::string::npos) << what;
  }
  EXPECT_THROW(make_cli({"--steps", "2", "junk"}), std::invalid_argument);
  // "--flag output.txt" consumes output.txt as the flag's value.
  const Cli cli = make_cli({"--flag", "output.txt"});
  EXPECT_EQ(cli.get("flag", ""), "output.txt");
}

TEST(Cli, FlagFollowedByFlagIsBoolean) {
  const Cli cli = make_cli({"--a", "--b=3"});
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_EQ(cli.get_int("b", 0), 3);
}

TEST(Cli, MalformedIntThrowsNamingFlagAndToken) {
  const Cli cli = make_cli({"--steps=10x", "--n=", "--m=seven"});
  try {
    cli.get_int("steps", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--steps"), std::string::npos) << what;
    EXPECT_NE(what.find("10x"), std::string::npos) << what;
    EXPECT_NE(what.find("integer"), std::string::npos) << what;
  }
  EXPECT_THROW(cli.get_int("m", 0), std::invalid_argument);
  // An explicitly empty value falls back (same as an absent flag).
  EXPECT_EQ(cli.get_int("n", 3), 3);
}

TEST(Cli, MalformedDoubleThrowsNamingFlagAndToken) {
  const Cli cli = make_cli({"--dt=fast", "--rho=0.5e"});
  try {
    cli.get_double("dt", 0.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--dt"), std::string::npos) << what;
    EXPECT_NE(what.find("fast"), std::string::npos) << what;
    EXPECT_NE(what.find("number"), std::string::npos) << what;
  }
  EXPECT_THROW(cli.get_double("rho", 0.0), std::invalid_argument);
}

TEST(Cli, WellFormedNumbersStillParse) {
  const Cli cli = make_cli({"--a=-7", "--b=1e-3", "--c=+12", "--d=.5"});
  EXPECT_EQ(cli.get_int("a", 0), -7);
  EXPECT_DOUBLE_EQ(cli.get_double("b", 0.0), 1e-3);
  EXPECT_EQ(cli.get_int("c", 0), 12);
  EXPECT_DOUBLE_EQ(cli.get_double("d", 0.0), 0.5);
}

TEST(Cli, UnqueriedFlagsDetected) {
  const Cli cli = make_cli({"--known=1", "--typo=2"});
  EXPECT_EQ(cli.get_int("known", 0), 1);
  const auto unknown = cli.unqueried_flags();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

}  // namespace
}  // namespace pcmd
