// The command-line tools' flag parser: each tool declares its value flags
// and switches, and anything else is a usage error (exit 2) instead of a
// silently ignored or silently "1"-valued flag.
#include "tools/tool_common.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using prodigy::tools::Flags;
using prodigy::tools::FlagSpec;

const FlagSpec kSpec{{"store", "metrics-out", "trim"}, {"all", "report"}};

Flags parse(std::vector<std::string> args) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  return Flags(static_cast<int>(argv.size()), argv.data(), kSpec);
}

TEST(ToolFlagsTest, ParsesDeclaredValuesAndSwitches) {
  const Flags flags = parse({"--store", "a.dsos", "--trim=20", "--all"});
  EXPECT_EQ(flags.get("store", std::string()), "a.dsos");
  EXPECT_EQ(flags.get("trim", 60.0), 20.0);
  EXPECT_TRUE(flags.has("all"));
  EXPECT_FALSE(flags.has("report"));
  EXPECT_FALSE(flags.has("metrics-out"));
  EXPECT_EQ(flags.get("metrics-out", std::string("none")), "none");
}

TEST(ToolFlagsTest, RejectsUnknownFlags) {
  EXPECT_THROW(parse({"--store", "a.dsos", "--stroe", "b.dsos"}), std::invalid_argument);
  EXPECT_THROW(parse({"--verbose"}), std::invalid_argument);
}

TEST(ToolFlagsTest, RejectsValueFlagsWithoutValue) {
  // Once silently turned into the string "1" (a file literally named 1).
  EXPECT_THROW(parse({"--metrics-out"}), std::invalid_argument);
  EXPECT_THROW(parse({"--metrics-out", "--all"}), std::invalid_argument);
  EXPECT_THROW(parse({"--metrics-out="}), std::invalid_argument);
}

TEST(ToolFlagsTest, RejectsSwitchValuesAndBareArguments) {
  EXPECT_THROW(parse({"--all=1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--all", "extra"}), std::invalid_argument);
}

TEST(ToolFlagsTest, UsageErrorPrintsUsageAndExitsTwo) {
  std::string tool = "tool", bogus = "--bogus";
  char* argv[] = {tool.data(), bogus.data()};
  EXPECT_EXIT(prodigy::tools::parse_flags(2, argv, kSpec, "usage: tool --store FILE\n"),
              ::testing::ExitedWithCode(2), "unknown flag --bogus\nusage: tool --store FILE");
}

}  // namespace
