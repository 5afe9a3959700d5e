#include "util/args.h"

#include <gtest/gtest.h>

namespace paragraph::util {
namespace {

ArgParser make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, SpaceSeparatedValues) {
  const auto a = make({"--name", "value", "--count", "7"});
  EXPECT_EQ(a.get("name"), "value");
  EXPECT_EQ(a.get_int("count", 0), 7);
}

TEST(ArgParser, EqualsSyntax) {
  const auto a = make({"--scale=0.5", "--out=dir/x"});
  EXPECT_DOUBLE_EQ(a.get_double("scale", 0.0), 0.5);
  EXPECT_EQ(a.get("out"), "dir/x");
}

TEST(ArgParser, BooleanFlags) {
  const auto a = make({"--verbose", "--x", "1"});
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_EQ(a.get("verbose"), "");
  EXPECT_FALSE(a.has("quiet"));
}

TEST(ArgParser, FlagFollowedByFlag) {
  const auto a = make({"--a", "--b", "val"});
  EXPECT_TRUE(a.has("a"));
  EXPECT_EQ(a.get("a"), "");
  EXPECT_EQ(a.get("b"), "val");
}

TEST(ArgParser, Positional) {
  const auto a = make({"cmd", "--opt", "v", "file.sp"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "cmd");
  EXPECT_EQ(a.positional()[1], "file.sp");
}

TEST(ArgParser, Fallbacks) {
  const auto a = make({});
  EXPECT_EQ(a.get("missing", "dflt"), "dflt");
  EXPECT_EQ(a.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(a.get_double("missing", 1.5), 1.5);
}

TEST(ArgParser, BadNumbersThrow) {
  const auto a = make({"--n", "abc", "--f", "1.2.3"});
  EXPECT_THROW(a.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(a.get_double("f", 0.0), std::invalid_argument);
}

TEST(ArgParser, BareDoubleDashThrows) {
  EXPECT_THROW(make({"--"}), std::invalid_argument);
}

TEST(ArgParser, NamesListsEveryOptionOnce) {
  const auto a = make({"pack", "--scale=0.5", "--out", "d", "--json", "--out", "e"});
  EXPECT_EQ(a.names(), (std::vector<std::string>{"json", "out", "scale"}));
  EXPECT_TRUE(make({"file.sp"}).names().empty());
}

TEST(ArgParser, NegativeNumberAsValue) {
  // A negative number does not start with "--", so it binds as a value.
  const auto a = make({"--offset", "-3"});
  EXPECT_EQ(a.get_int("offset", 0), -3);
}

}  // namespace
}  // namespace paragraph::util
