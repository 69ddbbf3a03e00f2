#include "src/support/options.h"

#include <gtest/gtest.h>

namespace dynbcast {
namespace {

Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options(static_cast<int>(argv.size()), argv.data());
}

TEST(OptionsTest, KeyEqualsValue) {
  const Options o = parse({"--n=32"});
  EXPECT_EQ(o.getInt("n", 0), 32);
}

TEST(OptionsTest, KeySpaceValue) {
  const Options o = parse({"--seed", "99"});
  EXPECT_EQ(o.getUInt("seed", 0), 99u);
}

TEST(OptionsTest, BareFlag) {
  const Options o = parse({"--verbose"});
  EXPECT_TRUE(o.has("verbose"));
  EXPECT_TRUE(o.getBool("verbose", false));
}

TEST(OptionsTest, MissingUsesFallback) {
  const Options o = parse({});
  EXPECT_EQ(o.getInt("n", 7), 7);
  EXPECT_EQ(o.getString("mode", "fast"), "fast");
  EXPECT_DOUBLE_EQ(o.getDouble("p", 0.5), 0.5);
  EXPECT_FALSE(o.has("n"));
}

TEST(OptionsTest, BoolSpellings) {
  EXPECT_TRUE(parse({"--x=true"}).getBool("x", false));
  EXPECT_TRUE(parse({"--x=1"}).getBool("x", false));
  EXPECT_FALSE(parse({"--x=false"}).getBool("x", true));
  EXPECT_FALSE(parse({"--x=0"}).getBool("x", true));
  EXPECT_THROW(static_cast<void>(parse({"--x=maybe"}).getBool("x", true)),
               std::invalid_argument);
}

TEST(OptionsTest, PositionalCollected) {
  const Options o = parse({"file1", "--n=3", "file2"});
  ASSERT_EQ(o.positional().size(), 2u);
  EXPECT_EQ(o.positional()[0], "file1");
  EXPECT_EQ(o.positional()[1], "file2");
}

TEST(OptionsTest, ProgramNameKept) {
  const Options o = parse({});
  EXPECT_EQ(o.programName(), "prog");
}

TEST(ParseSizeListTest, CommaList) {
  const auto v = parseSizeList("8,16,32");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 8u);
  EXPECT_EQ(v[2], 32u);
}

TEST(ParseSizeListTest, GeometricRange) {
  const auto v = parseSizeList("8:64:2");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 8u);
  EXPECT_EQ(v[3], 64u);
}

TEST(ParseSizeListTest, RangeDefaultStep) {
  const auto v = parseSizeList("4:16");
  ASSERT_EQ(v.size(), 3u);  // 4, 8, 16
}

TEST(ParseSizeListTest, SingleValue) {
  const auto v = parseSizeList("42");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 42u);
}

TEST(OptionsTest, RejectUnreadPassesWhenEveryFlagWasRead) {
  const Options o = parse({"--seeds=3", "--summary", "pos"});
  (void)o.getUInt("seeds", 1);
  (void)o.has("summary");
  (void)o.getString("never-given", "");
  EXPECT_NO_THROW(o.rejectUnread());
}

TEST(OptionsTest, RejectUnreadSuggestsTheNearestReadKey) {
  const Options o = parse({"--sedes=3"});
  (void)o.getUInt("seeds", 1);
  (void)o.getUInt("sizes", 1);
  try {
    o.rejectUnread();
    FAIL() << "an unread --sedes must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'--sedes'"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("did you mean '--seeds'"),
              std::string::npos)
        << e.what();
  }
}

TEST(OptionsTest, RejectUnreadWithoutNearbyKeyHasNoSuggestion) {
  const Options o = parse({"--completely-different"});
  (void)o.getUInt("n", 1);
  try {
    o.rejectUnread();
    FAIL() << "an unread flag must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"), std::string::npos);
  }
}

TEST(ParseSizeListTest, EmptyGivesEmpty) {
  EXPECT_TRUE(parseSizeList("").empty());
}

TEST(ParseSizeListTest, BadStepThrows) {
  EXPECT_THROW(parseSizeList("4:16:1"), std::invalid_argument);
}

}  // namespace
}  // namespace dynbcast
