#include "src/support/options.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

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

TEST(OptionsTest, NumericFlagsTakeTheWholeValue) {
  EXPECT_EQ(parse({"--seeds=18446744073709551615"}).getUInt("seeds", 1),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse({"--d=-7"}).getInt("d", 0), -7);
  EXPECT_DOUBLE_EQ(parse({"--p=2.5e-1"}).getDouble("p", 0.0), 0.25);
  // A numeric prefix, a sign on an unsigned flag, spaces and overflow
  // are all errors, never a different number.
  for (const char* bad : {"--seeds=2x", "--seeds=abc", "--seeds=-1",
                          "--seeds=+1", "--seeds= 2",
                          "--seeds=18446744073709551616"}) {
    EXPECT_THROW((void)parse({bad}).getUInt("seeds", 1), std::invalid_argument)
        << bad;
  }
  EXPECT_THROW((void)parse({"--d=5x"}).getInt("d", 0), std::invalid_argument);
  EXPECT_THROW((void)parse({"--d=9223372036854775808"}).getInt("d", 0),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--p=0.5x"}).getDouble("p", 0.0),
               std::invalid_argument);
}

TEST(OptionsTest, NumericErrorsNameTheFlag) {
  try {
    (void)parse({"--jobs=-1"}).getUInt("jobs", 1);
    FAIL() << "--jobs=-1 must not parse";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("'-1'"), std::string::npos)
        << e.what();
  }
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

// The message names the offending token, so a typo is found at once.
void expectRejected(const std::string& spec, const std::string& token) {
  try {
    (void)parseSizeList(spec);
    FAIL() << "'" << spec << "' must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
        << e.what();
  }
}

TEST(ParseSizeListTest, TrailingGarbageThrows) {
  expectRejected("8x", "'8x'");
  expectRejected("4:16:2junk", "'2junk'");
  expectRejected("4:16x:2", "'16x'");
  expectRejected("4:16:2:3", "'2:3'");
  expectRejected("-8", "'-8'");
  expectRejected(" 8", "' 8'");
}

TEST(ParseSizeListTest, EmptyTokenThrows) {
  expectRejected("8,,16", "''");
  expectRejected("8,16,", "''");
  expectRejected(":16", "''");
}

TEST(ParseSizeListTest, ZeroThrows) {
  // lo = 0 would otherwise push zeros forever (0 * step stays 0).
  expectRejected("0:8:2", "'0'");
  expectRejected("0", "'0'");
  expectRejected("4,0", "'0'");
}

TEST(ParseSizeListTest, LoAboveHiThrows) {
  EXPECT_THROW(parseSizeList("16:4"), std::invalid_argument);
}

TEST(ParseSizeListTest, OverflowThrows) {
  expectRejected("99999999999999999999999", "'99999999999999999999999'");
  expectRejected("1:99999999999999999999999", "'99999999999999999999999'");
}

TEST(ParseSizeListTest, RangeNearTheTopNeverWraps) {
  // The step past hi would wrap around SIZE_MAX; the range stops first.
  const std::size_t top = std::numeric_limits<std::size_t>::max();
  const auto v = parseSizeList(std::to_string(top / 2) + ":" +
                               std::to_string(top) + ":2");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1], top / 2 * 2);
  EXPECT_EQ(parseSizeList("1:1:2"), std::vector<std::size_t>{1});
}

}  // namespace
}  // namespace dynbcast
