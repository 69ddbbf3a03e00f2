#include "src/bounds/bounds.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/bounds/theorem.h"

namespace dynbcast {
namespace {

TEST(BoundsTest, TrivialUpperIsNSquared) {
  EXPECT_EQ(bounds::trivialUpper(1), 1u);
  EXPECT_EQ(bounds::trivialUpper(10), 100u);
  EXPECT_EQ(bounds::trivialUpper(1000), 1000000u);
}

TEST(BoundsTest, CeilLog2Values) {
  EXPECT_EQ(bounds::ceilLog2(1), 0u);
  EXPECT_EQ(bounds::ceilLog2(2), 1u);
  EXPECT_EQ(bounds::ceilLog2(3), 2u);
  EXPECT_EQ(bounds::ceilLog2(4), 2u);
  EXPECT_EQ(bounds::ceilLog2(5), 3u);
  EXPECT_EQ(bounds::ceilLog2(1024), 10u);
  EXPECT_EQ(bounds::ceilLog2(1025), 11u);
}

TEST(BoundsTest, LinearUpperKnownValues) {
  // ⌈(1+√2)n − 1⌉: spot values.
  EXPECT_EQ(bounds::linearUpper(1), 2u);    // ⌈1.414⌉
  EXPECT_EQ(bounds::linearUpper(2), 4u);    // ⌈3.828⌉
  EXPECT_EQ(bounds::linearUpper(10), 24u);  // ⌈23.14⌉
  EXPECT_EQ(bounds::linearUpper(100), 241u);
}

TEST(BoundsTest, LinearUpperSlope) {
  EXPECT_NEAR(bounds::linearUpperSlope(), 2.41421356, 1e-8);
}

TEST(BoundsTest, LowerBoundKnownValues) {
  // ⌈(3n−1)/2⌉ − 2.
  EXPECT_EQ(bounds::lowerBound(2), 1u);   // ⌈5/2⌉−2 = 1
  EXPECT_EQ(bounds::lowerBound(3), 2u);   // ⌈8/2⌉−2 = 2
  EXPECT_EQ(bounds::lowerBound(4), 4u);   // ⌈11/2⌉−2 = 4
  EXPECT_EQ(bounds::lowerBound(5), 5u);   // ⌈14/2⌉−2 = 5
  EXPECT_EQ(bounds::lowerBound(10), 13u);
  EXPECT_EQ(bounds::lowerBound(100), 148u);
}

TEST(BoundsTest, LowerNeverExceedsUpper) {
  for (std::size_t n = 2; n <= 4096; n = n * 2 + 1) {
    EXPECT_LE(bounds::lowerBound(n), bounds::linearUpper(n)) << n;
  }
}

TEST(BoundsTest, NewBoundDominatedByOldBoundsAsymptotically) {
  // Figure 1's point: (1+√2)n < 2n log log n + O(n) < (n−1)⌈log n⌉ < n²
  // once n is large.
  for (const std::size_t n : {1024u, 4096u, 16384u}) {
    const double linear = static_cast<double>(bounds::linearUpper(n));
    EXPECT_LT(linear, bounds::nLogLogUpper(n)) << n;
    EXPECT_LT(bounds::nLogLogUpper(n),
              static_cast<double>(bounds::nLogNUpper(n)))
        << n;
    EXPECT_LT(bounds::nLogNUpper(n), bounds::trivialUpper(n)) << n;
  }
}

TEST(BoundsTest, Figure1CrossoverAtEveryPrintedSize) {
  // bench/figures/fig1.spec's reading: the new linear bound beats [9] at
  // every size it prints, and beats n log n from n = 8 on.
  for (std::size_t n = 8; n <= 4096; n *= 2) {
    const auto linear = bounds::linearUpper(n);
    EXPECT_LT(static_cast<double>(linear), bounds::nLogLogUpper(n)) << n;
    EXPECT_LT(linear, bounds::nLogNUpper(n)) << n;
  }
}

TEST(BoundsTest, RestrictedBoundsScaleWithK) {
  EXPECT_EQ(bounds::kLeafUpper(100, 2), 200u);
  EXPECT_EQ(bounds::kInnerUpper(100, 8), 800u);
  EXPECT_LT(bounds::kLeafUpper(100, 2), bounds::trivialUpper(100));
}

TEST(BoundsTest, NonsplitLogUpper) {
  EXPECT_EQ(bounds::nonsplitLogUpper(2), 1u);
  EXPECT_EQ(bounds::nonsplitLogUpper(1024), 10u);
}

TEST(TheoremCheckTest, FieldsAndDirections) {
  const TheoremCheck c = checkTheorem31(10, 15);
  EXPECT_EQ(c.n, 10u);
  EXPECT_EQ(c.lower, 13u);
  EXPECT_EQ(c.upper, 24u);
  EXPECT_TRUE(c.withinUpper);
  EXPECT_TRUE(c.witnessesLower);
  EXPECT_NEAR(c.ratio, 1.5, 1e-9);
}

TEST(TheoremCheckTest, DetectsUpperViolation) {
  const TheoremCheck c = checkTheorem31(10, 25);
  EXPECT_FALSE(c.withinUpper);
  EXPECT_NE(c.toString().find("UPPER-BOUND-VIOLATION"), std::string::npos);
}

TEST(TheoremCheckTest, WeakWitnessFlagged) {
  const TheoremCheck c = checkTheorem31(10, 9);
  EXPECT_TRUE(c.withinUpper);
  EXPECT_FALSE(c.witnessesLower);
}

class BoundMonotoneTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BoundMonotoneTest, AllBoundsMonotoneInN) {
  const std::size_t n = GetParam();
  EXPECT_LE(bounds::linearUpper(n), bounds::linearUpper(n + 1));
  EXPECT_LE(bounds::lowerBound(n), bounds::lowerBound(n + 1));
  EXPECT_LE(bounds::trivialUpper(n), bounds::trivialUpper(n + 1));
  EXPECT_LE(bounds::nLogNUpper(n), bounds::nLogNUpper(n + 1));
  EXPECT_LE(bounds::nonsplitLogUpper(n), bounds::nonsplitLogUpper(n + 1));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BoundMonotoneTest,
                         ::testing::Values(2, 3, 7, 15, 16, 17, 100, 1023));

}  // namespace
}  // namespace dynbcast
