// The SIMD dispatch contract: every kernel table kernelsFor() can hand
// out — scalar, AVX2, AVX-512, whichever this machine supports —
// computes bit-identical results on identical inputs, at span lengths
// that straddle every vector-width boundary (sub-lane tails, exact
// multiples, one word over). Plus the resolution machinery itself:
// DYNBCAST_FORCE_SCALAR pins resolveSimdLevel() to scalar, dispatch()
// reports a supported tier, and the bit-level wrappers agree with naive
// loops at the same n values the kernel suite uses.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/support/bitset.h"
#include "src/support/rng.h"

namespace dynbcast {
namespace {

using bitword::dispatch;
using bitword::Kernels;
using bitword::kernelsFor;
using bitword::resolveSimdLevel;
using bitword::SimdLevel;
using bitword::simdLevelName;
using bitword::simdSupported;

// Word-span lengths straddling the AVX2 (4-word) and AVX-512 (8-word)
// lane widths and the kDispatchMinWords inline/dispatch boundary.
const std::size_t kWordCounts[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33};

std::vector<std::uint64_t> randomWords(std::size_t nwords, Rng& rng) {
  std::vector<std::uint64_t> w(nwords);
  for (std::uint64_t& x : w) x = rng();
  return w;
}

std::vector<SimdLevel> supportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (simdSupported(SimdLevel::kAvx2)) levels.push_back(SimdLevel::kAvx2);
  if (simdSupported(SimdLevel::kAvx512)) levels.push_back(SimdLevel::kAvx512);
  return levels;
}

TEST(SimdKernelTest, AllSupportedLevelsComputeIdenticalResults) {
  const std::vector<SimdLevel> levels = supportedLevels();
  const Kernels& scalar = kernelsFor(SimdLevel::kScalar);
  ASSERT_EQ(scalar.level, SimdLevel::kScalar);
  Rng rng(2024);
  for (const std::size_t nwords : kWordCounts) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::vector<std::uint64_t> a = randomWords(nwords, rng);
      const std::vector<std::uint64_t> b = randomWords(nwords, rng);
      const std::vector<std::uint64_t> c = randomWords(nwords, rng);

      std::vector<std::uint64_t> expectOr = a;
      scalar.orAssign(expectOr.data(), b.data(), nwords);
      std::vector<std::uint64_t> expectAnd = a;
      const std::size_t expectAndCount =
          scalar.andAssignCount(expectAnd.data(), b.data(), nwords);
      std::vector<std::uint64_t> expectInto(nwords);
      scalar.orInto(expectInto.data(), b.data(), c.data(), nwords);

      for (const SimdLevel level : levels) {
        const Kernels& k = kernelsFor(level);
        ASSERT_EQ(k.level, level);
        const std::string tag = std::string(k.name) +
                                " nwords=" + std::to_string(nwords);

        std::vector<std::uint64_t> dst = a;
        k.orAssign(dst.data(), b.data(), nwords);
        EXPECT_EQ(dst, expectOr) << "orAssign " << tag;

        dst = a;
        std::size_t count = k.orCount(dst.data(), b.data(), nwords);
        EXPECT_EQ(dst, expectOr) << "orCount dst " << tag;
        std::size_t naive = 0;
        for (const std::uint64_t w : expectOr) {
          naive += static_cast<std::size_t>(__builtin_popcountll(w));
        }
        EXPECT_EQ(count, naive) << "orCount count " << tag;

        dst = a;
        count = k.andAssignCount(dst.data(), b.data(), nwords);
        EXPECT_EQ(dst, expectAnd) << "andAssignCount dst " << tag;
        EXPECT_EQ(count, expectAndCount) << "andAssignCount count " << tag;

        dst = a;
        k.andAssign(dst.data(), b.data(), nwords);
        EXPECT_EQ(dst, expectAnd) << "andAssign " << tag;

        std::vector<std::uint64_t> into(nwords, 0xdeadbeefdeadbeefull);
        k.orInto(into.data(), b.data(), c.data(), nwords);
        EXPECT_EQ(into, expectInto) << "orInto " << tag;

        EXPECT_EQ(k.intersectAny(a.data(), b.data(), nwords),
                  scalar.intersectAny(a.data(), b.data(), nwords))
            << "intersectAny " << tag;
      }
    }
  }
}

TEST(SimdKernelTest, IntersectAnyFindsLoneOverlapAtEveryPosition) {
  // A single overlapping bit, swept across every word, catches a lane
  // that a vectorized any-reduction forgets to fold in.
  for (const std::size_t nwords : kWordCounts) {
    for (std::size_t w = 0; w < nwords; ++w) {
      std::vector<std::uint64_t> a(nwords, 0), b(nwords, 0);
      a[w] = 1ull << (w % 64);
      b[w] = a[w];
      for (const SimdLevel level : supportedLevels()) {
        const Kernels& k = kernelsFor(level);
        EXPECT_TRUE(k.intersectAny(a.data(), b.data(), nwords))
            << k.name << " nwords=" << nwords << " word=" << w;
        b[w] <<= 1;
        EXPECT_FALSE(k.intersectAny(a.data(), b.data(), nwords))
            << k.name << " nwords=" << nwords << " word=" << w;
        b[w] >>= 1;
      }
    }
  }
}

TEST(SimdKernelTest, MaskedWeightSumIsBitIdenticalOnEveryTier) {
  // n processes: lanes padded to whole registers, one mask row of
  // ceil(n/64) words per process (tail bits zero), weights spread over
  // ~60 binary orders of magnitude so most sums round.
  const std::size_t kProcessCounts[] = {1, 7, 8, 63, 64, 65, 130};
  Rng rng(4242);
  for (const std::size_t n : kProcessCounts) {
    const std::size_t nwords = (n + 63) / 64;
    const std::size_t lanes =
        (n + bitword::kMaskedSumLanes - 1) / bitword::kMaskedSumLanes *
        bitword::kMaskedSumLanes;
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<std::uint64_t> select(nwords, 0);
      std::vector<std::uint64_t> masks(n * nwords, 0);
      std::vector<double> weight(n);
      for (std::size_t x = 0; x < n; ++x) {
        if (trial == 0 || rng.chance(0.6)) select[x / 64] |= 1ull << (x % 64);
        for (std::size_t y = 0; y < n; ++y) {
          if (rng.chance(0.5)) masks[x * nwords + y / 64] |= 1ull << (y % 64);
        }
        weight[x] = std::ldexp(1.0 + rng.uniformReal(),
                               static_cast<int>(rng.uniform(60)));
      }
      // Naive per-lane definition: ascending x, from +0.0.
      std::vector<double> naive(n, 0.0);
      for (std::size_t y = 0; y < n; ++y) {
        for (std::size_t x = 0; x < n; ++x) {
          const bool selected = ((select[x / 64] >> (x % 64)) & 1u) != 0;
          const bool masked =
              ((masks[x * nwords + y / 64] >> (y % 64)) & 1u) != 0;
          if (selected && !masked) naive[y] += weight[x];
        }
      }
      std::vector<double> expect(lanes, -1.0);
      kernelsFor(SimdLevel::kScalar)
          .maskedWeightSum(expect.data(), lanes, select.data(), nwords,
                           masks.data(), nwords, weight.data());
      ASSERT_EQ(std::memcmp(expect.data(), naive.data(), n * sizeof(double)),
                0)
          << "scalar vs naive n=" << n;
      for (const SimdLevel level : supportedLevels()) {
        const Kernels& k = kernelsFor(level);
        std::vector<double> row(lanes, -1.0);
        k.maskedWeightSum(row.data(), lanes, select.data(), nwords,
                          masks.data(), nwords, weight.data());
        EXPECT_EQ(std::memcmp(row.data(), expect.data(),
                              lanes * sizeof(double)),
                  0)
            << k.name << " n=" << n << " trial=" << trial;
      }
    }
  }
}

TEST(SimdDispatchTest, UnsupportedLevelFallsBackToScalar) {
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    const Kernels& k = kernelsFor(level);
    if (simdSupported(level)) {
      EXPECT_EQ(k.level, level);
    } else {
      EXPECT_EQ(k.level, SimdLevel::kScalar);
    }
    EXPECT_STREQ(k.name, simdLevelName(k.level));
  }
}

TEST(SimdDispatchTest, ForceScalarEnvPinsResolution) {
  // dispatch() snapshots once per process, but resolveSimdLevel()
  // re-reads the environment — which is what lets one test cover the
  // forced-scalar path regardless of how CI launched the binary.
  const char* old = std::getenv("DYNBCAST_FORCE_SCALAR");
  const std::string saved = old != nullptr ? old : "";

  ASSERT_EQ(setenv("DYNBCAST_FORCE_SCALAR", "1", 1), 0);
  EXPECT_EQ(resolveSimdLevel(), SimdLevel::kScalar);
  ASSERT_EQ(setenv("DYNBCAST_FORCE_SCALAR", "0", 1), 0);
  const SimdLevel native = resolveSimdLevel();
  EXPECT_TRUE(simdSupported(native));

  if (old != nullptr) {
    setenv("DYNBCAST_FORCE_SCALAR", saved.c_str(), 1);
  } else {
    unsetenv("DYNBCAST_FORCE_SCALAR");
  }
}

TEST(SimdDispatchTest, ProcessWideTableIsSupportedAndNamed) {
  const Kernels& k = dispatch();
  EXPECT_TRUE(simdSupported(k.level));
  EXPECT_STREQ(k.name, simdLevelName(k.level));
}

TEST(SimdDispatchTest, LevelNamesAreStable) {
  EXPECT_STREQ(simdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(simdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(simdLevelName(SimdLevel::kAvx512), "avx512");
}

// --- bit-level wrappers at the ISSUE's n values ---------------------

const std::size_t kBitSizes[] = {1, 63, 64, 65, 127, 130};

DynBitset randomBits(std::size_t n, Rng& rng) {
  DynBitset b(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.4)) b.set(i);
  }
  return b;
}

TEST(SimdWrapperTest, OrCountMatchesNaiveAtWordBoundaryBitSizes) {
  Rng rng(99);
  for (const std::size_t n : kBitSizes) {
    for (int trial = 0; trial < 10; ++trial) {
      DynBitset dst = randomBits(n, rng);
      const DynBitset src = randomBits(n, rng);
      std::size_t expect = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (dst.test(i) || src.test(i)) ++expect;
      }
      EXPECT_EQ(
          bitword::orCount(dst.wordData(), src.wordData(), dst.wordCount()),
          expect)
          << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace dynbcast
