// Unit coverage for the sparse backend: FrontierSim must mirror
// BroadcastSim bit for bit (heard sets, completion flags, metrics) on
// trees, dense graphs, and raw arc lists — including the sameAsPrevious
// delta path and the full-row collapse — and runFrontierTStar must land
// on the exact dense t* under any cache budget or sample seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/graph/bitmatrix.h"
#include "src/sim/broadcast_sim.h"
#include "src/sim/frontier_sim.h"
#include "src/support/rng.h"
#include "src/tree/generators.h"

namespace dynbcast {
namespace {

[[nodiscard]] BitMatrix randomReflexiveGraph(std::size_t n, double p,
                                             Rng& rng) {
  BitMatrix g = BitMatrix::identity(n);
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = 0; y < n; ++y) {
      if (x != y && rng.chance(p)) g.set(x, y);
    }
  }
  return g;
}

[[nodiscard]] SparseRound randomArcRound(std::size_t n, std::size_t arcs,
                                         Rng& rng) {
  std::vector<SparseRound::Arc> list;
  for (std::size_t i = 0; i < arcs; ++i) {
    list.emplace_back(static_cast<std::uint32_t>(rng.uniform(n)),
                      static_cast<std::uint32_t>(rng.uniform(n)));
  }
  return SparseRound::fromArcs(n, list);
}

[[nodiscard]] BitMatrix denseFromRound(const SparseRound& round) {
  BitMatrix g = BitMatrix::identity(round.n);
  for (std::size_t x = 0; x < round.n; ++x) {
    for (std::uint32_t k = round.offsets[x]; k < round.offsets[x + 1]; ++k) {
      g.set(x, round.targets[k]);
    }
  }
  return g;
}

void expectMirrorsDense(const BroadcastSim& dense,
                        const FrontierSim& frontier) {
  const std::size_t n = dense.processCount();
  ASSERT_EQ(frontier.processCount(), n);
  ASSERT_EQ(frontier.round(), dense.round());
  for (std::size_t y = 0; y < n; ++y) {
    EXPECT_EQ(frontier.heardCount(y), dense.heardBy(y).count()) << "y=" << y;
    EXPECT_EQ(frontier.heardBitset(y), dense.heardBy(y)) << "y=" << y;
  }
  EXPECT_EQ(frontier.broadcastDone(), dense.broadcastDone());
  EXPECT_EQ(frontier.gossipDone(), dense.gossipDone());
  EXPECT_EQ(frontier.broadcasters(), dense.broadcasters());
  const RoundMetrics a = frontier.metrics();
  const RoundMetrics b = dense.metrics();
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.totalEdges, b.totalEdges);
  EXPECT_EQ(a.minHeard, b.minHeard);
  EXPECT_DOUBLE_EQ(a.avgHeard, b.avgHeard);
  EXPECT_EQ(a.maxHeard, b.maxHeard);
  EXPECT_EQ(a.maxCoverage, b.maxCoverage);
  EXPECT_EQ(a.completeRows, b.completeRows);
  EXPECT_EQ(a.completeCols, b.completeCols);
}

class FrontierSimTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FrontierSimTest, MirrorsDenseOnRandomTrees) {
  const std::size_t n = GetParam();
  Rng rng(n * 13 + 5);
  BroadcastSim dense(n);
  FrontierSim frontier(n);
  for (int r = 0; r < 30; ++r) {
    const RootedTree t = randomRootedTree(n, rng);
    dense.applyTree(t);
    frontier.applyTree(t);
    expectMirrorsDense(dense, frontier);
  }
}

TEST_P(FrontierSimTest, MirrorsDenseOnRandomGraphs) {
  const std::size_t n = GetParam();
  Rng rng(n * 19 + 11);
  BroadcastSim dense(n);
  FrontierSim frontier(n);
  for (int r = 0; r < 15; ++r) {
    const BitMatrix g = randomReflexiveGraph(n, 0.08, rng);
    dense.applyGraph(g);
    frontier.applyGraph(g);
    expectMirrorsDense(dense, frontier);
  }
}

TEST_P(FrontierSimTest, MirrorsDenseOnArcRounds) {
  const std::size_t n = GetParam();
  Rng rng(n * 23 + 29);
  BroadcastSim dense(n);
  FrontierSim frontier(n);
  for (int r = 0; r < 20; ++r) {
    const SparseRound round = randomArcRound(n, 2 * n, rng);
    dense.applyGraph(denseFromRound(round));
    frontier.applyEdges(round);
    expectMirrorsDense(dense, frontier);
  }
}

// 63/64/65/128 straddle the bitset word boundary; the small sizes hit the
// full-collapse tail almost immediately.
INSTANTIATE_TEST_SUITE_P(Sizes, FrontierSimTest,
                         ::testing::Values(2, 3, 7, 16, 63, 64, 65, 128));

TEST(FrontierSimTest, DeltaPathMatchesFullRecomputation) {
  // A round repeated with sameAsPrevious=true must leave the state
  // exactly where re-sending the full arc list would. Hold each graph
  // for several rounds so deltas shrink and (eventually) empty out.
  const std::size_t n = 48;
  Rng rng(4242);
  BroadcastSim dense(n);
  FrontierSim viaDelta(n);
  FrontierSim viaFull(n);
  for (int epoch = 0; epoch < 6; ++epoch) {
    SparseRound round = randomArcRound(n, n, rng);
    const BitMatrix g = denseFromRound(round);
    for (int hold = 0; hold < 4; ++hold) {
      round.sameAsPrevious = hold > 0;
      dense.applyGraph(g);
      viaDelta.applyEdges(round);
      SparseRound fresh = round;
      fresh.sameAsPrevious = false;
      viaFull.applyEdges(fresh);
      expectMirrorsDense(dense, viaDelta);
      expectMirrorsDense(dense, viaFull);
    }
  }
}

TEST(FrontierSimTest, FullCollapseKeepsCountersExact) {
  // One complete-graph round finishes everything: every row collapses to
  // the implicit full representation and every counter must still be
  // exact afterwards.
  const std::size_t n = 40;
  const SparseRound complete = SparseRound::fromGraph(BitMatrix::full(n));
  FrontierSim frontier(n);
  frontier.applyEdges(complete);
  EXPECT_TRUE(frontier.broadcastDone());
  EXPECT_TRUE(frontier.gossipDone());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(frontier.heardCount(i), n);
    EXPECT_EQ(frontier.coverage(i), n);
    EXPECT_TRUE(frontier.broadcasters().test(i));
  }
  // Further rounds on a finished instance stay consistent (and cheap).
  BroadcastSim dense(n);
  dense.applyGraph(denseFromRound(complete));
  Rng rng(7);
  const SparseRound extra = randomArcRound(n, n, rng);
  dense.applyGraph(denseFromRound(extra));
  frontier.applyEdges(extra);
  expectMirrorsDense(dense, frontier);
}

TEST(FrontierSimTest, ResetReplaysIdentically) {
  const std::size_t n = 20;
  Rng rng(99);
  std::vector<SparseRound> script;
  for (int r = 0; r < 8; ++r) script.push_back(randomArcRound(n, n, rng));

  FrontierSim frontier(n);
  for (const SparseRound& round : script) frontier.applyEdges(round);
  std::vector<std::size_t> firstCounts;
  for (std::size_t y = 0; y < n; ++y) {
    firstCounts.push_back(frontier.heardCount(y));
  }

  frontier.reset();
  EXPECT_EQ(frontier.round(), 0u);
  EXPECT_FALSE(frontier.broadcastDone());
  for (std::size_t y = 0; y < n; ++y) {
    EXPECT_EQ(frontier.heardCount(y), 1u);  // identity: y has heard y
    EXPECT_TRUE(frontier.hasHeard(y, y));
    EXPECT_EQ(frontier.coverage(y), 1u);
  }

  for (const SparseRound& round : script) frontier.applyEdges(round);
  for (std::size_t y = 0; y < n; ++y) {
    EXPECT_EQ(frontier.heardCount(y), firstCounts[y]);
  }
}

TEST(FrontierSimTest, SingleProcessIsDoneAtRoundZero) {
  FrontierSim frontier(1);
  EXPECT_TRUE(frontier.broadcastDone());
  EXPECT_TRUE(frontier.gossipDone());
  EXPECT_EQ(frontier.heardCount(0), 1u);
}

// ---------------------------------------------------------------------------
// t*-only mode
// ---------------------------------------------------------------------------

/// Replayable scripted source: cycles over a fixed vector of rounds.
class VectorRoundSource final : public SparseRoundSource {
 public:
  explicit VectorRoundSource(std::vector<SparseRound> rounds)
      : rounds_(std::move(rounds)) {}
  void reset() override { next_ = 0; }
  void next(SparseRound& out) override {
    out = rounds_[next_ % rounds_.size()];
    ++next_;
  }

 private:
  std::vector<SparseRound> rounds_;
  std::size_t next_ = 0;
};

[[nodiscard]] std::size_t denseTStar(std::size_t n,
                                     const std::vector<SparseRound>& script,
                                     std::size_t cap) {
  BroadcastSim dense(n);
  if (dense.broadcastDone()) return 0;
  while (dense.round() < cap) {
    dense.applyGraph(denseFromRound(script[dense.round() % script.size()]));
    if (dense.broadcastDone()) return dense.round();
  }
  return 0;  // never completed
}

class FrontierTStarTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FrontierTStarTest, MatchesDenseTStarOnScriptedSequences) {
  // n > 64 exercises the sampled upper bound + backward filter +
  // certification path; n ≤ 64 takes the exact all-sources shortcut.
  const std::size_t n = GetParam();
  Rng rng(n * 37 + 101);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<SparseRound> script;
    const std::size_t period = 3 + rng.uniform(5);
    for (std::size_t r = 0; r < period; ++r) {
      script.push_back(randomArcRound(n, n / 2 + 2, rng));
    }
    const std::size_t cap = 20 * n;
    const std::size_t expected = denseTStar(n, script, cap);

    VectorRoundSource source(script);
    FrontierTStarOptions options;
    options.maxRounds = cap;
    options.sampleSeed = rng();
    const FrontierTStarResult result = runFrontierTStar(n, source, options);
    if (expected == 0) {
      EXPECT_FALSE(result.completed) << "n=" << n << " trial=" << trial;
      EXPECT_EQ(result.rounds, cap);
    } else {
      EXPECT_TRUE(result.completed) << "n=" << n << " trial=" << trial;
      EXPECT_EQ(result.rounds, expected)
          << "n=" << n << " trial=" << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FrontierTStarTest,
                         ::testing::Values(2, 5, 17, 64, 65, 100, 130));

TEST(FrontierTStarTest, ReportsIncompleteAtCapOnSilentNetwork) {
  // Arc-free rounds never spread anything: for n >= 2 broadcast cannot
  // complete, and the result must say cap/incomplete, not loop or lie.
  const std::size_t n = 80;
  VectorRoundSource source({SparseRound::fromArcs(n, {})});
  FrontierTStarOptions options;
  options.maxRounds = 25;
  const FrontierTStarResult result = runFrontierTStar(n, source, options);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.rounds, 25u);
}

TEST(FrontierTStarTest, TinyCacheBudgetReplaysExactly) {
  // A cache budget too small for even one round forces every probe to
  // replay through source.reset(); the answer must not change.
  const std::size_t n = 90;
  Rng rng(555);
  std::vector<SparseRound> script;
  for (int r = 0; r < 5; ++r) script.push_back(randomArcRound(n, n, rng));
  VectorRoundSource source(script);

  FrontierTStarOptions cached;
  cached.maxRounds = 20 * n;
  cached.sampleSeed = 7;
  const FrontierTStarResult big = runFrontierTStar(n, source, cached);

  source.reset();
  FrontierTStarOptions tiny = cached;
  tiny.cacheBudgetArcs = 1;
  const FrontierTStarResult small = runFrontierTStar(n, source, tiny);

  EXPECT_EQ(big.completed, small.completed);
  EXPECT_EQ(big.rounds, small.rounds);
  EXPECT_EQ(denseTStar(n, script, cached.maxRounds), big.rounds);
}

TEST(FrontierTStarTest, SampleSeedOnlyAffectsPerformance) {
  // t* is exact, so any sample seed (and any sample count) must report
  // the same round.
  const std::size_t n = 120;
  Rng rng(808);
  std::vector<SparseRound> script;
  // 4n arcs per round: sparse, but enough in-degree that the periodic
  // script completes broadcast with overwhelming probability.
  for (int r = 0; r < 4; ++r) {
    script.push_back(randomArcRound(n, 4 * n, rng));
  }
  const std::size_t expected = denseTStar(n, script, 20 * n);
  ASSERT_NE(expected, 0u);

  for (const std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    for (const std::size_t samples : {std::size_t(1), std::size_t(16),
                                      std::size_t(64)}) {
      VectorRoundSource source(script);
      FrontierTStarOptions options;
      options.maxRounds = 20 * n;
      options.sampleSeed = seed;
      options.samples = samples;
      const FrontierTStarResult result =
          runFrontierTStar(n, source, options);
      EXPECT_TRUE(result.completed)
          << "seed=" << seed << " samples=" << samples;
      EXPECT_EQ(result.rounds, expected)
          << "seed=" << seed << " samples=" << samples;
    }
  }
}

TEST(FrontierTStarTest, SingleProcessCompletesImmediately) {
  VectorRoundSource source({SparseRound::fromArcs(1, {})});
  FrontierTStarOptions options;
  options.maxRounds = 10;
  const FrontierTStarResult result = runFrontierTStar(1, source, options);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.rounds, 0u);
}

}  // namespace
}  // namespace dynbcast
