#include "src/adversary/exact_solver.h"

#include <gtest/gtest.h>

#include "src/bounds/bounds.h"
#include "src/graph/properties.h"
#include "src/sim/broadcast_sim.h"
#include "src/support/assert.h"
#include "src/tree/families.h"

namespace dynbcast {
namespace {

TEST(ExactSolverTest, RejectsOutOfRangeN) {
  EXPECT_THROW(ExactSolver(1), AssertionError);
  EXPECT_THROW(ExactSolver(17), AssertionError);
}

TEST(ExactSolverTest, ExhaustiveQueriesRejectInfeasiblePool) {
  // n = 9 is constructible (row-array encoding), but solve() needs the
  // full 9^8 = 43M move pool — only witnessPlay works.
  ExactSolver solver(9);
  EXPECT_THROW((void)solver.solve(), AssertionError);
}

TEST(ExactSolverTest, N2IsOneRound) {
  // Both trees on 2 nodes broadcast immediately: t*(T_2) = 1, which also
  // equals the paper's lower bound ⌈(3·2−1)/2⌉−2 = 1.
  ExactSolver solver(2);
  const ExactResult r = solver.solve();
  EXPECT_EQ(r.tStar, 1u);
  EXPECT_EQ(r.tStar, bounds::lowerBound(2));
}

TEST(ExactSolverTest, CanonicalizationPreservesValue) {
  for (const std::size_t n : {2u, 3u, 4u}) {
    ExactSolver with(n, {.canonicalize = true});
    ExactSolver without(n, {.canonicalize = false});
    const ExactResult a = with.solve();
    const ExactResult b = without.solve();
    EXPECT_EQ(a.tStar, b.tStar) << "n=" << n;
    EXPECT_LE(a.statesMemoized, b.statesMemoized) << "n=" << n;
  }
}

class ExactBoundsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExactBoundsTest, ValueRespectsTheorem31) {
  const std::size_t n = GetParam();
  ExactSolver solver(n);
  const ExactResult r = solver.solve();
  // The exact game value must sit inside the theorem's bracket.
  EXPECT_GE(r.tStar, bounds::lowerBound(n)) << "n=" << n;
  EXPECT_LE(r.tStar, bounds::linearUpper(n)) << "n=" << n;
  // And strictly above the static-path baseline for n ≥ 3 (the adversary
  // can always do at least as well as any single tree).
  EXPECT_GE(r.tStar, n - 1) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(SmallN, ExactBoundsTest,
                         ::testing::Values(2, 3, 4, 5));

TEST(ExactSolverTest, SolveFindsTheKnownValuesAndALineThatReplays) {
  // The values are constants, not the bound formula: solve() deepens
  // from the static path and never reads lowerBound(n). Its line is a
  // machine-checkable certificate: replaying it on the simulator
  // reaches broadcast exactly at t*(T_n).
  const std::size_t known[] = {1, 2, 4, 5};
  for (const std::size_t n : {2u, 3u, 4u, 5u}) {
    const ExactResult exact = ExactSolver(n).solve();
    EXPECT_EQ(exact.tStar, known[n - 2]) << "n=" << n;
    EXPECT_EQ(exact.line.size(), exact.tStar) << "n=" << n;
    BroadcastSim sim(n);
    for (std::size_t r = 0; r < exact.line.size(); ++r) {
      EXPECT_FALSE(sim.broadcastDone())
          << "broadcast before the sequence ended, n=" << n;
      sim.applyTree(exact.line[r]);
    }
    EXPECT_TRUE(sim.broadcastDone()) << "n=" << n;
  }
}

TEST(OptimalPlayTest, AllMovesAreValidTrees) {
  for (const RootedTree& t : ExactSolver(4).solve().line) {
    EXPECT_EQ(t.size(), 4u);
    EXPECT_TRUE(isRootedTreeWithSelfLoops(t.toMatrix()));
  }
}

TEST(WitnessPlayTest, MatchesExactValueWhereSolveIsFeasible) {
  // For n ≤ 5 the exact value is known (= the paper's lower bound): the
  // witness search must find a play of exactly that length, and the
  // play must replay to its own length.
  for (const std::size_t n : {2u, 3u, 4u, 5u}) {
    ExactSolver solver(n);
    const std::vector<RootedTree> play =
        solver.witnessPlay(bounds::lowerBound(n));
    EXPECT_EQ(play.size(), bounds::lowerBound(n)) << "n=" << n;
    BroadcastSim sim(n);
    for (std::size_t r = 0; r < play.size(); ++r) {
      EXPECT_FALSE(sim.broadcastDone()) << "n=" << n << " round=" << r;
      sim.applyTree(play[r]);
    }
    EXPECT_TRUE(sim.broadcastDone()) << "n=" << n;
  }
}

TEST(WitnessPlayTest, CertifiesLowerBoundThroughN7) {
  // Beyond solve()'s practical range: a certified line of play reaching
  // ⌈(3n−1)/2⌉−2 rounds (the [14] lower bound) via the complete pool.
  for (const std::size_t n : {6u, 7u}) {
    const std::vector<RootedTree> play =
        ExactSolver(n).witnessPlay(bounds::lowerBound(n));
    EXPECT_EQ(play.size(), bounds::lowerBound(n)) << "n=" << n;
  }
}

TEST(WitnessPlayTest, CertifiesLowerBoundAtN8) {
  const std::vector<RootedTree> play =
      ExactSolver(8).witnessPlay(bounds::lowerBound(8));
  EXPECT_EQ(play.size(), bounds::lowerBound(8));  // = 10
}

TEST(WitnessPlayTest, CertifiesLowerBoundAtN9) {
  // Past the complete-pool ceiling: the structured branching pool
  // certifies t*(T_9) >= ⌈26/2⌉−2 = 11.
  const std::vector<RootedTree> play =
      ExactSolver(9).witnessPlay(bounds::lowerBound(9));
  EXPECT_EQ(play.size(), bounds::lowerBound(9));  // = 11
  BroadcastSim sim(9);
  std::size_t completedAt = 0;
  for (std::size_t r = 0; r < play.size(); ++r) {
    sim.applyTree(play[r]);
    if (sim.broadcastDone() && completedAt == 0) completedAt = r + 1;
  }
  EXPECT_EQ(completedAt, play.size());
}

TEST(WitnessPlayTest, ExhaustedBudgetStillReturnsAValidShorterPlay) {
  // A starved search degrades to the static path's n − 1 rounds — the
  // floor no adversary needs a search for — never to an invalid
  // sequence.
  ExactWitnessOptions opts;
  opts.nodeBudget = 0;
  const std::vector<RootedTree> play =
      ExactSolver(9).witnessPlay(bounds::lowerBound(9), opts);
  ASSERT_EQ(play.size(), 8u);
  BroadcastSim sim(9);
  for (const RootedTree& tree : play) {
    EXPECT_FALSE(sim.broadcastDone());
    sim.applyTree(tree);
  }
  EXPECT_TRUE(sim.broadcastDone());
}

TEST(WitnessPlayTest, ABudgetSpentOnTheTopTargetLeavesTheStaticFloor) {
  // The budget is per target: the top target spending all of it must
  // not starve the smaller ones down to the bare star. Whatever the
  // search certifies, the line replays to at least n − 1 rounds.
  const std::size_t n = 10;
  ExactWitnessOptions opts;
  opts.nodeBudget = 200;
  const std::vector<RootedTree> play =
      ExactSolver(n).witnessPlay(bounds::lowerBound(n), opts);
  EXPECT_GE(play.size(), n - 1);
  EXPECT_LE(play.size(), bounds::lowerBound(n));
  BroadcastSim sim(n);
  std::size_t completedAt = 0;
  for (std::size_t r = 0; r < play.size(); ++r) {
    sim.applyTree(play[r]);
    if (sim.broadcastDone() && completedAt == 0) completedAt = r + 1;
  }
  EXPECT_EQ(completedAt, play.size());
}

TEST(WitnessPlayTest, ZeroTargetIsEmpty) {
  EXPECT_TRUE(ExactSolver(5).witnessPlay(0).empty());
}

}  // namespace
}  // namespace dynbcast
