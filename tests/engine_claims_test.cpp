#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/bounds/bounds.h"
#include "src/engine/scenario.h"

namespace dynbcast {
namespace {

ScenarioSpec specOf(const std::string& dynamics,
                    Objective objective = Objective::kBroadcast) {
  ScenarioSpec spec;
  spec.dynamics = dynamics;
  spec.objective = objective;
  return spec;
}

SweepRow rowOf(std::size_t n, const std::string& member, std::size_t rounds,
               bool completed = true) {
  SweepRow row;
  row.n = n;
  row.member = member;
  row.rounds = rounds;
  row.completed = completed;
  return row;
}

/// The claim lines for one hand-made row.
std::vector<std::string> violationsOf(const ScenarioSpec& spec,
                                      const SweepRow& row) {
  return scenarioClaimViolations(spec, {row});
}

void expectOneViolation(const ScenarioSpec& spec, const SweepRow& row,
                        const std::string& claim) {
  const std::vector<std::string> lines = violationsOf(spec, row);
  ASSERT_EQ(lines.size(), 1u) << row.member << " rounds=" << row.rounds;
  EXPECT_NE(lines[0].find(claim), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find(row.member), std::string::npos) << lines[0];
}

TEST(ScenarioClaimsTest, TheoremUpperBoundIsChecked) {
  const ScenarioSpec spec = specOf("rooted-tree");
  const std::size_t upper = bounds::linearUpper(16);
  expectOneViolation(spec, rowOf(16, "greedy-delay", upper + 1),
                     "Theorem 3.1");
  EXPECT_TRUE(violationsOf(spec, rowOf(16, "greedy-delay", upper)).empty());
}

TEST(ScenarioClaimsTest, AnIncompleteRowBreaksABoundItsCapReached) {
  // Stopped at the cap without broadcast: t* is above the cap, so a cap
  // at the bound already proves the bound broken; a smaller cap proves
  // nothing.
  const ScenarioSpec spec = specOf("rooted-tree");
  const std::size_t upper = bounds::linearUpper(16);
  expectOneViolation(spec, rowOf(16, "greedy-delay", upper, false),
                     "Theorem 3.1");
  EXPECT_TRUE(
      violationsOf(spec, rowOf(16, "greedy-delay", upper - 1, false)).empty());
}

TEST(ScenarioClaimsTest, StaticPathTakesExactlyNMinusOne) {
  const ScenarioSpec spec = specOf("rooted-tree");
  expectOneViolation(spec, rowOf(16, "static-path", 14), "exactly n-1 = 15");
  expectOneViolation(spec, rowOf(16, "static-path", 16), "exactly n-1 = 15");
  expectOneViolation(spec, rowOf(16, "static-path", 15, false),
                     "exactly n-1 = 15");
  EXPECT_TRUE(violationsOf(spec, rowOf(16, "static-path", 15)).empty());
  EXPECT_TRUE(violationsOf(spec, rowOf(16, "static-path", 5, false)).empty());
}

TEST(ScenarioClaimsTest, StaticPathNeverCompletesGossip) {
  const ScenarioSpec spec = specOf("rooted-tree", Objective::kGossip);
  expectOneViolation(spec, rowOf(16, "static-path", 40), "never completes");
  EXPECT_TRUE(violationsOf(spec, rowOf(16, "static-path", 210, false)).empty());
  // Theorem 3.1 bounds broadcast only: gossip may run past it.
  EXPECT_TRUE(violationsOf(spec, rowOf(16, "alternating-path", 30)).empty());
  EXPECT_TRUE(violationsOf(spec, rowOf(16, "greedy-delay", 210, false)).empty());
}

TEST(ScenarioClaimsTest, RestrictedClassesStayWithinKTimesN) {
  // 33 rounds at n = 16 is within Theorem 3.1 (38) but not within 2n.
  const ScenarioSpec spec = specOf("restricted:k=2");
  ASSERT_GT(bounds::linearUpper(16), 33u);
  expectOneViolation(spec, rowOf(16, "k-leaf:k=2", 33), "O(kn)");
  EXPECT_TRUE(violationsOf(spec, rowOf(16, "k-leaf:k=2", 32)).empty());
  expectOneViolation(specOf("restricted:class=k-inner,k=1"),
                     rowOf(16, "k-inner:k=1", 17), "O(kn)");
}

TEST(ScenarioClaimsTest, NonsplitModelsStayWithinCeilLog2N) {
  ASSERT_EQ(bounds::nonsplitLogUpper(16), 4u);
  for (const std::string model : {"nonsplit-random", "nonsplit-skewed"}) {
    expectOneViolation(specOf(model), rowOf(16, model, 5), "log2 n");
    EXPECT_TRUE(violationsOf(specOf(model), rowOf(16, model, 4)).empty());
  }
  // Models without a claim are not checked.
  EXPECT_TRUE(violationsOf(specOf("edge-markovian"),
                           rowOf(16, "edge-markovian", 500))
                  .empty());
}

TEST(ScenarioClaimsTest, RealRunsConform) {
  ExperimentEngine engine(EngineConfig{.jobs = 2});
  for (const std::string dynamics :
       {"rooted-tree", "restricted:k=2", "nonsplit-random"}) {
    ScenarioSpec spec = specOf(dynamics);
    spec.sizes = {8, 16};
    spec.seedsPerSize = 2;
    EXPECT_TRUE(
        scenarioClaimViolations(spec, runScenario(spec, engine).rows).empty())
        << dynamics;
  }
  ScenarioSpec gossip = specOf("rooted-tree", Objective::kGossip);
  gossip.sizes = {8, 16};
  gossip.adversaries = {"static-path", "random-tree"};
  EXPECT_TRUE(
      scenarioClaimViolations(gossip, runScenario(gossip, engine).rows)
          .empty());
}

TEST(ScenarioClaimsTest, RowsLeftIncompleteUnderASmallCapPass) {
  ExperimentEngine engine(EngineConfig{.jobs = 2});
  for (const std::string dynamics :
       {"rooted-tree", "restricted:k=2", "nonsplit-random"}) {
    ScenarioSpec spec = specOf(dynamics);
    spec.sizes = {16, 32};
    spec.roundCap = 1;
    const ScenarioResult result = runScenario(spec, engine);
    bool anyIncomplete = false;
    for (const SweepRow& row : result.rows) anyIncomplete |= !row.completed;
    EXPECT_TRUE(anyIncomplete) << dynamics;
    EXPECT_TRUE(scenarioClaimViolations(spec, result.rows).empty())
        << dynamics;
  }
}

}  // namespace
}  // namespace dynbcast
