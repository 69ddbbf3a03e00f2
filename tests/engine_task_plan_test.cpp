// Task-plan equivalence: the serializable (spec, position) plan must
// reproduce runScenario() exactly — field for field — on every path,
// and groupBatchable must be a pure regrouping of positions. This is the
// contract the whole service layer stands on: a worker executing any
// chunk of positions in another process lands the same bytes the engine
// would.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/adversary/registry.h"
#include "src/engine/scenario.h"
#include "src/engine/task_plan.h"
#include "src/support/seed_sequence.h"

namespace dynbcast {
namespace {

[[nodiscard]] ExperimentEngine makeEngine(std::size_t jobs) {
  EngineConfig config;
  config.jobs = jobs;
  return ExperimentEngine(config);
}

void expectRowsEqual(const std::vector<SweepRow>& expected,
                     const std::vector<SweepRow>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].n, actual[i].n) << "row " << i;
    EXPECT_EQ(expected[i].seedIndex, actual[i].seedIndex) << "row " << i;
    EXPECT_EQ(expected[i].instanceSeed, actual[i].instanceSeed)
        << "row " << i;
    EXPECT_EQ(expected[i].member, actual[i].member) << "row " << i;
    EXPECT_EQ(expected[i].rounds, actual[i].rounds) << "row " << i;
    EXPECT_EQ(expected[i].completed, actual[i].completed) << "row " << i;
  }
}

[[nodiscard]] std::vector<SweepRow> rowsFromPlan(const ScenarioSpec& spec) {
  std::vector<SweepRow> rows;
  for (std::size_t p = 0; p < scenarioRowCount(spec); ++p) {
    rows.push_back(runScenarioRow(spec, p));
  }
  return rows;
}

TEST(TaskPlanTest, PlanFieldsAreAPureFunctionOfPosition) {
  ScenarioSpec spec;
  spec.sizes = {4, 6, 8};
  spec.seedsPerSize = 2;
  spec.masterSeed = 11;

  const std::size_t width = scenarioMembersPerInstance(spec);
  ASSERT_GT(width, 1u);  // the standard portfolio
  ASSERT_EQ(scenarioRowCount(spec), 3 * 2 * width);

  const SeedSequence seeds(spec.masterSeed);
  for (std::size_t p = 0; p < scenarioRowCount(spec); ++p) {
    const ScenarioRowPlan plan = planScenarioRow(spec, p);
    EXPECT_EQ(plan.position, p);
    EXPECT_EQ(plan.memberIndex, p % width);
    const std::size_t instance = p / width;
    EXPECT_EQ(plan.seedIndex, instance % spec.seedsPerSize);
    EXPECT_EQ(plan.sizeIndex, instance / spec.seedsPerSize);
    EXPECT_EQ(plan.n, spec.sizes[plan.sizeIndex]);
    EXPECT_EQ(plan.instanceSeed, seeds.at(instance));
    EXPECT_EQ(plan.memberSpec,
              resolvedScenarioMemberSpecs(spec)[plan.memberIndex]);
  }
}

// runScenario batches the replicates of oblivious members (nine seeds
// engage auto batching: a chunk of 8 lanes plus one alone per cell); the
// one-lane runScenarioRow must land the same bytes at every position.
TEST(TaskPlanTest, BatchedBroadcastChunksMatchOneLaneRows) {
  ScenarioSpec spec;
  spec.sizes = {4, 6, 8};
  spec.seedsPerSize = 9;
  spec.masterSeed = 7;

  ExperimentEngine engine = makeEngine(4);
  const ScenarioResult direct = runScenario(spec, engine);
  expectRowsEqual(direct.rows, rowsFromPlan(spec));
}

TEST(TaskPlanTest, GossipPathMatchesRunScenario) {
  ScenarioSpec spec;
  spec.objective = Objective::kGossip;
  spec.sizes = {4, 6};
  spec.seedsPerSize = 2;
  spec.masterSeed = 5;

  ExperimentEngine engine = makeEngine(4);
  const ScenarioResult direct = runScenario(spec, engine);
  expectRowsEqual(direct.rows, rowsFromPlan(spec));
}

TEST(TaskPlanTest, GraphModelPathMatchesRunScenario) {
  ScenarioSpec spec;
  spec.dynamics = "edge-markovian:p=0.3,q=0.3";
  spec.sizes = {6, 8, 10};
  spec.seedsPerSize = 2;
  spec.masterSeed = 3;

  ExperimentEngine engine = makeEngine(4);
  const ScenarioResult direct = runScenario(spec, engine);
  expectRowsEqual(direct.rows, rowsFromPlan(spec));

  // And each instance aggregate carries its plan identity; graph models
  // have one member, so that member's row is the instance's best when it
  // completed.
  ASSERT_EQ(direct.instances.size(), direct.rows.size());
  for (std::size_t i = 0; i < direct.instances.size(); ++i) {
    const ScenarioRowPlan plan = planScenarioRow(spec, i);
    const SweepInstance& instance = direct.instances[i];
    EXPECT_EQ(instance.n, plan.n);
    EXPECT_EQ(instance.seedIndex, plan.seedIndex);
    EXPECT_EQ(instance.instanceSeed, plan.instanceSeed);
    EXPECT_EQ(instance.portfolio.bestRounds,
              direct.rows[i].completed ? direct.rows[i].rounds : 0);
    EXPECT_EQ(instance.portfolio.bestName,
              direct.rows[i].completed ? plan.memberSpec : "");
  }
}

// --- groupBatchable: the batching decision as a plan transform ---------

[[nodiscard]] ScenarioSpec mixedMemberSpec() {
  ScenarioSpec spec;
  spec.sizes = {8, 12};
  spec.seedsPerSize = 9;
  spec.masterSeed = 5;
  // Three oblivious members and an adaptive one.
  spec.adversaries = {"static-path", "k-leaf:k=2", "freeze-path:depth=1",
                      "random-tree"};
  return spec;
}

[[nodiscard]] std::vector<std::size_t> allPositions(const ScenarioSpec& spec) {
  std::vector<std::size_t> positions(scenarioRowCount(spec));
  std::iota(positions.begin(), positions.end(), std::size_t{0});
  return positions;
}

[[nodiscard]] bool memberIsOblivious(const ScenarioSpec& spec,
                                     std::size_t position) {
  const ScenarioRowPlan plan = planScenarioRow(spec, position);
  return AdversaryRegistry::instance()
      .make(plan.memberSpec, plan.n, plan.instanceSeed)
      ->oblivious();
}

/// Checks the chunks partition `positions` and that every multi-lane
/// chunk is lanes of one oblivious (size, member) cell, ascending, with
/// at most `width` lanes. Returns the number of multi-lane chunks.
std::size_t expectValidChunks(const ScenarioSpec& spec,
                              const std::vector<std::size_t>& positions,
                              const std::vector<RowChunk>& chunks,
                              std::size_t width) {
  std::vector<std::size_t> covered;
  std::size_t multiLane = 0;
  for (const RowChunk& chunk : chunks) {
    EXPECT_FALSE(chunk.empty());
    covered.insert(covered.end(), chunk.begin(), chunk.end());
    if (chunk.size() == 1) continue;
    ++multiLane;
    EXPECT_LE(chunk.size(), width);
    EXPECT_TRUE(memberIsOblivious(spec, chunk.front()));
    const ScenarioRowPlan first = planScenarioRow(spec, chunk.front());
    for (std::size_t i = 1; i < chunk.size(); ++i) {
      const ScenarioRowPlan lane = planScenarioRow(spec, chunk[i]);
      EXPECT_LT(chunk[i - 1], chunk[i]);
      EXPECT_EQ(lane.sizeIndex, first.sizeIndex);
      EXPECT_EQ(lane.memberIndex, first.memberIndex);
    }
  }
  std::sort(covered.begin(), covered.end());
  EXPECT_EQ(covered, positions) << "chunks must cover each position once";
  return multiLane;
}

TEST(GroupBatchableTest, ChunksPartitionTheGridIntoObliviousCells) {
  ScenarioSpec spec = mixedMemberSpec();
  const std::vector<std::size_t> positions = allPositions(spec);
  // Auto: 2 sizes × 3 oblivious members, each cell 8 lanes + 1 alone.
  EXPECT_EQ(expectValidChunks(spec, positions, groupBatchable(spec, positions),
                              BatchPolicy::kAutoWidth),
            6u);
  spec.batch = {BatchPolicy::Mode::kFixed, 4};  // 4 + 4 + 1 per cell
  EXPECT_EQ(expectValidChunks(spec, positions, groupBatchable(spec, positions),
                              4),
            12u);
}

TEST(GroupBatchableTest, OnlyObliviousBroadcastTreeCellsBatch) {
  const auto expectAllSingle = [](const ScenarioSpec& spec,
                                  const char* label) {
    const std::vector<std::size_t> positions = allPositions(spec);
    EXPECT_EQ(expectValidChunks(spec, positions,
                                groupBatchable(spec, positions), 1),
              0u)
        << label;
  };
  ScenarioSpec adaptive = mixedMemberSpec();
  adaptive.adversaries = {"freeze-path:depth=1", "greedy-delay"};
  expectAllSingle(adaptive, "adaptive members");

  ScenarioSpec gossip = mixedMemberSpec();
  gossip.objective = Objective::kGossip;
  expectAllSingle(gossip, "gossip");

  ScenarioSpec model;
  model.dynamics = "edge-markovian:p=0.3,q=0.3";
  model.sizes = {8, 12};
  model.seedsPerSize = 9;
  expectAllSingle(model, "graph model");

  ScenarioSpec history = mixedMemberSpec();
  history.recordHistory = true;
  expectAllSingle(history, "recordHistory");

  ScenarioSpec off = mixedMemberSpec();
  off.batch = {BatchPolicy::Mode::kOff, 0};
  expectAllSingle(off, "batch=off");

  ScenarioSpec few = mixedMemberSpec();
  few.seedsPerSize = BatchPolicy::kAutoWidth - 1;
  expectAllSingle(few, "auto below kAutoWidth replicates");
}

TEST(GroupBatchableTest, ASubsetChunksOnlyItsOwnPositions) {
  const ScenarioSpec spec = mixedMemberSpec();
  std::vector<std::size_t> subset;
  for (std::size_t p = 0; p < scenarioRowCount(spec); p += 3) {
    subset.push_back(p);
  }
  const std::vector<RowChunk> chunks = groupBatchable(spec, subset);
  EXPECT_GT(expectValidChunks(spec, subset, chunks, BatchPolicy::kAutoWidth),
            0u);

  // And a subset chunk runs to the same bytes as the one-lane rows.
  for (const RowChunk& chunk : chunks) {
    if (chunk.size() == 1) continue;
    const std::vector<SweepRow> rows = runRowChunk(spec, chunk);
    ASSERT_EQ(rows.size(), chunk.size());
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      EXPECT_EQ(rows[i], runScenarioRow(spec, chunk[i]))
          << "position " << chunk[i];
    }
  }
}

}  // namespace
}  // namespace dynbcast
