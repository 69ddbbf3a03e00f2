// Service task semantics: the task grid covers every output cell, cache
// keys capture exactly the inputs that determine a result (and nothing
// more — that is what makes overlapping requests share work), and
// executing a task reproduces the engine bit for bit.

#include <gtest/gtest.h>

#include <string>

#include "src/adversary/beam.h"
#include "src/dynamics/registry.h"
#include "src/engine/scenario.h"
#include "src/engine/task_plan.h"
#include "src/service/job.h"

namespace dynbcast {
namespace {

TEST(ServiceJobTest, PlanCoversRowsPlusBeamTasksForTheoremSweeps) {
  ServiceRequest thm31;
  thm31.scenario.sizes = {4, 8, 16};
  thm31.scenario.seedsPerSize = 2;
  const ServiceJobPlan plan = planServiceJob(thm31);
  EXPECT_EQ(plan.rowCount, scenarioRowCount(thm31.scenario));
  EXPECT_EQ(plan.beamCount, 3u);  // one witness task per size
  EXPECT_EQ(plan.taskCount(), plan.rowCount + 3u);

  ServiceRequest model;
  model.scenario.dynamics = "edge-markovian:p=0.2,q=0.1";
  model.scenario.sizes = {4, 8, 16};
  const ServiceJobPlan modelPlan = planServiceJob(model);
  EXPECT_EQ(modelPlan.beamCount, 0u);
}

TEST(ServiceJobTest, RowKeysAreUniqueAcrossPositions) {
  ServiceRequest request;
  request.scenario.sizes = {4, 6};
  request.scenario.seedsPerSize = 2;
  const ServiceJobPlan plan = planServiceJob(request);

  std::vector<std::string> keys;
  for (std::size_t p = 0; p < plan.taskCount(); ++p) {
    keys.push_back(serviceTaskKey(request, p));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]) << "positions " << i << " and " << j;
    }
  }
}

// A request extended with extra sizes keeps its original positions'
// keys — seeds are position-derived, so a prefix extension is the
// overlap pattern the cache exploits.
TEST(ServiceJobTest, PrefixExtendedRequestsShareRowKeys) {
  ServiceRequest small;
  small.scenario.dynamics = "edge-markovian:p=0.3,q=0.3";
  small.scenario.sizes = {6, 8};
  small.scenario.seedsPerSize = 2;

  ServiceRequest large = small;
  large.scenario.sizes = {6, 8, 10, 12};

  const std::size_t smallRows = scenarioRowCount(small.scenario);
  for (std::size_t p = 0; p < smallRows; ++p) {
    EXPECT_EQ(serviceTaskKey(small, p), serviceTaskKey(large, p))
        << "position " << p;
  }
  EXPECT_GT(scenarioRowCount(large.scenario), smallRows);
}

TEST(ServiceJobTest, BackendChoiceNormalizesAtMirrorSizes) {
  // Below the sparse/dense mirror threshold rows are backend-invariant;
  // the key must say "dense" regardless of the requested choice so the
  // requests share cache cells.
  ServiceRequest autoChoice;
  autoChoice.scenario.dynamics = "edge-markovian:p=0.3,q=0.3";
  autoChoice.scenario.sizes = {8};

  ServiceRequest dense = autoChoice;
  dense.scenario.backend = BackendChoice::kDense;
  ServiceRequest sparse = autoChoice;
  sparse.scenario.backend = BackendChoice::kSparse;

  EXPECT_EQ(serviceTaskKey(autoChoice, 0), serviceTaskKey(dense, 0));
  EXPECT_EQ(serviceTaskKey(autoChoice, 0), serviceTaskKey(sparse, 0));
  EXPECT_NE(serviceTaskKey(autoChoice, 0).find("backend=dense"),
            std::string::npos);
}

TEST(ServiceJobTest, BeamKeysRecordWhetherTheSearchRan) {
  ServiceRequest searched;
  searched.scenario.sizes = {8};
  searched.beamMaxN = 8;

  ServiceRequest skipped = searched;
  skipped.beamMaxN = 4;  // size 8 exceeds the cap → trivial task

  const std::size_t beamPos = planServiceJob(searched).rowCount;
  const std::string searchedKey = serviceTaskKey(searched, beamPos);
  const std::string skippedKey = serviceTaskKey(skipped, beamPos);
  EXPECT_NE(searchedKey, skippedKey);
  EXPECT_NE(searchedKey.find("searched=1"), std::string::npos);
  EXPECT_NE(skippedKey.find("searched=0"), std::string::npos);

  // The skipped task reports "no witness", completed.
  const ServiceTaskResult trivial = executeServiceTask(skipped, beamPos);
  EXPECT_EQ(trivial.rounds, 0u);
  EXPECT_TRUE(trivial.completed);
}

TEST(ServiceJobTest, RowTasksMatchTheEnginePlan) {
  ServiceRequest request;
  request.scenario.dynamics = "edge-markovian:p=0.3,q=0.3";
  request.scenario.sizes = {6, 8};
  request.scenario.seedsPerSize = 2;
  request.scenario.masterSeed = 5;

  const std::size_t rows = scenarioRowCount(request.scenario);
  for (std::size_t p = 0; p < rows; ++p) {
    const SweepRow expected = runScenarioRow(request.scenario, p);
    const ServiceTaskResult actual = executeServiceTask(request, p);
    EXPECT_EQ(actual.rounds, expected.rounds) << "position " << p;
    EXPECT_EQ(actual.completed, expected.completed) << "position " << p;
  }
}

TEST(ServiceJobTest, BeamTasksMatchTheSweepDerivation) {
  ServiceRequest request;
  request.scenario.sizes = {4, 6};
  request.scenario.masterSeed = 1;
  request.beamMaxN = 8;
  request.beamWidth = 32;

  const ServiceJobPlan plan = planServiceJob(request);
  for (std::size_t i = 0; i < request.scenario.sizes.size(); ++i) {
    const std::size_t n = request.scenario.sizes[i];
    BeamConfig cfg;
    cfg.beamWidth = request.beamWidth;
    cfg.randomMovesPerState = 8;
    cfg.diversityPercent = 40;
    const BeamResult witness = beamSearchWitness(
        n, scenarioBeamSeed(request.scenario.masterSeed, i), cfg);
    const std::size_t expected =
        verifyWitness(n, witness.witness) == witness.rounds ? witness.rounds
                                                            : 0;

    const ServiceTaskResult actual =
        executeServiceTask(request, plan.rowCount + i);
    EXPECT_EQ(actual.rounds, expected) << "size " << n;
    EXPECT_TRUE(actual.completed);
  }
}

/// The task key as it was spelled before ServiceTaskKeys: the job
/// re-planned, the dynamics re-parsed and the members re-resolved for
/// every position. Kept here as the byte-identity oracle.
[[nodiscard]] std::string perPositionTaskKey(const ServiceRequest& request,
                                             std::size_t position) {
  const ScenarioSpec& spec = request.scenario;
  const ServiceJobPlan plan = planServiceJob(request);
  if (position >= plan.rowCount) {
    const std::size_t sizeIndex = position - plan.rowCount;
    const std::size_t n = spec.sizes[sizeIndex];
    const bool searched = n <= request.beamMaxN;
    return "beam/1 n=" + std::to_string(n) + " seed=" +
           std::to_string(scenarioBeamSeed(spec.masterSeed, sizeIndex)) +
           " width=" + std::to_string(request.beamWidth) +
           " moves=8 div=40 searched=" + (searched ? "1" : "0");
  }
  const ScenarioRowPlan row = planScenarioRow(spec, position);
  const DynamicsSpec dynamics = DynamicsSpec::parse(spec.dynamics);
  const DynamicsInfo& entry =
      DynamicsRegistry::instance().info(dynamics.name);
  std::string backend = "dense";
  if (entry.mode != DynamicsMode::kAdversaryTrees &&
      row.n > kAutoSparseThreshold) {
    const DynamicsInfo& memberEntry = DynamicsRegistry::instance().info(
        DynamicsSpec::parse(row.memberSpec).name);
    const bool sparse = spec.backend == BackendChoice::kSparse ||
                        (spec.backend == BackendChoice::kAuto &&
                         memberEntry.sparseCapable && !spec.recordHistory);
    backend = sparse ? "sparse" : "dense";
  }
  return "row/1 obj=" + objectiveName(spec.objective) +
         " dyn=" + dynamics.toString() + " cap=" +
         std::to_string(spec.roundCap) + " backend=" + backend +
         " member=" + row.memberSpec + " n=" + std::to_string(row.n) +
         " seed=" + std::to_string(row.instanceSeed) + " mpos=" +
         std::to_string(row.memberIndex);
}

TEST(ServiceJobTest, KeysComputedOncePerRequestMatchPerPositionKeys) {
  ServiceRequest tree;  // default rooted-tree portfolio, with beam tasks
  tree.scenario.sizes = {4, 12, 40};
  tree.scenario.seedsPerSize = 3;
  tree.scenario.masterSeed = 11;
  tree.beamMaxN = 12;

  ServiceRequest graphAuto;  // graph model on both sides of the threshold
  graphAuto.scenario.dynamics = "edge-markovian:p=0.01,q=0.5";
  graphAuto.scenario.sizes = {16, kAutoSparseThreshold + 904};
  graphAuto.scenario.seedsPerSize = 2;
  graphAuto.scenario.backend = BackendChoice::kAuto;
  ServiceRequest graphSparse = graphAuto;
  graphSparse.scenario.backend = BackendChoice::kSparse;
  ServiceRequest graphDense = graphAuto;
  graphDense.scenario.backend = BackendChoice::kDense;

  // Both outcomes of scenarioRowRunsSparse under backend=auto above the
  // threshold: a sparse-capable model and a dense-only one.
  ServiceRequest sparseCapable;
  sparseCapable.scenario.dynamics = "nonsplit-random";
  sparseCapable.scenario.sizes = {8, kAutoSparseThreshold + 1};
  ServiceRequest denseOnly = sparseCapable;
  denseOnly.scenario.dynamics = "nonsplit-skewed";

  for (const ServiceRequest* request :
       {&tree, &graphAuto, &graphSparse, &graphDense, &sparseCapable,
        &denseOnly}) {
    const ServiceTaskKeys keys(*request);
    EXPECT_EQ(keys.plan().taskCount(), planServiceJob(*request).taskCount());
    for (std::size_t p = 0; p < keys.plan().taskCount(); ++p) {
      const std::string expected = perPositionTaskKey(*request, p);
      EXPECT_EQ(keys.key(p), expected) << "position " << p;
      EXPECT_EQ(serviceTaskKey(*request, p), expected) << "position " << p;
    }
  }

  // The cases above do reach every branch of the key.
  const ServiceTaskKeys treeKeys(tree);
  const std::size_t beamPos = treeKeys.plan().rowCount;
  EXPECT_EQ(treeKeys.plan().beamCount, 3u);
  EXPECT_NE(treeKeys.key(beamPos + 1).find("searched=1"), std::string::npos);
  EXPECT_NE(treeKeys.key(beamPos + 2).find("searched=0"), std::string::npos);
  const std::size_t largeRow = 2;  // size index 1, first replicate
  EXPECT_NE(ServiceTaskKeys(graphAuto).key(largeRow).find("backend=sparse"),
            std::string::npos);
  EXPECT_NE(ServiceTaskKeys(graphDense).key(largeRow).find("backend=dense"),
            std::string::npos);
  EXPECT_NE(ServiceTaskKeys(graphAuto).key(0).find("backend=dense"),
            std::string::npos);
  EXPECT_NE(ServiceTaskKeys(sparseCapable).key(1).find("backend=sparse"),
            std::string::npos);
  EXPECT_NE(ServiceTaskKeys(denseOnly).key(1).find("backend=dense"),
            std::string::npos);
}

TEST(ServiceJobTest, AssembledRowsMatchRunScenario) {
  ServiceRequest request;
  request.scenario.sizes = {4, 6};
  request.scenario.seedsPerSize = 2;
  request.scenario.masterSeed = 3;

  EngineConfig config;
  config.jobs = 2;
  ExperimentEngine engine(config);
  const ScenarioResult direct = runScenario(request.scenario, engine);

  std::vector<ServiceTaskResult> results;
  const std::size_t rows = scenarioRowCount(request.scenario);
  for (std::size_t p = 0; p < rows; ++p) {
    results.push_back(executeServiceTask(request, p));
  }
  const std::vector<SweepRow> assembled =
      assembleServiceRows(request.scenario, results);
  ASSERT_EQ(assembled.size(), direct.rows.size());
  for (std::size_t i = 0; i < assembled.size(); ++i) {
    EXPECT_EQ(assembled[i], direct.rows[i]) << "row " << i;
  }
}

}  // namespace
}  // namespace dynbcast
