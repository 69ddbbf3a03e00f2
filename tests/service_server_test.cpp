// End-to-end service loop, in-process: a server thread on a unix
// socket, real protocol traffic through the submit client, byte-equal
// results against the engine, warm-cache resubmission, and the error
// path. Sharded (multi-process) execution is covered by the
// service_smoke ctest; this suite keeps everything in one process so it
// runs under TSan.

#include <gtest/gtest.h>

#include <filesystem>
#include <sys/stat.h>

#include <chrono>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/engine/scenario.h"
#include "src/service/client.h"
#include "src/service/job.h"
#include "src/service/manifest.h"
#include "src/service/protocol.h"
#include "src/service/server.h"
#include "src/support/file_lock.h"

namespace dynbcast {
namespace {

/// Blocks until the server socket exists (the listener binds before the
/// accept loop, so existence means connectable).
void awaitSocket(const std::string& path) {
  struct stat st {};
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (::stat(path.c_str(), &st) == 0 && S_ISSOCK(st.st_mode)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "server socket never appeared at " << path;
}

class ServiceServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "dynbcast_server_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);  // stale state from prior runs
    makeDirectories(dir_);
  }

  /// Serves exactly `requests` connections on a background thread.
  [[nodiscard]] std::thread startServer(std::size_t requests) {
    ServerOptions options;
    options.socketPath = dir_ + "/sock";
    options.stateDir = dir_ + "/state";
    options.workers = 0;  // in-process execution — TSan-visible
    options.jobsPerWorker = 2;
    options.maxRequests = requests;
    std::thread server([options] { (void)runServer(options); });
    awaitSocket(options.socketPath);
    return server;
  }

  std::string dir_;
};

TEST_F(ServiceServerTest, SubmitMatchesTheEngineAndResubmitIsAllCacheHits) {
  ServiceRequest request;
  request.scenario.dynamics = "edge-markovian:p=0.3,q=0.3";
  request.scenario.sizes = {6, 8, 10};
  request.scenario.seedsPerSize = 2;
  request.scenario.masterSeed = 7;

  std::thread server = startServer(2);
  const std::string socket = dir_ + "/sock";

  std::ostringstream progress;
  const SubmitOutcome cold = submitRequest(socket, request, &progress);
  EXPECT_EQ(cold.jobId, requestJobId(request));
  EXPECT_EQ(cold.tasks, 6u);
  EXPECT_EQ(cold.resumed, 0u);
  EXPECT_EQ(cold.cacheHits, 0u);
  EXPECT_EQ(cold.executed, 6u);
  EXPECT_NE(progress.str().find("service: PROGRESS"), std::string::npos);

  EngineConfig config;
  config.jobs = 2;
  ExperimentEngine engine(config);
  const ScenarioResult direct = runScenario(request.scenario, engine);
  ASSERT_EQ(cold.rows.size(), direct.rows.size());
  for (std::size_t i = 0; i < cold.rows.size(); ++i) {
    EXPECT_EQ(cold.rows[i], direct.rows[i]) << "row " << i;
  }
  ASSERT_EQ(cold.instances.size(), direct.instances.size());
  for (std::size_t i = 0; i < cold.instances.size(); ++i) {
    EXPECT_EQ(cold.instances[i].portfolio.bestRounds,
              direct.instances[i].portfolio.bestRounds) << "instance " << i;
  }

  // Resubmission: the job is complete, so every task is a cache hit and
  // nothing executes — and the rows are still byte-identical.
  const SubmitOutcome warm = submitRequest(socket, request, nullptr);
  EXPECT_EQ(warm.resumed, 0u);
  EXPECT_EQ(warm.cacheHits, 6u);
  EXPECT_EQ(warm.executed, 0u);
  for (std::size_t i = 0; i < warm.rows.size(); ++i) {
    EXPECT_EQ(warm.rows[i], direct.rows[i]) << "row " << i;
  }

  server.join();
}

TEST_F(ServiceServerTest, AFinishedJobIsAnsweredFromItsManifestAlone) {
  ServiceRequest request;
  request.scenario.dynamics = "edge-markovian:p=0.3,q=0.3";
  request.scenario.sizes = {6, 8};
  request.scenario.seedsPerSize = 3;
  request.scenario.masterSeed = 11;

  std::thread server = startServer(2);
  const std::string socket = dir_ + "/sock";
  const SubmitOutcome cold = submitRequest(socket, request, nullptr);
  ASSERT_EQ(cold.executed, 6u);

  // With the cache gone, only the manifest can supply the results.
  const std::string cacheDir = dir_ + "/state/cache";
  const std::string manifestPath =
      dir_ + "/state/job-" + requestJobId(request) + ".manifest";
  std::filesystem::remove_all(cacheDir);
  const std::optional<std::string> before = readFileIfExists(manifestPath);
  ASSERT_TRUE(before.has_value());

  const SubmitOutcome warm = submitRequest(socket, request, nullptr);
  server.join();
  EXPECT_EQ(warm.tasks, 6u);
  EXPECT_EQ(warm.resumed, 0u);
  EXPECT_EQ(warm.cacheHits, 6u);
  EXPECT_EQ(warm.executed, 0u);
  EXPECT_EQ(warm.rows, cold.rows);
  // Nothing was looked up, recorded or rewritten.
  EXPECT_FALSE(std::filesystem::exists(cacheDir));
  EXPECT_EQ(readFileIfExists(manifestPath), before);
}

TEST_F(ServiceServerTest, AFinishedManifestForAnotherPlanIsNotServed) {
  ServiceRequest request;
  request.scenario.dynamics = "edge-markovian:p=0.3,q=0.3";
  request.scenario.sizes = {6, 8, 10};
  request.scenario.seedsPerSize = 2;
  request.scenario.masterSeed = 7;
  ASSERT_EQ(planServiceJob(request).taskCount(), 6u);

  // A complete manifest for this request whose task count disagrees
  // with its plan: serving it would hand back two bogus rows.
  makeDirectories(dir_ + "/state");
  const std::string manifestPath =
      dir_ + "/state/job-" + requestJobId(request) + ".manifest";
  initManifest(manifestPath, canonicalRequestString(request), 2);
  appendTaskRecords(manifestPath, {{0, 99, true}, {1, 99, true}});
  ASSERT_TRUE(loadManifest(manifestPath)->complete());

  std::thread server = startServer(1);
  const SubmitOutcome outcome =
      submitRequest(dir_ + "/sock", request, nullptr);
  server.join();
  EXPECT_EQ(outcome.tasks, 6u);
  EXPECT_EQ(outcome.executed, 6u);

  EngineConfig config;
  config.jobs = 2;
  ExperimentEngine engine(config);
  const ScenarioResult direct = runScenario(request.scenario, engine);
  ASSERT_EQ(outcome.rows.size(), direct.rows.size());
  for (std::size_t i = 0; i < outcome.rows.size(); ++i) {
    EXPECT_EQ(outcome.rows[i], direct.rows[i]) << "row " << i;
  }
}

TEST_F(ServiceServerTest, AnUnfinishedManifestForAnotherPlanIsReplanned) {
  ServiceRequest request;
  request.scenario.dynamics = "edge-markovian:p=0.3,q=0.3";
  request.scenario.sizes = {6, 8, 10};
  request.scenario.seedsPerSize = 2;
  request.scenario.masterSeed = 7;
  const std::size_t tasks = planServiceJob(request).taskCount();

  // An unfinished manifest that declares one task more than the plan:
  // its last position can never be filled, so it must not be resumed.
  makeDirectories(dir_ + "/state");
  const std::string manifestPath =
      dir_ + "/state/job-" + requestJobId(request) + ".manifest";
  initManifest(manifestPath, canonicalRequestString(request), tasks + 1);
  appendTaskRecords(manifestPath, {{0, 99, true}});
  ASSERT_FALSE(loadManifest(manifestPath)->complete());

  std::thread server = startServer(1);
  const SubmitOutcome outcome =
      submitRequest(dir_ + "/sock", request, nullptr);
  server.join();
  EXPECT_EQ(outcome.tasks, tasks);
  EXPECT_EQ(outcome.resumed, 0u);
  EXPECT_EQ(outcome.executed, tasks);
  EXPECT_EQ(loadManifest(manifestPath)->taskCount, tasks);

  EngineConfig config;
  config.jobs = 2;
  ExperimentEngine engine(config);
  const ScenarioResult direct = runScenario(request.scenario, engine);
  ASSERT_EQ(outcome.rows.size(), direct.rows.size());
  for (std::size_t i = 0; i < outcome.rows.size(); ++i) {
    EXPECT_EQ(outcome.rows[i], direct.rows[i]) << "row " << i;
  }
}

TEST_F(ServiceServerTest, BeamTasksStreamBackForTheoremSweeps) {
  ServiceRequest request;  // default rooted-tree broadcast → beam pass
  request.scenario.sizes = {4, 6};
  request.beamMaxN = 4;  // search size 4, skip size 6
  request.beamWidth = 16;

  std::thread server = startServer(1);
  const SubmitOutcome outcome =
      submitRequest(dir_ + "/sock", request, nullptr);
  ASSERT_EQ(outcome.beamRounds.size(), 2u);
  EXPECT_GT(outcome.beamRounds[0], 0u);   // verified witness at n=4
  EXPECT_EQ(outcome.beamRounds[1], 0u);   // skipped above beamMaxN
  server.join();
}

TEST_F(ServiceServerTest, SpecErrorsComeBackAsServerErrors) {
  ServiceRequest request;
  request.scenario.dynamics = "edge-markovian:p=0.3,q=0.3";
  request.scenario.sizes = {6};
  // Graph models take no adversaries — the server's validateScenario
  // must reject this, and the client must surface its message.
  request.scenario.adversaries = {"freeze-path:depth=3"};

  std::thread server = startServer(1);
  try {
    (void)submitRequest(dir_ + "/sock", request, nullptr);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("server:"), std::string::npos)
        << error.what();
  }
  server.join();
}

}  // namespace
}  // namespace dynbcast
