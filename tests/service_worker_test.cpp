// Worker-loop guarantees, including the two service acceptance
// criteria:
//
//   * checkpoint/resume — a manifest truncated at a task boundary (the
//     kill -9 damage model) resumes by re-running ONLY the unfinished
//     positions, and the final CSV is byte-identical to an
//     uninterrupted run, at --jobs=1 and --jobs=8;
//   * cache correctness — overlapping sweeps sharing a result cache
//     stay byte-identical to cold runs, and the second request executes
//     exactly the non-overlapping delta (counters exposed via
//     WorkerReport);
//   * one row path — oblivious replicates run as lockstep lane chunks in
//     the worker too, and however the job is split (ranges cutting a
//     chunk, a truncated first wave, one worker) its rows equal
//     runScenario's byte for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "src/engine/scenario.h"
#include "src/engine/task_plan.h"
#include "src/service/job.h"
#include "src/service/manifest.h"
#include "src/service/protocol.h"
#include "src/service/worker.h"
#include "src/support/file_lock.h"
#include "src/support/table.h"

namespace dynbcast {
namespace {

class ServiceWorkerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "dynbcast_worker_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);  // stale state from prior runs
    makeDirectories(dir_);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return dir_ + "/" + name;
  }

  std::string dir_;
};

/// A small graph-model request: 1 member per instance, no beam pass, so
/// positions map 1:1 onto rows.
[[nodiscard]] ServiceRequest makeRequest(std::vector<std::size_t> sizes) {
  ServiceRequest request;
  request.scenario.dynamics = "edge-markovian:p=0.3,q=0.3";
  request.scenario.sizes = std::move(sizes);
  request.scenario.seedsPerSize = 2;
  request.scenario.masterSeed = 7;
  return request;
}

void writeManifestFor(const std::string& manifestPath,
                      const ServiceRequest& request) {
  initManifest(manifestPath, canonicalRequestString(request),
               planServiceJob(request).taskCount());
}

/// The finished manifest rendered as the rows CSV — the byte-identity
/// oracle for resume and cache tests.
[[nodiscard]] std::string manifestCsv(const std::string& manifestPath,
                                      const ServiceRequest& request) {
  const auto state = loadManifest(manifestPath);
  EXPECT_TRUE(state.has_value() && state->complete());
  const std::size_t rowCount = planServiceJob(request).rowCount;
  std::vector<ServiceTaskResult> results;
  for (std::size_t p = 0; p < rowCount; ++p) {
    const auto& record = state->records[p];
    EXPECT_TRUE(record.has_value()) << "position " << p;
    results.push_back({record->rounds, record->completed});
  }
  TextTable table({"n", "seed", "member", "rounds", "completed"});
  for (const SweepRow& row : assembleServiceRows(request.scenario, results)) {
    table.row()
        .add(static_cast<std::uint64_t>(row.n))
        .add(row.instanceSeed)
        .add(row.member)
        .add(static_cast<std::uint64_t>(row.rounds))
        .add(row.completed ? "yes" : "no");
  }
  return table.renderCsv();
}

TEST_F(ServiceWorkerTest, ColdRunExecutesEverythingAndMatchesTheEngine) {
  const ServiceRequest request = makeRequest({6, 8, 10});
  const std::string manifest = path("cold.manifest");
  writeManifestFor(manifest, request);

  WorkerOptions options;
  options.manifestPath = manifest;
  const WorkerReport report = runManifestWorker(options);
  EXPECT_EQ(report.assigned, 6u);
  EXPECT_EQ(report.alreadyDone, 0u);
  EXPECT_EQ(report.cacheHits, 0u);
  EXPECT_EQ(report.executed, 6u);
  EXPECT_EQ(report.remaining, 0u);

  const auto state = loadManifest(manifest);
  ASSERT_TRUE(state.has_value());
  ASSERT_TRUE(state->complete());
  for (std::size_t p = 0; p < 6; ++p) {
    const SweepRow expected = runScenarioRow(request.scenario, p);
    ASSERT_TRUE(state->records[p].has_value());
    EXPECT_EQ(state->records[p]->rounds, expected.rounds) << p;
    EXPECT_EQ(state->records[p]->completed, expected.completed) << p;
  }
}

TEST_F(ServiceWorkerTest, TruncatedManifestResumesByteIdentically) {
  const ServiceRequest request = makeRequest({6, 8, 10});
  const std::string reference = path("reference.manifest");
  writeManifestFor(reference, request);
  WorkerOptions cold;
  cold.manifestPath = reference;
  (void)runManifestWorker(cold);
  const std::string referenceCsv = manifestCsv(reference, request);

  // Truncate at a task boundary — header plus the first three records —
  // and add a torn tail, exactly what kill -9 mid-append leaves behind.
  const auto full = readFileIfExists(reference);
  ASSERT_TRUE(full.has_value());
  std::string truncated;
  std::size_t lines = 0;
  for (const char c : *full) {
    truncated += c;
    if (c == '\n' && ++lines == 6) break;  // 3 header + 3 done lines
  }
  ASSERT_EQ(lines, 6u);
  truncated += "done 4 12";  // torn: no completed field, no newline

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    const std::string manifest =
        path("resume_jobs" + std::to_string(jobs) + ".manifest");
    writeFileDurable(manifest, truncated);

    WorkerOptions resume;
    resume.manifestPath = manifest;
    resume.jobs = jobs;
    const WorkerReport report = runManifestWorker(resume);
    EXPECT_EQ(report.assigned, 6u) << "jobs=" << jobs;
    EXPECT_EQ(report.alreadyDone, 3u) << "jobs=" << jobs;
    EXPECT_EQ(report.executed, 3u) << "jobs=" << jobs;  // only the delta
    EXPECT_EQ(report.remaining, 0u) << "jobs=" << jobs;
    EXPECT_EQ(manifestCsv(manifest, request), referenceCsv)
        << "jobs=" << jobs;
  }
}

TEST_F(ServiceWorkerTest, MaxTasksStopsAtATaskBoundaryAndResumeFinishes) {
  const ServiceRequest request = makeRequest({6, 8, 10});
  const std::string manifest = path("budget.manifest");
  writeManifestFor(manifest, request);

  WorkerOptions budget;
  budget.manifestPath = manifest;
  budget.maxTasks = 2;
  const WorkerReport first = runManifestWorker(budget);
  EXPECT_EQ(first.executed, 2u);
  EXPECT_EQ(first.remaining, 4u);
  const auto mid = loadManifest(manifest);
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(mid->doneCount, 2u);  // both checkpointed before returning

  WorkerOptions finish;
  finish.manifestPath = manifest;
  const WorkerReport second = runManifestWorker(finish);
  EXPECT_EQ(second.alreadyDone, 2u);
  EXPECT_EQ(second.executed, 4u);
  EXPECT_TRUE(loadManifest(manifest)->complete());
}

TEST_F(ServiceWorkerTest, DisjointRangesDrainOneManifest) {
  const ServiceRequest request = makeRequest({6, 8, 10});
  const std::string manifest = path("sharded.manifest");
  writeManifestFor(manifest, request);

  WorkerOptions low;
  low.manifestPath = manifest;
  low.rangeBegin = 0;
  low.rangeEnd = 3;
  WorkerOptions high;
  high.manifestPath = manifest;
  high.rangeBegin = 3;  // rangeEnd clamps to the task count
  const WorkerReport lowReport = runManifestWorker(low);
  const WorkerReport highReport = runManifestWorker(high);
  EXPECT_EQ(lowReport.assigned, 3u);
  EXPECT_EQ(highReport.assigned, 3u);
  EXPECT_EQ(lowReport.executed + highReport.executed, 6u);
  EXPECT_TRUE(loadManifest(manifest)->complete());

  // Sharded result == cold single-worker result.
  const std::string reference = path("sharded_reference.manifest");
  writeManifestFor(reference, request);
  WorkerOptions cold;
  cold.manifestPath = reference;
  (void)runManifestWorker(cold);
  EXPECT_EQ(manifestCsv(manifest, request), manifestCsv(reference, request));
}

TEST_F(ServiceWorkerTest, OverlappingSweepsExecuteOnlyTheDelta) {
  const ServiceRequest small = makeRequest({6, 8});       // 4 rows
  const ServiceRequest large = makeRequest({6, 8, 10, 12});  // 8 rows
  const std::string cacheDir = path("cache");

  // Cold CSV oracles, no cache involved.
  const std::string smallRef = path("small_ref.manifest");
  writeManifestFor(smallRef, small);
  WorkerOptions coldSmall;
  coldSmall.manifestPath = smallRef;
  (void)runManifestWorker(coldSmall);
  const std::string largeRef = path("large_ref.manifest");
  writeManifestFor(largeRef, large);
  WorkerOptions coldLarge;
  coldLarge.manifestPath = largeRef;
  (void)runManifestWorker(coldLarge);

  // First request: everything misses, everything lands in the cache.
  const std::string smallManifest = path("small.manifest");
  writeManifestFor(smallManifest, small);
  WorkerOptions first;
  first.manifestPath = smallManifest;
  first.cacheDir = cacheDir;
  const WorkerReport firstReport = runManifestWorker(first);
  EXPECT_EQ(firstReport.cacheHits, 0u);
  EXPECT_EQ(firstReport.executed, 4u);
  EXPECT_EQ(manifestCsv(smallManifest, small),
            manifestCsv(smallRef, small));

  // Second, overlapping request: exactly the non-overlapping delta runs.
  const std::string largeManifest = path("large.manifest");
  writeManifestFor(largeManifest, large);
  WorkerOptions second;
  second.manifestPath = largeManifest;
  second.cacheDir = cacheDir;
  const WorkerReport secondReport = runManifestWorker(second);
  EXPECT_EQ(secondReport.cacheHits, 4u);
  EXPECT_EQ(secondReport.executed, 4u);
  EXPECT_EQ(manifestCsv(largeManifest, large),
            manifestCsv(largeRef, large));

  // Resubmitting the first request is now pure cache: zero executions.
  const std::string again = path("small_again.manifest");
  writeManifestFor(again, small);
  WorkerOptions third;
  third.manifestPath = again;
  third.cacheDir = cacheDir;
  const WorkerReport thirdReport = runManifestWorker(third);
  EXPECT_EQ(thirdReport.cacheHits, 4u);
  EXPECT_EQ(thirdReport.executed, 0u);
  EXPECT_EQ(manifestCsv(again, small), manifestCsv(smallRef, small));
}

[[nodiscard]] std::vector<std::string> sortedLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  for (const char c : text) {
    if (c != '\n') {
      line += c;
      continue;
    }
    lines.push_back(line);
    line.clear();
  }
  if (!line.empty()) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST_F(ServiceWorkerTest, LosingTheLastGroupResumesFromTheCache) {
  // More tasks than one group: the records land as one full group of
  // kGroupCommitRecords, then the rest at exit.
  ServiceRequest request = makeRequest({6, 8, 10});
  request.scenario.seedsPerSize = 30;
  const std::size_t tasks = planServiceJob(request).taskCount();
  ASSERT_GT(tasks, kGroupCommitRecords);
  const std::string cacheDir = path("cache");
  const std::string drained = path("drained.manifest");
  writeManifestFor(drained, request);
  WorkerOptions first;
  first.manifestPath = drained;
  first.cacheDir = cacheDir;
  const WorkerReport firstReport = runManifestWorker(first);
  EXPECT_EQ(firstReport.executed, tasks);
  const std::string drainedBytes = *readFileIfExists(drained);
  const std::string drainedCsv = manifestCsv(drained, request);

  // A crash during the last commit: the manifest ends after the first
  // group (3 header lines + kGroupCommitRecords records).
  std::string truncated;
  std::size_t lines = 0;
  for (const char c : drainedBytes) {
    truncated += c;
    if (c == '\n' && ++lines == 3 + kGroupCommitRecords) break;
  }
  ASSERT_LT(truncated.size(), drainedBytes.size());

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    const std::string manifest =
        path("lost_group_jobs" + std::to_string(jobs) + ".manifest");
    writeFileDurable(manifest, truncated);
    WorkerOptions resume;
    resume.manifestPath = manifest;
    resume.cacheDir = cacheDir;
    resume.jobs = jobs;
    const WorkerReport report = runManifestWorker(resume);
    EXPECT_EQ(report.alreadyDone, kGroupCommitRecords) << "jobs=" << jobs;
    EXPECT_EQ(report.cacheHits, tasks - kGroupCommitRecords)
        << "jobs=" << jobs;
    EXPECT_EQ(report.executed, 0u) << "jobs=" << jobs;
    EXPECT_EQ(manifestCsv(manifest, request), drainedCsv) << "jobs=" << jobs;
    const auto resumed = loadManifest(manifest);
    const auto reference = loadManifest(drained);
    ASSERT_TRUE(resumed.has_value() && reference.has_value());
    for (std::size_t p = 0; p < tasks; ++p) {
      ASSERT_TRUE(resumed->records[p].has_value()) << p;
      EXPECT_EQ(resumed->records[p]->rounds, reference->records[p]->rounds);
      EXPECT_EQ(resumed->records[p]->completed,
                reference->records[p]->completed);
    }
    // Records land in completion order, so compare the files as sorted
    // line sets: the same header and the same record lines, byte for byte.
    EXPECT_EQ(sortedLines(*readFileIfExists(manifest)),
              sortedLines(drainedBytes))
        << "jobs=" << jobs;
  }
}

// --- lane chunks ------------------------------------------------------

/// A thm31-shaped request whose replicates batch: nine seeds engage auto
/// batching, three of the four members are oblivious, and the two beam
/// tasks are trivial (beamMaxN below every size).
[[nodiscard]] ServiceRequest makeBatchedRequest() {
  ServiceRequest request;
  request.scenario.sizes = {8, 16};
  request.scenario.seedsPerSize = 9;
  request.scenario.masterSeed = 3;
  request.scenario.adversaries = {"static-path", "random-tree", "k-leaf:k=2",
                                  "freeze-path:depth=1"};
  request.beamMaxN = 4;
  return request;
}

/// Runs one worker and checks its accounting: every pending task it took
/// on was either a cache hit or executed.
WorkerReport runCounted(const WorkerOptions& options) {
  const WorkerReport report = runManifestWorker(options);
  EXPECT_EQ(report.cacheHits + report.executed,
            report.assigned - report.alreadyDone - report.remaining);
  return report;
}

/// The drained manifest's rows must equal runScenario's, byte for byte.
void expectRowsMatchRunScenario(const std::string& manifestPath,
                                const ServiceRequest& request) {
  const auto state = loadManifest(manifestPath);
  ASSERT_TRUE(state.has_value() && state->complete());
  std::vector<ServiceTaskResult> results;
  for (std::size_t p = 0; p < planServiceJob(request).rowCount; ++p) {
    results.push_back({state->records[p]->rounds,
                       state->records[p]->completed});
  }
  const std::vector<SweepRow> served =
      assembleServiceRows(request.scenario, results);
  EngineConfig config;
  config.jobs = 2;
  ExperimentEngine engine(config);
  const std::vector<SweepRow> direct =
      runScenario(request.scenario, engine).rows;
  ASSERT_EQ(served.size(), direct.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i], direct[i]) << "row " << i;
  }
}

TEST_F(ServiceWorkerTest, LaneChunksDrainByteIdenticallyHoweverSplit) {
  const ServiceRequest request = makeBatchedRequest();
  const std::size_t tasks = planServiceJob(request).taskCount();
  ASSERT_EQ(tasks, 2u * 9u * 4u + 2u);
  // The first oblivious cell is positions 0, 4, …, 32: its 8-lane chunk
  // spans 0..28, so a range boundary at 10 cuts it.
  std::vector<std::size_t> all(tasks - 2);
  std::iota(all.begin(), all.end(), std::size_t{0});
  ASSERT_EQ(groupBatchable(request.scenario, all).front(),
            (RowChunk{0, 4, 8, 12, 16, 20, 24, 28}));

  // Two range workers whose boundary cuts a chunk.
  const std::string ranged = path("ranged.manifest");
  writeManifestFor(ranged, request);
  WorkerOptions low;
  low.manifestPath = ranged;
  low.cacheDir = path("ranged_cache");
  low.jobs = 3;
  low.rangeEnd = 10;
  WorkerOptions high = low;
  high.rangeBegin = 10;
  high.rangeEnd = tasks;
  EXPECT_EQ(runCounted(low).executed, 10u);
  EXPECT_EQ(runCounted(high).executed, tasks - 10);
  expectRowsMatchRunScenario(ranged, request);

  // A first wave truncated by max-tasks, then the rest.
  const std::string truncated = path("truncated.manifest");
  writeManifestFor(truncated, request);
  WorkerOptions wave;
  wave.manifestPath = truncated;
  wave.cacheDir = path("truncated_cache");
  wave.jobs = 3;
  wave.maxTasks = 13;
  const WorkerReport first = runCounted(wave);
  EXPECT_EQ(first.executed, 13u);
  EXPECT_EQ(first.remaining, tasks - 13);
  wave.maxTasks = std::numeric_limits<std::size_t>::max();
  const WorkerReport second = runCounted(wave);
  EXPECT_EQ(second.alreadyDone, 13u);
  EXPECT_EQ(second.executed, tasks - 13);
  expectRowsMatchRunScenario(truncated, request);

  // One in-process worker over everything.
  const std::string whole = path("whole.manifest");
  writeManifestFor(whole, request);
  WorkerOptions single;
  single.manifestPath = whole;
  single.jobs = 3;
  EXPECT_EQ(runCounted(single).executed, tasks);
  expectRowsMatchRunScenario(whole, request);
}

TEST_F(ServiceWorkerTest, MissingManifestThrows) {
  WorkerOptions options;
  options.manifestPath = path("nope.manifest");
  EXPECT_THROW((void)runManifestWorker(options), std::runtime_error);
}

}  // namespace
}  // namespace dynbcast
