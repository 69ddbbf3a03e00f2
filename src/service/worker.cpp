#include "src/service/worker.h"

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/engine/experiment_engine.h"
#include "src/service/cache.h"
#include "src/service/job.h"
#include "src/service/manifest.h"
#include "src/service/protocol.h"
#include "src/support/assert.h"
#include "src/support/mutex.h"
#include "src/support/thread_annotations.h"

namespace dynbcast {

namespace {

/// The worker's group commit. Finished records wait here until
/// kGroupCommitRecords of them are buffered, then go to the manifest as
/// one appendTaskRecords group (one write, one fsync). The commit runs
/// under the buffer lock, so a worker never holds more than one
/// uncommitted group.
class RecordGroup {
 public:
  explicit RecordGroup(const std::string& manifestPath)
      : manifestPath_(manifestPath) {}

  void add(const TaskRecord& record) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    buffer_.push_back(record);
    if (buffer_.size() >= kGroupCommitRecords) commitLocked();
  }

  /// Commits whatever is buffered (the run's last, partial group).
  void commit() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    commitLocked();
  }

 private:
  void commitLocked() REQUIRES(mutex_) {
    std::vector<TaskRecord> group;
    group.swap(buffer_);
    appendTaskRecords(manifestPath_, group);
  }

  const std::string& manifestPath_;
  Mutex mutex_;
  std::vector<TaskRecord> buffer_ GUARDED_BY(mutex_);
};

}  // namespace

WorkerReport runManifestWorker(const WorkerOptions& options) {
  const std::optional<ManifestState> manifest =
      loadManifest(options.manifestPath);
  if (!manifest.has_value()) {
    throw std::runtime_error("worker: no manifest at " +
                             options.manifestPath);
  }
  const ServiceRequest request =
      decodeCanonicalRequest(manifest->canonicalRequest);
  const ServiceTaskKeys keys(request);
  if (keys.plan().taskCount() != manifest->taskCount) {
    throw std::runtime_error(
        "worker: manifest " + options.manifestPath + " declares " +
        std::to_string(manifest->taskCount) + " tasks but its request " +
        "plans to " + std::to_string(keys.plan().taskCount()));
  }

  WorkerReport report;
  const std::size_t rangeEnd = options.rangeEnd < manifest->taskCount
                                   ? options.rangeEnd
                                   : manifest->taskCount;
  const std::size_t rangeBegin =
      options.rangeBegin < rangeEnd ? options.rangeBegin : rangeEnd;
  report.assigned = rangeEnd - rangeBegin;

  std::vector<std::size_t> pending =
      manifest->pending(rangeBegin, rangeEnd);
  report.alreadyDone = report.assigned - pending.size();
  if (pending.size() > options.maxTasks) {
    report.remaining = pending.size() - options.maxTasks;
    pending.resize(options.maxTasks);
  }
  if (pending.empty()) return report;

  ResultCache cache(options.cacheDir);
  RecordGroup group(options.manifestPath);
  std::atomic<std::size_t> cacheHits{0};
  std::atomic<std::size_t> executed{0};

  EngineConfig config;
  config.jobs = options.jobs;
  ExperimentEngine engine(config);
  // The durability contract: a task is "done" once its record is in a
  // committed (fsynced) group, and only then. A result is put into the
  // cache — its own fsync — before its record enters the group, so the
  // cache is always durable ahead of the manifest: a crash loses at most
  // the one uncommitted group, and each record in it comes back as a
  // cache hit on resume. If a task throws, the tasks that finished are
  // still committed before the exception propagates.
  try {
    // The seeds map() derives are unused — every task derives its own
    // seeds from (request, position), which is what makes re-execution
    // by any process byte-identical.
    (void)engine.map<char>(
        pending.size(), 0, [&](std::size_t index, std::uint64_t) -> char {
          const std::size_t position = pending[index];
          const std::string key = keys.key(position);
          ServiceTaskResult result;
          if (const auto hit = cache.get(key); hit.has_value()) {
            result.rounds = hit->rounds;
            result.completed = hit->completed;
            cacheHits.fetch_add(1, std::memory_order_relaxed);
          } else {
            result = executeServiceTask(request, position);
            cache.put(key, {result.rounds, result.completed});
            executed.fetch_add(1, std::memory_order_relaxed);
          }
          group.add({position, result.rounds, result.completed});
          return 0;
        });
  } catch (...) {
    group.commit();
    throw;
  }
  group.commit();

  report.cacheHits = cacheHits.load(std::memory_order_relaxed);
  report.executed = executed.load(std::memory_order_relaxed);
  DYNBCAST_ASSERT(report.cacheHits + report.executed == pending.size());
  return report;
}

}  // namespace dynbcast
