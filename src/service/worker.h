// The manifest worker: executes a job's unfinished tasks and checkpoints
// each one durably.
//
// This is the execution half of `dynbcast serve` — and a standalone
// subcommand (`dynbcast work --manifest=...`), which is exactly how the
// server shards a job across processes: it spawns N copies of the
// binary, each owning a disjoint position range of the same manifest.
// Workers share nothing but the filesystem: the manifest header tells
// them WHAT the job is (the canonical request string round-trips into a
// ServiceRequest), the `done` records tell them what's left, and a task
// counts as finished only once its record is fsynced. Records are
// group-committed: one fsync per kGroupCommitRecords finished tasks and
// one for the rest at exit, instead of one per task. Each result is put
// durably into the result cache before its record is buffered, so a
// worker killed at any moment loses at most its tasks in flight plus
// one uncommitted group, and every lost record resumes as a cache hit
// (without a cache — manifest-only mode — it re-executes instead).
// Rerunning any worker over the same range is always safe and lands
// byte-identical records.
//
// Pending row positions are chunked with groupBatchable, the same plan
// transform runScenario uses, so oblivious replicates run as lockstep
// lanes here too: each chunk's lanes are looked up in the cache and only
// the misses execute, as one chunk (executeServiceChunk → runRowChunk).
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace dynbcast {

/// Finished-task records per manifest group commit (one write + fsync).
/// A crash loses at most this many records per worker, each of which
/// resumes as a cache hit.
inline constexpr std::size_t kGroupCommitRecords = 64;

struct WorkerOptions {
  std::string manifestPath;
  /// Result-cache directory; empty disables the cache (manifest-only).
  std::string cacheDir;
  /// Worker threads for task execution (0 = one per core).
  std::size_t jobs = 1;
  /// Position range [rangeBegin, rangeEnd) this worker owns; the end is
  /// clamped to the manifest's task count.
  std::size_t rangeBegin = 0;
  std::size_t rangeEnd = std::numeric_limits<std::size_t>::max();
  /// Fault injection for checkpoint tests: process at most this many
  /// pending tasks, then return — the manifest state is then exactly
  /// what a worker killed at a task boundary leaves behind.
  std::size_t maxTasks = std::numeric_limits<std::size_t>::max();
};

struct WorkerReport {
  /// Tasks in this worker's range.
  std::size_t assigned = 0;
  /// Range tasks already recorded done when the worker started.
  std::size_t alreadyDone = 0;
  /// Pending tasks satisfied from the result cache (no execution).
  std::size_t cacheHits = 0;
  /// Pending tasks actually executed.
  std::size_t executed = 0;
  /// Range tasks still pending on return (nonzero only under maxTasks).
  std::size_t remaining = 0;
};

/// Runs the worker loop to completion (or the maxTasks budget). Throws
/// std::runtime_error on a missing/corrupt manifest and
/// std::invalid_argument when its request no longer decodes.
[[nodiscard]] WorkerReport runManifestWorker(const WorkerOptions& options);

}  // namespace dynbcast
