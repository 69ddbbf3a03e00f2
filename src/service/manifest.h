// The run manifest: a job's durable checkpoint log.
//
// One manifest file per job, append-only after its header:
//
//   DYNBCAST-MANIFEST/1
//   request <canonical request string>     (protocol.h canonical form)
//   tasks <T>
//   done <position> <rounds> <0|1>         (one line per finished task)
//
// The header is written once (durably) when the job is planned. `done`
// records are group-committed: appendTaskRecords writes a whole group
// with one write and one fsync (the server's cache pre-pass is one
// group; a worker commits every kGroupCommitRecords results and at exit,
// src/service/worker.h). A record is readable as "done" only once its
// group is fsynced, so "in the manifest" and "survives kill -9" are
// still the same property. What a crash can lose is the group in flight
// (plus tasks still executing): at most one group per writer. Every lost
// record's result was put durably into the result cache before the
// record was buffered, so on resume it comes back as a cache hit, not a
// re-execution. Records may arrive from several worker processes —
// O_APPEND plus the exclusive flock keeps groups whole and unmixed — and
// in any order, since a task's position fully determines where its row
// lands.
//
// Loading tolerates exactly the damage an interrupted writer can cause:
// a torn final line (skipped — that task simply resumes) and duplicate
// records (identical by determinism; the first wins). Anything else —
// wrong version, missing header, out-of-range position — is corruption
// and throws.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dynbcast {

inline constexpr char kManifestVersion[] = "DYNBCAST-MANIFEST/1";

/// One finished task: its grid position and what it computed. `rounds`
/// and `completed` mirror SweepRow's fields (for beam tasks, rounds is
/// the verified witness round count, 0 when none found or skipped).
struct TaskRecord {
  std::size_t position = 0;
  std::size_t rounds = 0;
  bool completed = false;
};

/// A manifest parsed back into memory: the job identity plus per-position
/// completion state.
struct ManifestState {
  std::string canonicalRequest;
  std::size_t taskCount = 0;
  /// Indexed by position; nullopt = not finished yet.
  std::vector<std::optional<TaskRecord>> records;
  std::size_t doneCount = 0;

  [[nodiscard]] bool complete() const noexcept {
    return doneCount == taskCount;
  }

  /// Unfinished positions within [begin, min(end, taskCount)), ascending.
  [[nodiscard]] std::vector<std::size_t> pending(std::size_t begin,
                                                 std::size_t end) const;
};

/// Writes (or truncates to) a fresh manifest header, durably.
void initManifest(const std::string& path,
                  const std::string& canonicalRequest,
                  std::size_t taskCount);

/// Loads and parses a manifest; nullopt when the file does not exist.
/// Throws std::runtime_error on a corrupt or version-mismatched header.
[[nodiscard]] std::optional<ManifestState> loadManifest(
    const std::string& path);

/// Appends a group of completion records with one write and one fsync
/// (appendLinesDurable); every record is durable when it returns. Safe
/// from concurrent processes. An empty group is a no-op.
void appendTaskRecords(const std::string& path,
                       const std::vector<TaskRecord>& records);

/// appendTaskRecords for a single record.
void appendTaskRecord(const std::string& path, const TaskRecord& record);

}  // namespace dynbcast
