// Durable, multi-process-safe file appends for the service layer.
//
// The run manifest and the result-cache buckets are shared by the server
// and N worker processes, all appending records concurrently. Two
// primitives make that safe and durable:
//
//   * FileLock — RAII flock(2) on a file descriptor: exclusive for
//     appends, shared for consistent whole-file reads. Advisory, which
//     is sufficient — every writer in this repo goes through these
//     helpers.
//   * appendLinesDurable — open O_APPEND, take the exclusive lock, write
//     a whole group of records in ONE write(2) call (O_APPEND makes the
//     offset atomic between processes), then fsync once before
//     releasing. When it returns, every record in the group survives a
//     kill -9 of the caller; a kill mid-call leaves a prefix of the
//     group plus at worst one torn tail line, which the manifest/cache
//     readers tolerate by skipping unparseable records.
//     appendLineDurable is the one-record group.
//
// Checkpointing is exactly this contract: a task is "done" once its
// record is fsynced, and never before. Callers choose the group size:
// the manifest commits many records per fsync (src/service/worker.h),
// each cache put commits one.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace dynbcast {

/// RAII advisory lock (flock) on an open descriptor. Blocks until the
/// lock is granted; unlocks on destruction.
class FileLock {
 public:
  enum class Mode { kShared, kExclusive };
  FileLock(int fd, Mode mode);
  ~FileLock();
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  int fd_;
};

/// Appends `line` (a trailing '\n' is added) to `path`, creating the
/// file if needed, under an exclusive flock, and fsyncs before
/// returning. Throws std::runtime_error on I/O failure.
void appendLineDurable(const std::string& path, const std::string& line);

/// appendLineDurable for a group: one open, one exclusive flock, one
/// torn-tail check, one write(2) of every line (each '\n'-terminated)
/// and one fsync. An empty group touches nothing.
void appendLinesDurable(const std::string& path,
                        const std::vector<std::string>& lines);

/// Writes `content` to `path` (create or truncate) under an exclusive
/// flock and fsyncs before returning. The whole-file analogue of
/// appendLineDurable, for one-shot headers.
void writeFileDurable(const std::string& path, const std::string& content);

/// Reads the whole file under a shared flock. Returns std::nullopt when
/// the file does not exist; throws on other I/O failures.
[[nodiscard]] std::optional<std::string> readFileIfExists(
    const std::string& path);

/// mkdir -p. Throws std::runtime_error on failure (existing is fine).
void makeDirectories(const std::string& path);

}  // namespace dynbcast
