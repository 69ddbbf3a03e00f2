// The spec-keyed result cache: on-disk bucket files with an in-memory
// LRU in front.
//
// A task's result is a pure function of its cache key — the canonical
// spec context plus the position-derived seed (see serviceTaskKey in
// src/service/job.h) — so results can be reused across requests,
// restarts, and processes. Storage is deliberately primitive:
//
//   <dir>/bucket-<XX>.cache       XX = low byte of the key's FNV-1a hash
//
// where each bucket is an append-only line file,
//
//   <key-hash-hex> <rounds> <0|1> <key...>
//
// appended durably (flock + fsync, src/support/file_lock.h) so workers
// in different processes can write concurrently. Keys may contain
// spaces, hence last-field position; the leading hash makes the scan
// cheap (lines are compared on it in place, and only a line whose hash
// matches is parsed) and the full key comparison makes it exact.
// Duplicate lines are harmless (determinism: same key, same value).
//
// Ordering with the manifest: every put() is its own fsynced append and
// completes before the task's `done` record is even buffered for the
// manifest's group commit (src/service/worker.h). The cache is therefore
// always durable ahead of the manifest, which is what lets a crash that
// loses an uncommitted manifest group cost only cache hits on resume.
//
// The LRU layer exists to avoid re-reading bucket files: a get() miss
// scans one bucket from disk, a hit costs a hash lookup. Entries are
// tiny (key string + two integers), so the default capacity is generous.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/support/mutex.h"
#include "src/support/thread_annotations.h"

namespace dynbcast {

class ResultCache {
 public:
  struct Value {
    std::size_t rounds = 0;
    bool completed = false;
  };

  /// `directory` is created if missing; an EMPTY directory string
  /// disables the cache entirely (get always misses, put is a no-op) —
  /// the manifest-only execution mode.
  explicit ResultCache(std::string directory,
                       std::size_t memoryCapacity = 65536);

  [[nodiscard]] bool enabled() const noexcept { return !directory_.empty(); }

  /// Looks the key up in the LRU, then in its bucket file. Thread-safe.
  [[nodiscard]] std::optional<Value> get(const std::string& key);

  /// Durably appends the entry to its bucket file and remembers it in
  /// the LRU. Thread- and multi-process-safe.
  void put(const std::string& key, const Value& value);

 private:
  struct Entry {
    std::string key;
    Value value;
  };

  [[nodiscard]] std::string bucketPath(std::uint64_t keyHash) const;
  void remember(const std::string& key, const Value& value)
      REQUIRES(mutex_);

  std::string directory_;
  std::size_t capacity_;
  Mutex mutex_;
  /// Front = most recently used.
  std::list<Entry> lru_ GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      GUARDED_BY(mutex_);
};

}  // namespace dynbcast
