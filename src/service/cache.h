// The spec-keyed result cache: append-only bucket files on disk.
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
// There is no in-memory layer: every get() scans one bucket file. Each
// caller looks a key up at most once (the server's pre-pass only gets;
// a worker gets, then puts on a miss), and a finished job is answered
// from its manifest without touching the cache (src/service/server.h).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

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
  explicit ResultCache(std::string directory);

  [[nodiscard]] bool enabled() const noexcept { return !directory_.empty(); }

  /// Scans the key's bucket file. Thread- and multi-process-safe.
  [[nodiscard]] std::optional<Value> get(const std::string& key) const;

  /// Durably appends the entry to its bucket file. Thread- and
  /// multi-process-safe.
  void put(const std::string& key, const Value& value) const;

 private:
  [[nodiscard]] std::string bucketPath(std::uint64_t keyHash) const;

  std::string directory_;
};

}  // namespace dynbcast
