#include "src/service/cache.h"

#include <string_view>
#include <utility>

#include "src/service/protocol.h"
#include "src/support/file_lock.h"
#include "src/support/parse_number.h"

namespace dynbcast {

namespace {

/// Parses what follows a bucket line's `<hash16> ` prefix:
/// `<rounds> <0|1> <key...>`. Returns false on damage (torn tail line,
/// garbage) — the entry is simply not found and gets recomputed.
[[nodiscard]] bool parseBucketFields(std::string_view fields,
                                     ResultCache::Value* value,
                                     std::string_view* key) {
  const std::size_t s1 = fields.find(' ');
  if (s1 == std::string_view::npos) return false;
  const std::size_t s2 = fields.find(' ', s1 + 1);
  if (s2 == std::string_view::npos) return false;
  const std::string_view roundsText = fields.substr(0, s1);
  const std::string_view completedText = fields.substr(s1 + 1, s2 - s1 - 1);
  if (completedText != "0" && completedText != "1") return false;
  const auto rounds = parseWhole<std::size_t>(roundsText);
  if (!rounds) return false;
  value->rounds = *rounds;
  value->completed = completedText == "1";
  *key = fields.substr(s2 + 1);
  return true;
}

}  // namespace

ResultCache::ResultCache(std::string directory)
    : directory_(std::move(directory)) {
  if (enabled()) makeDirectories(directory_);
}

std::string ResultCache::bucketPath(std::uint64_t keyHash) const {
  static const char kDigits[] = "0123456789abcdef";
  std::string name = "bucket-00.cache";
  name[7] = kDigits[(keyHash >> 4) & 0xf];
  name[8] = kDigits[keyHash & 0xf];
  return directory_ + '/' + name;
}

std::optional<ResultCache::Value> ResultCache::get(
    const std::string& key) const {
  if (!enabled()) return std::nullopt;
  const std::uint64_t keyHash = fnv1a64(key);
  // A shared-locked whole-file read, so a concurrent appender can't hand
  // us half a line except as the torn tail the field parse rejects.
  const std::optional<std::string> bucket =
      readFileIfExists(bucketPath(keyHash));
  if (!bucket.has_value()) return std::nullopt;
  // Only lines whose 16-hex hash field matches in place are parsed;
  // every other line costs one comparison and no copy.
  const std::string wantPrefix = hex64(keyHash) + ' ';
  const std::string_view text(*bucket);
  std::size_t lineStart = 0;
  while (lineStart < text.size()) {
    std::size_t lineEnd = text.find('\n', lineStart);
    if (lineEnd == std::string_view::npos) lineEnd = text.size();
    const std::string_view line = text.substr(lineStart, lineEnd - lineStart);
    lineStart = lineEnd + 1;
    if (line.substr(0, wantPrefix.size()) != wantPrefix) continue;
    Value value;
    std::string_view entryKey;
    if (!parseBucketFields(line.substr(wantPrefix.size()), &value,
                           &entryKey) ||
        entryKey != key) {
      continue;
    }
    return value;
  }
  return std::nullopt;
}

void ResultCache::put(const std::string& key, const Value& value) const {
  if (!enabled()) return;
  const std::uint64_t keyHash = fnv1a64(key);
  appendLineDurable(bucketPath(keyHash),
                    hex64(keyHash) + ' ' + std::to_string(value.rounds) +
                        ' ' + (value.completed ? "1" : "0") + ' ' + key);
}

}  // namespace dynbcast
