#include "src/service/manifest.h"

#include <stdexcept>

#include "src/support/file_lock.h"
#include "src/support/parse_number.h"

namespace dynbcast {

namespace {

[[nodiscard]] bool parseSizeT(const std::string& token, std::size_t* out) {
  const auto value = parseWhole<std::size_t>(token);
  if (!value) return false;
  *out = *value;
  return true;
}

/// Splits on '\n'; a missing trailing newline leaves the torn tail as
/// the final element so the caller can treat it as damage.
[[nodiscard]] std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
      continue;
    }
    current += c;
  }
  if (!current.empty()) lines.push_back(current);
  return lines;
}

[[nodiscard]] std::vector<std::string> splitWords(const std::string& line) {
  std::vector<std::string> words;
  std::string current;
  for (const char c : line) {
    if (c == ' ') {
      if (!current.empty()) words.push_back(current);
      current.clear();
      continue;
    }
    current += c;
  }
  if (!current.empty()) words.push_back(current);
  return words;
}

}  // namespace

std::vector<std::size_t> ManifestState::pending(std::size_t begin,
                                                std::size_t end) const {
  std::vector<std::size_t> positions;
  const std::size_t stop = end < taskCount ? end : taskCount;
  for (std::size_t p = begin; p < stop; ++p) {
    if (!records[p].has_value()) positions.push_back(p);
  }
  return positions;
}

void initManifest(const std::string& path,
                  const std::string& canonicalRequest,
                  std::size_t taskCount) {
  std::string header;
  header += kManifestVersion;
  header += "\nrequest ";
  header += canonicalRequest;
  header += "\ntasks ";
  header += std::to_string(taskCount);
  header += '\n';
  writeFileDurable(path, header);
}

std::optional<ManifestState> loadManifest(const std::string& path) {
  const std::optional<std::string> content = readFileIfExists(path);
  if (!content.has_value()) return std::nullopt;
  const std::vector<std::string> lines = splitLines(*content);
  if (lines.size() < 3 || lines[0] != kManifestVersion ||
      lines[1].rfind("request ", 0) != 0 ||
      lines[2].rfind("tasks ", 0) != 0) {
    throw std::runtime_error("manifest " + path +
                             ": corrupt or unsupported header");
  }
  ManifestState state;
  state.canonicalRequest = lines[1].substr(8);
  if (!parseSizeT(lines[2].substr(6), &state.taskCount)) {
    throw std::runtime_error("manifest " + path + ": bad task count '" +
                             lines[2] + "'");
  }
  state.records.resize(state.taskCount);
  for (std::size_t i = 3; i < lines.size(); ++i) {
    // Damage tolerance: a writer killed mid-append leaves one torn tail
    // line. Skip anything that does not parse as a full record — the
    // task it would have named simply re-runs on resume.
    const std::vector<std::string> words = splitWords(lines[i]);
    TaskRecord record;
    std::size_t completed = 0;
    if (words.size() != 4 || words[0] != "done" ||
        !parseSizeT(words[1], &record.position) ||
        !parseSizeT(words[2], &record.rounds) ||
        !parseSizeT(words[3], &completed) || completed > 1 ||
        record.position >= state.taskCount) {
      continue;
    }
    record.completed = completed == 1;
    if (state.records[record.position].has_value()) continue;
    state.records[record.position] = record;
    state.doneCount += 1;
  }
  return state;
}

void appendTaskRecord(const std::string& path, const TaskRecord& record) {
  appendTaskRecords(path, {record});
}

void appendTaskRecords(const std::string& path,
                       const std::vector<TaskRecord>& records) {
  std::vector<std::string> lines;
  lines.reserve(records.size());
  for (const TaskRecord& record : records) {
    lines.push_back("done " + std::to_string(record.position) + ' ' +
                    std::to_string(record.rounds) + ' ' +
                    (record.completed ? "1" : "0"));
  }
  appendLinesDurable(path, lines);
}

}  // namespace dynbcast
