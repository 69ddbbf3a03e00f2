#include "src/service/client.h"

#include <ostream>
#include <stdexcept>

#include "src/service/job.h"
#include "src/support/parse_number.h"
#include "src/support/socket.h"

namespace dynbcast {

namespace {

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

[[nodiscard]] std::size_t parseCount(const std::string& line,
                                     const std::string& token) {
  const auto value = parseWhole<std::size_t>(token);
  if (!value) {
    throw std::runtime_error("submit: malformed server line '" + line + "'");
  }
  return *value;
}

/// "key=value" → value, enforcing the key.
[[nodiscard]] std::string valueOf(const std::string& line,
                                  const std::string& word,
                                  const std::string& key) {
  if (word.rfind(key + "=", 0) != 0) {
    throw std::runtime_error("submit: malformed server line '" + line + "'");
  }
  return word.substr(key.size() + 1);
}

}  // namespace

SubmitOutcome submitRequest(const std::string& socketPath,
                            const ServiceRequest& request,
                            std::ostream* progress) {
  LineChannel channel(connectUnix(socketPath));
  channel.writeLine(std::string(kServiceProtocol) + " SUBMIT");
  for (const std::string& line : encodeRequest(request)) {
    channel.writeLine(line);
  }
  channel.writeLine("");

  const ServiceJobPlan plan = planServiceJob(request);
  std::vector<ServiceTaskResult> results(plan.taskCount());
  std::vector<char> seen(plan.taskCount(), 0);
  SubmitOutcome outcome;
  bool done = false;

  std::string line;
  while (!done) {
    if (!channel.readLine(&line)) {
      throw std::runtime_error(
          "submit: server closed the connection mid-job");
    }
    const std::vector<std::string> words = splitWords(line);
    if (words.empty()) continue;
    if (words[0] == "ERROR") {
      throw std::runtime_error("server: " +
                               (line.size() > 6 ? line.substr(6) : line));
    }
    if (words[0] == kServiceProtocol) {
      // DYNBCAST/1 ACCEPTED job=<id> tasks=<T>
      if (words.size() != 4 || words[1] != "ACCEPTED") {
        throw std::runtime_error("submit: unexpected greeting '" + line +
                                 "'");
      }
      outcome.jobId = valueOf(line, words[2], "job");
      const std::size_t tasks =
          parseCount(line, valueOf(line, words[3], "tasks"));
      if (tasks != plan.taskCount()) {
        throw std::runtime_error(
            "submit: server plans " + std::to_string(tasks) +
            " tasks where the client plans " +
            std::to_string(plan.taskCount()) +
            " — client and server disagree about the request");
      }
      continue;
    }
    if (words[0] == "PROGRESS") {
      if (progress != nullptr) *progress << "service: " << line << '\n';
      continue;
    }
    if (words[0] == "TASK") {
      if (words.size() != 4) {
        throw std::runtime_error("submit: malformed server line '" + line +
                                 "'");
      }
      const std::size_t position = parseCount(line, words[1]);
      if (position >= plan.taskCount()) {
        throw std::runtime_error("submit: task position " +
                                 std::to_string(position) +
                                 " out of range");
      }
      results[position].rounds = parseCount(line, words[2]);
      results[position].completed = words[3] == "1";
      seen[position] = 1;
      continue;
    }
    if (words[0] == "STATS") {
      // STATS tasks=<T> resumed=<R> cache-hits=<H> executed=<E>
      if (words.size() != 5) {
        throw std::runtime_error("submit: malformed server line '" + line +
                                 "'");
      }
      outcome.tasks = parseCount(line, valueOf(line, words[1], "tasks"));
      outcome.resumed =
          parseCount(line, valueOf(line, words[2], "resumed"));
      outcome.cacheHits =
          parseCount(line, valueOf(line, words[3], "cache-hits"));
      outcome.executed =
          parseCount(line, valueOf(line, words[4], "executed"));
      continue;
    }
    if (words[0] == "DONE") {
      done = true;
      continue;
    }
    throw std::runtime_error("submit: unexpected server line '" + line +
                             "'");
  }

  for (std::size_t position = 0; position < plan.taskCount(); ++position) {
    if (seen[position] == 0) {
      throw std::runtime_error("submit: server never reported task " +
                               std::to_string(position));
    }
  }

  const std::vector<ServiceTaskResult> rowResults(
      results.begin(), results.begin() + static_cast<std::ptrdiff_t>(
                                              plan.rowCount));
  outcome.rows = assembleServiceRows(request.scenario, rowResults);
  outcome.instances =
      aggregateInstances(outcome.rows,
                         scenarioMembersPerInstance(request.scenario));
  outcome.beamRounds.reserve(plan.beamCount);
  for (std::size_t i = 0; i < plan.beamCount; ++i) {
    outcome.beamRounds.push_back(results[plan.rowCount + i].rounds);
  }
  return outcome;
}

}  // namespace dynbcast
