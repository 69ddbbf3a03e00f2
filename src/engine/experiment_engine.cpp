#include "src/engine/experiment_engine.h"

#include <algorithm>
#include <cctype>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "src/adversary/adversary.h"
#include "src/support/assert.h"
#include "src/support/spec.h"

namespace dynbcast {

BatchPolicy parseBatchPolicy(const std::string& text) {
  if (text == "auto") return {BatchPolicy::Mode::kAuto, 0};
  if (text == "off") return {BatchPolicy::Mode::kOff, 0};
  const bool numeric =
      !text.empty() &&
      std::all_of(text.begin(), text.end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
      });
  if (numeric) {
    constexpr std::size_t kMaxWidth = 4096;
    std::size_t width = 0;
    for (const char c : text) {
      width = width * 10 + static_cast<std::size_t>(c - '0');
      if (width > kMaxWidth) break;
    }
    if (width >= 1 && width <= kMaxWidth) {
      return {BatchPolicy::Mode::kFixed, width};
    }
    throw std::invalid_argument("batch: lane width must be between 1 and " +
                                std::to_string(kMaxWidth) + " (got '" + text +
                                "')");
  }
  std::string message = "unknown batch policy '" + text + "'";
  const std::string suggestion = closestMatch(text, {"auto", "off"});
  if (!suggestion.empty()) message += "; did you mean '" + suggestion + "'?";
  message += " (expected auto, off, or a lane width like 8)";
  throw std::invalid_argument(message);
}

std::string batchPolicyName(const BatchPolicy& policy) {
  switch (policy.mode) {
    case BatchPolicy::Mode::kOff:
      return "off";
    case BatchPolicy::Mode::kFixed:
      return std::to_string(policy.width);
    case BatchPolicy::Mode::kAuto:
      break;
  }
  return "auto";
}

std::vector<RowChunk> groupLaneChunks(
    const RowGrid& grid, const std::vector<std::size_t>& positions,
    const BatchPolicy& policy,
    const std::function<bool(std::size_t position)>& oblivious) {
  DYNBCAST_ASSERT(policy.mode != BatchPolicy::Mode::kFixed ||
                  policy.width >= 1);
  std::size_t laneWidth = 1;
  if (policy.mode == BatchPolicy::Mode::kFixed) laneWidth = policy.width;
  if (policy.mode == BatchPolicy::Mode::kAuto &&
      grid.replicates >= BatchPolicy::kAutoWidth) {
    laneWidth = BatchPolicy::kAutoWidth;
  }
  // Bucket the positions by (size, member) cell; each bucket stays
  // ascending because the input is.
  std::vector<RowChunk> cells(grid.sizes * grid.members);
  for (const std::size_t position : positions) {
    DYNBCAST_ASSERT(position < cells.size() * grid.replicates);
    const std::size_t instance = position / grid.members;
    cells[instance / grid.replicates * grid.members +
          position % grid.members]
        .push_back(position);
  }
  std::vector<RowChunk> chunks;
  for (const RowChunk& cell : cells) {
    const std::size_t lanes =
        laneWidth > 1 && cell.size() > 1 && oblivious(cell.front())
            ? laneWidth
            : 1;
    for (std::size_t i = 0; i < cell.size(); i += lanes) {
      const std::size_t end = std::min(cell.size(), i + lanes);
      chunks.emplace_back(cell.begin() + static_cast<std::ptrdiff_t>(i),
                          cell.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  return chunks;
}

void runBroadcastLanes(std::vector<SweepRow>* rows,
                       const std::vector<std::unique_ptr<Adversary>>& lanes,
                       std::size_t roundCap, bool recordHistory) {
  DYNBCAST_ASSERT(rows->size() == lanes.size());
  const std::size_t n = rows->front().n;
  const std::size_t cap = roundCap != 0 ? roundCap : defaultRoundCap(n);
  std::vector<BroadcastRun> runs;
  if (lanes.size() == 1) {
    runs.push_back(runAdversary(n, *lanes.front(), cap, recordHistory));
  } else {
    DYNBCAST_ASSERT(!recordHistory);  // batches never record history
    std::vector<Adversary*> raw;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      DYNBCAST_ASSERT((*rows)[i].n == n);
      raw.push_back(lanes[i].get());
    }
    runs = runObliviousBatch(n, raw, cap);
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    (*rows)[i].rounds = runs[i].rounds;
    (*rows)[i].completed = runs[i].completed;
    (*rows)[i].history = std::move(runs[i].history);
  }
}

std::vector<SweepInstance> aggregateInstances(const std::vector<SweepRow>& rows,
                                              std::size_t members) {
  DYNBCAST_ASSERT(members > 0 && rows.size() % members == 0);
  std::vector<SweepInstance> instances;
  instances.reserve(rows.size() / members);
  for (std::size_t first = 0; first < rows.size(); first += members) {
    SweepInstance aggregate;
    aggregate.n = rows[first].n;
    aggregate.seedIndex = rows[first].seedIndex;
    aggregate.instanceSeed = rows[first].instanceSeed;
    for (std::size_t m = first; m < first + members; ++m) {
      const SweepRow& row = rows[m];
      // History stays in rows only — copying the per-round metrics here
      // would double the sweep's dominant allocation at large n.
      aggregate.portfolio.entries.push_back(
          {row.member, row.rounds, row.completed, {}});
      if (row.completed && row.rounds > aggregate.portfolio.bestRounds) {
        aggregate.portfolio.bestRounds = row.rounds;
        aggregate.portfolio.bestName = row.member;
      }
    }
    instances.push_back(std::move(aggregate));
  }
  return instances;
}

ExperimentEngine::ExperimentEngine(EngineConfig config)
    : config_(config), pool_(config.jobs) {}

std::vector<SweepRow> ExperimentEngine::runChunks(
    std::size_t rowCount, const std::vector<RowChunk>& chunks,
    const std::function<std::vector<SweepRow>(const RowChunk&)>& runChunk) {
  std::vector<SweepRow> rows(rowCount);
  pool_.parallelFor(chunks.size(), [&](std::size_t c) {
    std::vector<SweepRow> out = runChunk(chunks[c]);
    DYNBCAST_ASSERT(out.size() == chunks[c].size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      rows[chunks[c][i]] = std::move(out[i]);
    }
  });
  return rows;
}

SweepResult ExperimentEngine::runSweep(const SweepSpec& spec) {
  DYNBCAST_ASSERT(spec.seedsPerSize > 0);
  const auto portfolio =
      spec.portfolio
          ? spec.portfolio
          : [](std::size_t n, std::uint64_t seed) {
              return standardPortfolio(n, seed);
            };

  // Plan phase (serial, cheap): materialize each instance's member list,
  // so every row has a fixed position before any runs. Instance seeds are
  // position-derived — replicate r of sizes[s] always gets
  // SeedSequence.at(s*R + r).
  const SeedSequence seeds(spec.masterSeed);
  RowGrid grid{spec.sizes.size(), spec.seedsPerSize, 0};
  std::vector<std::vector<PortfolioMember>> members(grid.sizes *
                                                    grid.replicates);
  for (std::size_t i = 0; i < members.size(); ++i) {
    members[i] = portfolio(spec.sizes[i / grid.replicates], seeds.at(i));
    const std::vector<PortfolioMember>& first = members.front();
    DYNBCAST_ASSERT(members[i].size() == first.size());
    for (std::size_t m = 0; m < first.size(); ++m) {
      DYNBCAST_ASSERT(members[i][m].name == first[m].name);
    }
  }
  if (members.empty()) return {};
  grid.members = members.front().size();

  std::vector<std::size_t> positions(members.size() * grid.members);
  std::iota(positions.begin(), positions.end(), std::size_t{0});
  const bool recordHistory =
      spec.recordHistory.value_or(config_.recordHistory);
  const auto member = [&](std::size_t position) -> const PortfolioMember& {
    return members[position / grid.members][position % grid.members];
  };
  const std::vector<RowChunk> chunks = groupLaneChunks(
      grid, positions,
      recordHistory ? BatchPolicy{BatchPolicy::Mode::kOff, 0} : spec.batch,
      [&](std::size_t position) {
        return member(position).make()->oblivious();
      });

  SweepResult result;
  result.rows = runChunks(positions.size(), chunks, [&](const RowChunk& chunk) {
    std::vector<SweepRow> rows(chunk.size());
    std::vector<std::unique_ptr<Adversary>> lanes;
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      const std::size_t instance = chunk[i] / grid.members;
      rows[i].n = spec.sizes[instance / grid.replicates];
      rows[i].seedIndex = instance % grid.replicates;
      rows[i].instanceSeed = seeds.at(instance);
      rows[i].member = member(chunk[i]).name;
      lanes.push_back(member(chunk[i]).make());
    }
    runBroadcastLanes(&rows, lanes, spec.roundCap, recordHistory);
    return rows;
  });
  result.instances = aggregateInstances(result.rows, grid.members);
  return result;
}

}  // namespace dynbcast
