#include "src/engine/task_plan.h"

#include <memory>
#include <utility>

#include "src/adversary/adversary.h"
#include "src/adversary/beam.h"
#include "src/adversary/registry.h"
#include "src/dynamics/registry.h"
#include "src/sim/gossip.h"
#include "src/support/assert.h"
#include "src/support/seed_sequence.h"

namespace dynbcast {

namespace {

/// Member-index seed decorrelation for graph-model runs: a fixed odd
/// multiplier on the member index (seeds stay position-derived, so any
/// job count — or worker process — reproduces them). Graph models have
/// one member, so memberIndex is always 0 here; the formula stays
/// because it fixes every committed graph-model row.
[[nodiscard]] std::uint64_t memberSeed(std::uint64_t instanceSeed,
                                       std::size_t memberIndex) {
  return instanceSeed ^ (0x9e3779b97f4a7c15ull * (memberIndex + 1));
}

}  // namespace

std::vector<std::string> resolvedScenarioMemberSpecs(
    const ScenarioSpec& spec) {
  const DynamicsSpec dynamics = DynamicsSpec::parse(spec.dynamics);
  const DynamicsInfo& entry =
      DynamicsRegistry::instance().info(dynamics.name);
  // Canonicalize through the axis each spec actually belongs to, so the
  // returned strings are stable cache-key components.
  if (entry.mode == DynamicsMode::kGraphModel) {
    return {dynamics.toString()};
  }
  std::vector<std::string> texts = spec.adversaries.empty()
                                       ? defaultAdversarySpecs(spec.dynamics)
                                       : spec.adversaries;
  for (std::string& text : texts) {
    text = AdversarySpec::parse(text).toString();
  }
  return texts;
}

std::size_t scenarioMembersPerInstance(const ScenarioSpec& spec) {
  return resolvedScenarioMemberSpecs(spec).size();
}

std::size_t scenarioRowCount(const ScenarioSpec& spec) {
  return spec.sizes.size() * spec.seedsPerSize *
         scenarioMembersPerInstance(spec);
}

ScenarioRowPlan planScenarioRow(const ScenarioSpec& spec,
                                std::size_t position) {
  return planScenarioRow(spec, resolvedScenarioMemberSpecs(spec), position);
}

ScenarioRowPlan planScenarioRow(const ScenarioSpec& spec,
                                const std::vector<std::string>& members,
                                std::size_t position) {
  const std::size_t width = members.size();
  DYNBCAST_ASSERT(width > 0 && spec.seedsPerSize > 0);
  DYNBCAST_ASSERT(position < spec.sizes.size() * spec.seedsPerSize * width);
  ScenarioRowPlan plan;
  plan.position = position;
  plan.memberIndex = position % width;
  const std::size_t instance = position / width;
  plan.seedIndex = instance % spec.seedsPerSize;
  plan.sizeIndex = instance / spec.seedsPerSize;
  plan.n = spec.sizes[plan.sizeIndex];
  plan.instanceSeed = SeedSequence(spec.masterSeed).at(instance);
  plan.memberSpec = members[plan.memberIndex];
  return plan;
}

bool scenarioRowRunsSparse(const ScenarioSpec& spec,
                           const DynamicsInfo& dynamics, std::size_t n) {
  if (dynamics.mode != DynamicsMode::kGraphModel) return false;
  return spec.backend == BackendChoice::kSparse ||
         (spec.backend == BackendChoice::kAuto && dynamics.sparseCapable &&
          !spec.recordHistory && n > kAutoSparseThreshold);
}

std::vector<RowChunk> groupBatchable(
    const ScenarioSpec& spec, const std::vector<std::size_t>& positions) {
  const std::vector<std::string> members = resolvedScenarioMemberSpecs(spec);
  const DynamicsInfo& entry = DynamicsRegistry::instance().info(
      DynamicsSpec::parse(spec.dynamics).name);
  const bool eligible = spec.objective == Objective::kBroadcast &&
                        entry.mode == DynamicsMode::kAdversaryTrees &&
                        !spec.recordHistory;
  return groupLaneChunks(
      {spec.sizes.size(), spec.seedsPerSize, members.size()}, positions,
      eligible ? spec.batch : BatchPolicy{BatchPolicy::Mode::kOff, 0},
      [&](std::size_t position) {
        const ScenarioRowPlan plan = planScenarioRow(spec, members, position);
        return AdversaryRegistry::instance()
            .make(plan.memberSpec, plan.n, plan.instanceSeed)
            ->oblivious();
      });
}

std::vector<SweepRow> runRowChunk(const ScenarioSpec& spec,
                                  const RowChunk& chunk) {
  const std::vector<std::string> members = resolvedScenarioMemberSpecs(spec);
  const DynamicsInfo& entry = DynamicsRegistry::instance().info(
      DynamicsSpec::parse(spec.dynamics).name);
  const bool adversaryTrees = entry.mode == DynamicsMode::kAdversaryTrees;
  std::vector<SweepRow> rows(chunk.size());
  std::vector<std::unique_ptr<Adversary>> lanes;
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    const ScenarioRowPlan plan = planScenarioRow(spec, members, chunk[i]);
    rows[i].n = plan.n;
    rows[i].seedIndex = plan.seedIndex;
    rows[i].instanceSeed = plan.instanceSeed;
    rows[i].member = plan.memberSpec;
    // Adversary-driven tree dynamics: build only the members the chunk
    // addresses, from their canonical specs and instance seeds — what
    // membersFromSpecs would hand them.
    if (adversaryTrees) {
      lanes.push_back(AdversaryRegistry::instance().make(
          plan.memberSpec, plan.n, plan.instanceSeed));
    }
  }
  if (adversaryTrees && spec.objective == Objective::kBroadcast) {
    runBroadcastLanes(&rows, lanes, spec.roundCap, spec.recordHistory);
    return rows;
  }

  DYNBCAST_ASSERT(chunk.size() == 1);  // gossip and graph models never batch
  SweepRow& row = rows.front();
  BroadcastRun run;
  if (adversaryTrees) {
    const std::size_t cap =
        spec.roundCap != 0 ? spec.roundCap : defaultGossipRoundCap(row.n);
    run = runAdversaryGossip(row.n, *lanes.front(), cap, spec.recordHistory);
  } else {
    const ScenarioRowPlan plan = planScenarioRow(spec, members, chunk[0]);
    const std::uint64_t seed = memberSeed(plan.instanceSeed, plan.memberIndex);
    const std::unique_ptr<DynamicsModel> instance =
        DynamicsRegistry::instance().make(row.member, row.n, seed);
    const std::size_t cap =
        spec.roundCap != 0 ? spec.roundCap : instance->defaultRoundCap();
    run = scenarioRowRunsSparse(spec, entry, row.n)
              ? runFrontierDynamicsBroadcast(row.n, *instance, cap,
                                             spec.recordHistory, seed)
              : runDynamicsBroadcast(row.n, *instance, cap,
                                     spec.recordHistory);
  }
  row.rounds = run.rounds;
  row.completed = run.completed;
  row.history = std::move(run.history);
  return rows;
}

SweepRow runScenarioRow(const ScenarioSpec& spec, std::size_t position) {
  return std::move(runRowChunk(spec, {position}).front());
}

std::uint64_t scenarioBeamSeed(std::uint64_t masterSeed,
                               std::size_t sizeIndex) {
  return SeedSequence(masterSeed ^ kBeamSeedSalt).at(sizeIndex);
}

std::size_t scenarioBeamWitness(const ScenarioSpec& spec,
                                std::size_t sizeIndex, std::size_t beamWidth,
                                std::size_t beamMaxN) {
  const std::size_t n = spec.sizes[sizeIndex];
  if (n > beamMaxN) return 0;
  BeamConfig config;
  config.beamWidth = beamWidth;
  config.randomMovesPerState = kBeamRandomMoves;
  config.diversityPercent = kBeamDiversityPercent;
  const BeamResult witness = beamSearchWitness(
      n, scenarioBeamSeed(spec.masterSeed, sizeIndex), config);
  return verifyWitness(n, witness.witness) == witness.rounds ? witness.rounds
                                                             : 0;
}

}  // namespace dynbcast
