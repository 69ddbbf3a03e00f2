#include "src/engine/task_plan.h"

#include <memory>
#include <utility>

#include "src/adversary/adversary.h"
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

SweepRow runScenarioRow(const ScenarioSpec& spec, std::size_t position) {
  const std::vector<std::string> members = resolvedScenarioMemberSpecs(spec);
  const ScenarioRowPlan plan = planScenarioRow(spec, members, position);
  const DynamicsInfo& entry = DynamicsRegistry::instance().info(
      DynamicsSpec::parse(spec.dynamics).name);

  SweepRow row;
  row.n = plan.n;
  row.seedIndex = plan.seedIndex;
  row.instanceSeed = plan.instanceSeed;
  row.member = plan.memberSpec;

  BroadcastRun run;
  if (entry.mode == DynamicsMode::kGraphModel) {
    const std::uint64_t seed = memberSeed(plan.instanceSeed, plan.memberIndex);
    const std::unique_ptr<DynamicsModel> instance =
        DynamicsRegistry::instance().make(plan.memberSpec, plan.n, seed);
    const std::size_t cap =
        spec.roundCap != 0 ? spec.roundCap : instance->defaultRoundCap();
    run = scenarioRowRunsSparse(spec, entry, plan.n)
              ? runFrontierDynamicsBroadcast(plan.n, *instance, cap,
                                             spec.recordHistory, seed)
              : runDynamicsBroadcast(plan.n, *instance, cap,
                                     spec.recordHistory);
  } else {
    // Adversary-driven tree dynamics: build only the member this position
    // addresses, from its canonical spec and the instance seed — what
    // membersFromSpecs would hand it.
    const std::unique_ptr<Adversary> adversary =
        AdversaryRegistry::instance().make(plan.memberSpec, plan.n,
                                           plan.instanceSeed);
    if (spec.objective == Objective::kGossip) {
      const std::size_t cap =
          spec.roundCap != 0 ? spec.roundCap : defaultGossipRoundCap(plan.n);
      run = runAdversaryGossip(plan.n, *adversary, cap, spec.recordHistory);
    } else {
      const std::size_t cap =
          spec.roundCap != 0 ? spec.roundCap : defaultRoundCap(plan.n);
      run = runAdversary(plan.n, *adversary, cap, spec.recordHistory);
    }
  }
  row.rounds = run.rounds;
  row.completed = run.completed;
  row.history = std::move(run.history);
  return row;
}

std::vector<SweepInstance> aggregateScenarioInstances(
    const ScenarioSpec& spec, const std::vector<SweepRow>& rows) {
  const std::size_t width = scenarioMembersPerInstance(spec);
  const std::size_t instanceCount = spec.sizes.size() * spec.seedsPerSize;
  DYNBCAST_ASSERT(rows.size() == instanceCount * width);
  const SeedSequence seeds(spec.masterSeed);
  std::vector<SweepInstance> instances;
  instances.reserve(instanceCount);
  for (std::size_t p = 0; p < instanceCount; ++p) {
    SweepInstance aggregate;
    aggregate.n = spec.sizes[p / spec.seedsPerSize];
    aggregate.seedIndex = p % spec.seedsPerSize;
    aggregate.instanceSeed = seeds.at(p);
    for (std::size_t m = 0; m < width; ++m) {
      const SweepRow& row = rows[p * width + m];
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

std::uint64_t scenarioBeamSeed(std::uint64_t masterSeed,
                               std::size_t sizeIndex) {
  return SeedSequence(masterSeed ^ kBeamSeedSalt).at(sizeIndex);
}

}  // namespace dynbcast
