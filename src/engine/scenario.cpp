#include "src/engine/scenario.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "src/adversary/adversary.h"
#include "src/adversary/registry.h"
#include "src/dynamics/registry.h"
#include "src/engine/task_plan.h"
#include "src/sim/gossip.h"

namespace dynbcast {

static_assert(kAutoSparseThreshold == kSparseDenseMirrorMaxN,
              "auto must only pick sparse where sparse generation stops "
              "mirroring dense, so backend choice never changes rows at "
              "sizes both backends serve routinely");

namespace {

[[nodiscard]] std::vector<std::string> resolvedSpecs(
    const ScenarioSpec& spec) {
  return spec.adversaries.empty() ? defaultAdversarySpecs(spec.dynamics)
                                  : spec.adversaries;
}

/// The gossip and graph-model paths share one execution shape: map the
/// task plan's per-position executor over the row grid. Row order,
/// seeding, and member naming are all pure functions of position (see
/// task_plan.h), so the result is byte-identical at any job count — and
/// byte-identical to a service worker executing the same positions in
/// another process.
[[nodiscard]] ScenarioResult runPlannedScenario(const ScenarioSpec& spec,
                                                ExperimentEngine& engine) {
  ScenarioResult result;
  result.rows = engine.map<SweepRow>(
      scenarioRowCount(spec), spec.masterSeed,
      [&](std::size_t position, std::uint64_t) {
        return runScenarioRow(spec, position);
      });
  result.instances = aggregateScenarioInstances(spec, result.rows);
  return result;
}

}  // namespace

Objective parseObjective(const std::string& text) {
  if (text == "broadcast") return Objective::kBroadcast;
  if (text == "gossip") return Objective::kGossip;
  std::string message = "unknown objective '" + text + "'";
  const std::string suggestion =
      closestMatch(text, {"broadcast", "gossip"});
  if (!suggestion.empty()) message += "; did you mean '" + suggestion + "'?";
  message += " (known: broadcast, gossip)";
  throw std::invalid_argument(message);
}

std::string objectiveName(Objective objective) {
  return objective == Objective::kBroadcast ? "broadcast" : "gossip";
}

BackendChoice parseBackendChoice(const std::string& text) {
  if (text == "dense") return BackendChoice::kDense;
  if (text == "sparse") return BackendChoice::kSparse;
  if (text == "auto") return BackendChoice::kAuto;
  std::string message = "unknown backend '" + text + "'";
  const std::string suggestion =
      closestMatch(text, {"dense", "sparse", "auto"});
  if (!suggestion.empty()) message += "; did you mean '" + suggestion + "'?";
  message += " (known: dense, sparse, auto)";
  throw std::invalid_argument(message);
}

std::string backendChoiceName(BackendChoice backend) {
  switch (backend) {
    case BackendChoice::kDense:
      return "dense";
    case BackendChoice::kSparse:
      return "sparse";
    case BackendChoice::kAuto:
      return "auto";
  }
  return "auto";
}

std::vector<std::string> defaultAdversarySpecs(const std::string& dynamics) {
  const DynamicsSpec parsed = DynamicsSpec::parse(dynamics);
  const DynamicsInfo& entry = DynamicsRegistry::instance().info(parsed.name);
  if (entry.defaultAdversaries) {
    return entry.defaultAdversaries(parsed.params);
  }
  // Graph models are their own (only) member.
  return {parsed.toString()};
}

void validateScenario(const ScenarioSpec& spec) {
  if (spec.seedsPerSize == 0) {
    throw std::invalid_argument("scenario: seedsPerSize must be >= 1");
  }
  const DynamicsSpec dynamics = DynamicsSpec::parse(spec.dynamics);
  const DynamicsRegistry& dynRegistry = DynamicsRegistry::instance();
  dynRegistry.validate(dynamics);
  const DynamicsInfo& entry = dynRegistry.info(dynamics.name);

  if (entry.mode != DynamicsMode::kAdversaryTrees &&
      spec.objective == Objective::kGossip) {
    throw std::invalid_argument(
        "scenario: gossip is only defined over tree dynamics here "
        "(dynamics '" + dynamics.name +
        "' supports objective=broadcast)");
  }

  // Batching advances replicate lanes of one oblivious adversary through
  // a shared BatchBroadcastSim, which only the runSweep broadcast-tree
  // path does. An explicit width elsewhere would be silently ignored, so
  // reject it; auto degrades to scalar without complaint.
  if (spec.batch.mode == BatchPolicy::Mode::kFixed &&
      (entry.mode != DynamicsMode::kAdversaryTrees ||
       spec.objective == Objective::kGossip)) {
    throw std::invalid_argument(
        "scenario: batch=" + batchPolicyName(spec.batch) +
        " only applies to objective=broadcast over adversary-driven tree "
        "dynamics (got dynamics '" + dynamics.name + "', objective=" +
        objectiveName(spec.objective) +
        "); use batch=auto or batch=off");
  }

  if (entry.mode == DynamicsMode::kGraphModel) {
    // The model emits every round's graph itself; an adversary has no
    // move to make, so listing one is a spec error, not a no-op.
    if (!spec.adversaries.empty()) {
      throw std::invalid_argument(
          "dynamics '" + dynamics.toString() +
          "' is a graph model: it emits the per-round graphs itself, so "
          "the adversary list must be empty (got '" + spec.adversaries[0] +
          "')");
    }
    if (spec.backend == BackendChoice::kSparse && !entry.sparseCapable) {
      std::string capable;
      for (const std::string& name : dynRegistry.names()) {
        if (!dynRegistry.info(name).sparseCapable) continue;
        if (!capable.empty()) capable += ", ";
        capable += name;
      }
      throw std::invalid_argument(
          "dynamics '" + dynamics.name +
          "' has no sparse generation path; use backend=dense or "
          "backend=auto (sparse-capable models: " + capable + ")");
    }
    return;
  }

  if (spec.backend == BackendChoice::kSparse) {
    throw std::invalid_argument(
        "dynamics '" + dynamics.name +
        "' is adversary-driven: the adversary reads the full dense "
        "simulator state, so backend=sparse cannot run it; use "
        "backend=dense or backend=auto");
  }

  const AdversaryRegistry& registry = AdversaryRegistry::instance();
  for (const std::string& text : resolvedSpecs(spec)) {
    const AdversarySpec parsed = AdversarySpec::parse(text);
    registry.validate(parsed);
    if (!entry.admissibleAdversaries.empty() &&
        std::find(entry.admissibleAdversaries.begin(),
                  entry.admissibleAdversaries.end(),
                  parsed.name) == entry.admissibleAdversaries.end()) {
      std::string admitted;
      for (const std::string& name : entry.admissibleAdversaries) {
        if (!admitted.empty()) admitted += ", ";
        admitted += name;
      }
      throw std::invalid_argument(
          "dynamics '" + dynamics.name + "' only admits adversaries " +
          "from its restricted classes (" + admitted + "); got '" +
          parsed.name + "'");
    }
  }
}

ScenarioResult runScenario(const ScenarioSpec& spec,
                           ExperimentEngine& engine) {
  validateScenario(spec);
  const DynamicsSpec dynamics = DynamicsSpec::parse(spec.dynamics);
  const DynamicsInfo& entry =
      DynamicsRegistry::instance().info(dynamics.name);
  if (entry.mode == DynamicsMode::kGraphModel ||
      spec.objective == Objective::kGossip) {
    return runPlannedScenario(spec, engine);
  }
  // Broadcast over (un)restricted trees: exactly the engine's portfolio
  // sweep — a default rooted-tree scenario reproduces
  // runSweep(standardPortfolio) bit-for-bit.
  const std::vector<std::string> specs = resolvedSpecs(spec);
  SweepSpec sweep;
  sweep.sizes = spec.sizes;
  sweep.masterSeed = spec.masterSeed;
  sweep.seedsPerSize = spec.seedsPerSize;
  sweep.roundCap = spec.roundCap;
  sweep.recordHistory = spec.recordHistory;
  sweep.batch = spec.batch;
  sweep.portfolio = [specs](std::size_t n, std::uint64_t seed) {
    return membersFromSpecs(specs, n, seed);
  };
  return engine.runSweep(sweep);
}

}  // namespace dynbcast
