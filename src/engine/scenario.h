// ScenarioSpec: the declarative description of one experiment campaign.
//
// A scenario names WHAT to measure (objective: broadcast or gossip),
// UNDER WHICH dynamics — a DynamicsRegistry spec string ("rooted-tree",
// "restricted:class=k-leaf,k=3", "edge-markovian:p=0.2,q=0.1") — OVER
// which sizes × seed replicates, and AGAINST which adversaries, the
// latter as AdversaryRegistry spec strings ("freeze-path:depth=3",
// "beam:width=64"). Both axes are data, so composing a new experiment
// never means writing a new main(). runScenario() executes the spec on an
// ExperimentEngine through the task plan (task_plan.h), the same row
// executor a service worker runs: every position of the (size, replicate,
// member) grid is grouped into chunks — replicates of an oblivious
// broadcast-tree member as lockstep lanes, everything else alone — and
// each chunk runs on the pool. Graph-model dynamics (nonsplit-random,
// edge-markovian, t-interval, …) construct the model per row with
// position-derived seeds; adversary-driven dynamics (rooted-tree,
// restricted) build the row's adversary from its spec string.
//
// Rows come back in the deterministic (size, replicate, member) order,
// byte-identical at any job count, batch width, or process split.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/experiment_engine.h"

namespace dynbcast {

/// What a run must complete: one row of the product graph (broadcast) or
/// all of them (gossip).
enum class Objective { kBroadcast, kGossip };

[[nodiscard]] Objective parseObjective(const std::string& text);
[[nodiscard]] std::string objectiveName(Objective objective);

/// Which simulation engine executes the runs. Dense is the bitset
/// BroadcastSim (O(n²) bits of state); sparse is the FrontierSim path
/// (arc-list rounds, O(n + edges) state), valid only for sparse-capable
/// graph-model dynamics. Auto resolves per instance: sparse above
/// kAutoSparseThreshold when the model supports it and no per-round
/// history is wanted, dense otherwise. Rows are backend-invariant at
/// n ≤ kAutoSparseThreshold (sparse generation mirrors dense there), so
/// golden CSVs hold across backends.
enum class BackendChoice { kDense, kSparse, kAuto };

/// Auto switches to sparse strictly above this size. Equal to the
/// dynamics layer's kSparseDenseMirrorMaxN (static_assert'd in
/// scenario.cpp): below it sparse/dense rows are bit-identical, so the
/// auto choice is observable only where the dense matrix starts to hurt.
inline constexpr std::size_t kAutoSparseThreshold = 4096;

[[nodiscard]] BackendChoice parseBackendChoice(const std::string& text);
[[nodiscard]] std::string backendChoiceName(BackendChoice backend);

struct ScenarioSpec {
  Objective objective = Objective::kBroadcast;
  /// DynamicsRegistry spec string naming the dynamic-graph model (the
  /// adversary's move universe, or a stochastic graph process).
  std::string dynamics = "rooted-tree";
  std::vector<std::size_t> sizes;
  std::uint64_t masterSeed = 1;
  /// Independent seed replicates per size (position-derived seeds).
  std::size_t seedsPerSize = 1;
  /// Round cap per run; 0 = the dynamics/objective default
  /// (defaultRoundCap(n) for broadcast trees, defaultGossipRoundCap(n)
  /// for gossip, the model's own defaultRoundCap for graph models).
  std::size_t roundCap = 0;
  /// Adversary spec strings; empty = the dynamics' declared default list
  /// (the standard portfolio for rooted trees). Graph-model dynamics
  /// take no adversaries — the model emits the graphs itself.
  std::vector<std::string> adversaries;
  /// Capture per-round metrics in every row (costly at large n).
  bool recordHistory = false;
  /// Simulation engine selection (see BackendChoice). kSparse requires a
  /// sparse-capable graph-model dynamics; kAuto is always valid.
  BackendChoice backend = BackendChoice::kAuto;
  /// Replicate batching for broadcast over adversary-driven tree
  /// dynamics (see BatchPolicy and groupBatchable); output-invariant. An
  /// explicit batch=K on any other objective/dynamics combination is a
  /// spec error; kAuto runs one row per chunk there.
  BatchPolicy batch;
};

/// The default member list for a dynamics spec: the standard portfolio
/// for rooted trees, small-k class members for restricted, the model
/// itself for graph models. Throws std::invalid_argument on unknown
/// dynamics.
[[nodiscard]] std::vector<std::string> defaultAdversarySpecs(
    const std::string& dynamics);

/// Checks the spec is runnable: known dynamics/adversary names and keys
/// (with suggestions), adversaries compatible with the dynamics (class
/// restrictions for restricted trees; none allowed on graph models), and
/// a supported objective/dynamics combination. Throws
/// std::invalid_argument; runScenario() calls this first.
void validateScenario(const ScenarioSpec& spec);

/// Scenario results reuse the engine's unified row/instance types: rows
/// ordered by (size position, replicate, member), plus per-(n, seed)
/// aggregates whose bestRounds is Definition 2.3's max over the listed
/// members.
using ScenarioRow = SweepRow;
using ScenarioResult = SweepResult;

/// Executes the scenario on the engine: validateScenario, then
/// groupBatchable over every position, runRowChunk per chunk across the
/// pool with each row in its position's slot, then aggregateInstances.
/// A default rooted-tree broadcast scenario
/// reproduces runSweep(standardPortfolio) rows bit-for-bit.
[[nodiscard]] ScenarioResult runScenario(const ScenarioSpec& spec,
                                         ExperimentEngine& engine);

}  // namespace dynbcast
