// The scenario task plan: every scenario, flattened into addressable,
// independently executable row positions.
//
// runScenario() executes a ScenarioSpec as one engine fan-out, but a
// distributed service needs the same work in a different shape: a
// SERIALIZABLE plan whose unit is "row position p of scenario S", so a
// manifest can record per-position completion, a cache can key results by
// (spec, seed, position), and a worker process can execute any subset of
// positions and land byte-identical rows in the same slots. This header
// is that shape:
//
//   * scenarioRowCount(spec)        — the grid size (sizes × replicates ×
//                                     members), fixed by the spec alone;
//   * planScenarioRow(spec, p)      — position p's identity: (sizeIndex,
//                                     seedIndex, memberIndex), its n, its
//                                     position-derived instance seed, and
//                                     the canonical member spec string;
//   * runScenarioRow(spec, p)       — executes exactly the row that
//                                     runScenario() would put at p, on
//                                     the calling thread (the scalar
//                                     path; batching is output-invariant,
//                                     so this is byte-identical);
//   * aggregateScenarioInstances    — regroups rows into the per-instance
//                                     portfolio view, same order.
//
// runScenario()'s gossip and graph-model paths are implemented ON these
// functions (scenario.cpp maps runScenarioRow over [0, rowCount)), so the
// engine and the service cannot drift apart. The broadcast-over-trees
// path keeps ExperimentEngine::runSweep for replicate batching; its rows
// are pinned to runScenarioRow by the task-plan equivalence test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/dynamics/registry.h"
#include "src/engine/scenario.h"

namespace dynbcast {

/// Position p's identity within the scenario grid. Everything here is a
/// pure function of (spec, position) — no execution-order dependence —
/// which is what makes the plan serializable and results mergeable.
struct ScenarioRowPlan {
  std::size_t position = 0;
  std::size_t sizeIndex = 0;
  std::size_t seedIndex = 0;    // replicate index within the size
  std::size_t memberIndex = 0;  // index into the resolved member list
  std::size_t n = 0;
  std::uint64_t instanceSeed = 0;  // SeedSequence(masterSeed) position seed
  /// Canonical spec string of the member at memberIndex: an adversary
  /// spec under adversary-driven dynamics, the dynamics spec under
  /// graph models. Sorted-key canonical form — usable as a cache key
  /// component as-is.
  std::string memberSpec;
};

/// The resolved member spec list, canonicalized: the spec's adversaries
/// (or the dynamics' default list) under adversary-driven dynamics, the
/// model itself under graph models. The spec must already satisfy
/// validateScenario().
[[nodiscard]] std::vector<std::string> resolvedScenarioMemberSpecs(
    const ScenarioSpec& spec);

/// Members per (n, seed) instance — the width of the row grid.
[[nodiscard]] std::size_t scenarioMembersPerInstance(const ScenarioSpec& spec);

/// Total rows: sizes × seedsPerSize × membersPerInstance.
[[nodiscard]] std::size_t scenarioRowCount(const ScenarioSpec& spec);

/// Plans position `position` (must be < scenarioRowCount(spec)).
[[nodiscard]] ScenarioRowPlan planScenarioRow(const ScenarioSpec& spec,
                                              std::size_t position);

/// planScenarioRow over an already resolved member list (exactly
/// resolvedScenarioMemberSpecs(spec)), for callers that plan many
/// positions of one spec and resolve the members once.
[[nodiscard]] ScenarioRowPlan planScenarioRow(
    const ScenarioSpec& spec, const std::vector<std::string>& members,
    std::size_t position);

/// Whether a row of size n runs on the sparse backend (FrontierSim)
/// instead of the dense BroadcastSim: always under backend=sparse; under
/// backend=auto when the dynamics is a sparse-capable graph model, no
/// per-round history is wanted and n > kAutoSparseThreshold; never under
/// adversary-driven dynamics. `dynamics` is the registry entry of
/// spec.dynamics. runScenarioRow executes this choice and the service's
/// task keys spell it, so both ask here.
[[nodiscard]] bool scenarioRowRunsSparse(const ScenarioSpec& spec,
                                         const DynamicsInfo& dynamics,
                                         std::size_t n);

/// Executes position `position` on the calling thread and returns the
/// row runScenario() would produce there, byte-identical. The spec must
/// already satisfy validateScenario().
[[nodiscard]] SweepRow runScenarioRow(const ScenarioSpec& spec,
                                      std::size_t position);

/// Regroups a full row vector (ordered by position) into per-instance
/// aggregates — runScenario()'s instances field, reproduced from rows.
[[nodiscard]] std::vector<SweepInstance> aggregateScenarioInstances(
    const ScenarioSpec& spec, const std::vector<SweepRow>& rows);

/// The beam-witness task seed for sizeIndex within a thm31-style sweep:
/// SeedSequence(masterSeed ^ kBeamSeedSalt).at(sizeIndex) — the exact
/// derivation `dynbcast sweep` uses, exposed so a service-side beam task
/// reproduces the CLI's witness rounds bit for bit.
inline constexpr std::uint64_t kBeamSeedSalt = 0xbea3ull;
[[nodiscard]] std::uint64_t scenarioBeamSeed(std::uint64_t masterSeed,
                                             std::size_t sizeIndex);

}  // namespace dynbcast
