// The scenario task plan: every scenario, flattened into addressable,
// independently executable row positions — and the one executor that
// runs them.
//
// A row is a pure function of (spec, position): row position p of
// scenario S has a fixed identity, seed and member, so a manifest can
// record per-position completion, a cache can key results by
// (spec, seed, position), and any process can execute any subset of
// positions and land byte-identical rows in the same slots:
//
//   * scenarioRowCount(spec)        — the grid size (sizes × replicates ×
//                                     members), fixed by the spec alone;
//   * planScenarioRow(spec, p)      — position p's identity: (sizeIndex,
//                                     seedIndex, memberIndex), its n, its
//                                     position-derived instance seed, and
//                                     the canonical member spec string;
//   * groupBatchable(spec, ps)      — the batching decision as a pure plan
//                                     transform: positions → chunks, the
//                                     replicates of an oblivious broadcast
//                                     cell as lockstep lanes, everything
//                                     else alone;
//   * runRowChunk(spec, chunk)      — executes one chunk on the calling
//                                     thread (runScenarioRow is the
//                                     one-lane call).
//
// runScenario() is groupBatchable over every position, runRowChunk per
// chunk across the engine's pool, then the engine's aggregateInstances; a
// service worker runs groupBatchable over its pending positions and
// runRowChunk over each chunk's cache misses. There is no second row
// path to keep in step: batching only changes how rows are grouped,
// never their bytes.
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
/// spec.dynamics. runRowChunk executes this choice and the service's
/// task keys spell it, so both ask here.
[[nodiscard]] bool scenarioRowRunsSparse(const ScenarioSpec& spec,
                                         const DynamicsInfo& dynamics,
                                         std::size_t n);

/// Splits ascending `positions` (any subset of the grid) into the chunks
/// runRowChunk executes: groupLaneChunks over the scenario's grid. Lanes
/// batch only for objective=broadcast over adversary-driven trees without
/// history, when spec.batch allows it (see groupLaneChunks), and when the
/// cell's member is oblivious — probed by building it once per cell.
[[nodiscard]] std::vector<RowChunk> groupBatchable(
    const ScenarioSpec& spec, const std::vector<std::size_t>& positions);

/// Executes a chunk on the calling thread: one row per chunk position, in
/// chunk order, each byte-identical to runScenario()'s row there. A
/// chunk is a position of its own or lanes of one cell that
/// groupBatchable would batch (any subset of such a chunk is one too).
/// The spec must already satisfy validateScenario().
[[nodiscard]] std::vector<SweepRow> runRowChunk(const ScenarioSpec& spec,
                                                const RowChunk& chunk);

/// runRowChunk of the one-lane chunk {position}.
[[nodiscard]] SweepRow runScenarioRow(const ScenarioSpec& spec,
                                      std::size_t position);

/// The beam-witness task seed for sizeIndex within a thm31-style sweep:
/// SeedSequence(masterSeed ^ kBeamSeedSalt).at(sizeIndex).
inline constexpr std::uint64_t kBeamSeedSalt = 0xbea3ull;
[[nodiscard]] std::uint64_t scenarioBeamSeed(std::uint64_t masterSeed,
                                             std::size_t sizeIndex);

/// The beam search's fixed knobs in a thm31 sweep; the width is the one
/// a request can vary. They change witness rounds, so service cache keys
/// spell them.
inline constexpr std::size_t kBeamRandomMoves = 8;
inline constexpr std::size_t kBeamDiversityPercent = 40;

/// The beam-witness task of a thm31 sweep, as `dynbcast sweep` and the
/// service both run it: the verified witness rounds at
/// spec.sizes[sizeIndex], seeded by scenarioBeamSeed; 0 when that size
/// exceeds beamMaxN (not searched) or replay disagrees with the search.
[[nodiscard]] std::size_t scenarioBeamWitness(const ScenarioSpec& spec,
                                              std::size_t sizeIndex,
                                              std::size_t beamWidth,
                                              std::size_t beamMaxN);

}  // namespace dynbcast
