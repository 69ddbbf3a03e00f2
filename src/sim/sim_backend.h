// SimBackend: the concept every simulation backend satisfies.
//
// Four engines implement the paper's model, each with a different
// representation tuned to a different regime:
//
//   * BroadcastSim      — dense heard-of bit matrix, the fast reference
//   * FrontierSim       — sparse per-node id vectors for n up to 10⁶
//   * BatchBroadcastSim — lane-interleaved SoA planes advancing a whole
//                         replicate batch in lockstep
//   * ProcessSim        — literal message objects, the executable spec;
//                         test-only (tests/process_sim.h)
//
// They grew the same public surface by convention; this concept makes
// the convention a compile-time contract (conformance is static_asserted
// in tests/sim_backend_test.cpp), so a drifting signature is a build
// error instead of a latent engine-selection bug. ScenarioSpec's
// backend/batch routing and the differential suites all program against
// exactly this surface.
//
// Contract (beyond the signatures): applyTree applies one synchronous
// round along a rooted tree; applyGraph one round along a reflexive
// directed graph; heardCount(y) == |Heard(y)|; broadcastDone() iff some
// process has been heard by everyone (⋂_y Heard(y) ≠ ∅); gossipDone()
// iff everyone heard everyone; reset() returns to the round-0 identity
// state. All backends are EXACT — same t*, same counts, bit for bit —
// which is what lets the engine pick a backend per workload without
// changing any result.
#pragma once

#include <concepts>
#include <cstddef>

#include "src/graph/bitmatrix.h"
#include "src/tree/rooted_tree.h"

namespace dynbcast {

template <typename S>
concept SimBackend = requires(S sim, const S& csim, const RootedTree& tree,
                              const BitMatrix& graph, std::size_t y) {
  { csim.processCount() } -> std::convertible_to<std::size_t>;
  { csim.round() } -> std::convertible_to<std::size_t>;
  sim.applyTree(tree);
  sim.applyGraph(graph);
  sim.reset();
  { csim.heardCount(y) } -> std::convertible_to<std::size_t>;
  { csim.broadcastDone() } -> std::convertible_to<bool>;
  { csim.gossipDone() } -> std::convertible_to<bool>;
};

}  // namespace dynbcast
