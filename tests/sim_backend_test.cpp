// The SimBackend concept (sim_backend.h) is the compile-time contract
// every simulation engine satisfies. The static_asserts are the actual
// test — a drifting signature breaks the build right here, with the
// concept name in the error. The runtime probe then drives all four
// backends through one shared round sequence and checks they agree on
// every observable the concept exposes, which is the semantic half of
// the contract ("all backends are EXACT").
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "src/graph/bitmatrix.h"
#include "src/sim/batch_sim.h"
#include "src/sim/broadcast_sim.h"
#include "src/sim/frontier_sim.h"
#include "src/sim/sim_backend.h"
#include "src/support/rng.h"
#include "src/tree/generators.h"
#include "src/tree/rooted_tree.h"
#include "tests/process_sim.h"

namespace dynbcast {

static_assert(SimBackend<BroadcastSim>,
              "BroadcastSim must satisfy the SimBackend concept");
static_assert(SimBackend<ProcessSim>,
              "ProcessSim must satisfy the SimBackend concept");
static_assert(SimBackend<FrontierSim>,
              "FrontierSim must satisfy the SimBackend concept");
static_assert(SimBackend<BatchBroadcastSim>,
              "BatchBroadcastSim (width-1 surface) must satisfy SimBackend");

namespace {

// Drives one backend through the given rounds via ONLY the concept
// surface and returns the observable trace, so different backend types
// can be compared generically.
struct Trace {
  std::vector<std::size_t> heardCounts;  // per round, sum over y
  std::vector<bool> broadcast;
  std::vector<bool> gossip;

  bool operator==(const Trace&) const = default;
};

template <SimBackend S>
Trace run(S& sim, const std::vector<RootedTree>& trees, const BitMatrix& g) {
  Trace trace;
  const auto record = [&trace, &sim] {
    std::size_t total = 0;
    for (std::size_t y = 0; y < sim.processCount(); ++y) {
      total += sim.heardCount(y);
    }
    trace.heardCounts.push_back(total);
    trace.broadcast.push_back(sim.broadcastDone());
    trace.gossip.push_back(sim.gossipDone());
  };
  for (const RootedTree& tree : trees) {
    sim.applyTree(tree);
    record();
  }
  sim.applyGraph(g);
  record();
  // reset() must land back on the round-0 identity state.
  sim.reset();
  EXPECT_EQ(sim.round(), 0u);
  record();
  return trace;
}

TEST(SimBackendTest, AllBackendsAgreeOnTheConceptSurface) {
  for (const std::size_t n : {2ul, 9ul, 40ul}) {
    Rng rng(500 + n);
    std::vector<RootedTree> trees;
    for (int r = 0; r < 4; ++r) trees.push_back(randomRootedTree(n, rng));
    BitMatrix g = BitMatrix::identity(n);
    for (int e = 0; e < 3 * static_cast<int>(n); ++e) {
      g.set(rng.uniform(n), rng.uniform(n));
    }

    BroadcastSim dense(n);
    ProcessSim process(n);
    FrontierSim frontier(n);
    BatchBroadcastSim batch(n, 1);
    const Trace reference = run(dense, trees, g);
    EXPECT_EQ(run(process, trees, g), reference) << "ProcessSim, n=" << n;
    EXPECT_EQ(run(frontier, trees, g), reference) << "FrontierSim, n=" << n;
    EXPECT_EQ(run(batch, trees, g), reference)
        << "BatchBroadcastSim, n=" << n;
  }
}

}  // namespace
}  // namespace dynbcast
