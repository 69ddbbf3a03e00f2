// SEC5-GOSSIP: the paper's §5 extension — all-to-all dissemination under
// the same dynamic-rooted-tree adversary. Facts exhibited:
//   * gossip time dominates broadcast time on every sequence;
//   * no static tree ever completes gossip (leaf ids never propagate);
//   * dynamic sequences complete gossip in Θ(n).
//
// One engine task per size runs all four scenarios for that n; the
// adversaries come from the registry by spec string, and the cap is the
// gossip-specific defaultGossipRoundCap(n) (the broadcast cap encodes
// the paper's ⌈(1+√2)n−1⌉ bound, which gossip legitimately exceeds).
//
// Usage: gossip_extension [--sizes=4:256:2] [--seed=1] [--jobs=N] [--csv=path]
#include <iostream>
#include <memory>

#include "bench/driver.h"
#include "src/adversary/registry.h"
#include "src/sim/gossip.h"
#include "src/support/rng.h"
#include "src/support/table.h"
#include "src/tree/families.h"
#include "src/tree/generators.h"

int main(int argc, char** argv) {
  using namespace dynbcast;
  BenchDriver driver(argc, argv, "4:256:2", 1);
  driver.options().rejectUnreadOrExit();

  driver.printHeader(
      "SEC5 — gossip (all-to-all) under dynamic rooted trees");

  struct Row {
    GossipComparison random, alternating, greedy, staticPath;
  };
  const std::vector<std::size_t>& sizes = driver.sizes();
  const AdversaryRegistry& registry = AdversaryRegistry::instance();
  const auto rows = driver.engine().map<Row>(
      sizes.size(), driver.seed(),
      [&](std::size_t i, std::uint64_t taskSeed) {
        const std::size_t n = sizes[i];
        const std::size_t cap = defaultGossipRoundCap(n);
        Row row;

        Rng rng(taskSeed);
        row.random = runGossipComparison(
            n,
            [&rng, n](const BroadcastSim&) {
              return randomRootedTree(n, rng);
            },
            cap);

        const auto runSpec = [&](const std::string& spec,
                                 std::size_t specCap) {
          const auto adversary =
              registry.make(spec, n, taskSeed ^ 0x60551bull);
          return runGossipComparison(
              n,
              [&adversary](const BroadcastSim& s) {
                return adversary->nextTree(s);
              },
              specCap);
        };
        row.alternating = runSpec("alternating-path", cap);
        row.greedy = runSpec("greedy-delay", cap);
        // Static path: gossip can never complete; cap at 3n to demonstrate.
        row.staticPath = runSpec("static-path", 3 * n);
        return row;
      });

  TextTable table({"n", "random: broadcast", "random: gossip",
                   "alternating: gossip", "greedy-delay: gossip",
                   "static path: gossip", "gossip/n"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t n = sizes[i];
    const Row& row = rows[i];
    table.row()
        .add(static_cast<std::uint64_t>(n))
        .add(static_cast<std::uint64_t>(row.random.broadcastRounds))
        .add(static_cast<std::uint64_t>(row.random.gossipRounds))
        .add(static_cast<std::uint64_t>(row.alternating.gossipRounds))
        .add(row.greedy.gossipCompleted
                 ? std::to_string(row.greedy.gossipRounds)
                 : "never (stalled)")
        .add(row.staticPath.gossipCompleted ? "completed (bug!)" : "never")
        .add(static_cast<double>(row.random.gossipRounds) /
                 static_cast<double>(n),
             3);
  }
  driver.emit(table);
  std::cout << "reading: gossip >= broadcast column-wise; static trees "
               "never finish gossip (leaf ids cannot propagate), and an "
               "ADAPTIVE delaying adversary prevents gossip forever — the "
               "paper's rooted-tree guarantee (>= 1 new product edge per "
               "round) protects one row of G(t), i.e. broadcast, not all "
               "of them. Oblivious dynamic sequences finish in Theta(n) "
               "(about 2n for the alternating ping-pong).\n";
  return 0;
}
