// Matrix evolution: watch the paper's central object — the adjacency
// matrix of the product graph — evolve round by round under a delaying
// adversary, with the potential function and completion timeline.
//
//   $ matrix_evolution [--n=12] [--seed=3] [--render=1] [--csv=path]
#include <iostream>
#include <string>

#include "src/adversary/adaptive.h"
#include "src/analysis/csv.h"
#include "src/analysis/evolution.h"
#include "src/analysis/render.h"
#include "src/support/options.h"

int main(int argc, char** argv) {
  using namespace dynbcast;
  const Options opts(argc, argv);
  const std::size_t n = opts.getUInt("n", 12);
  const std::uint64_t seed = opts.getUInt("seed", 3);
  const bool render = opts.getBool("render", true);
  const bool wantCsv = opts.has("csv");
  const std::string csvPath = opts.getString("csv", "evolution.csv");
  opts.rejectUnreadOrExit();

  std::cout << "matrix evolution under greedy-delay, n = " << n << "\n\n";

  GreedyDelayAdversary adversary(n, seed);
  bool completed = false;
  const SimTrace trace = recordBroadcastTrace(
      n,
      [&adversary](const BroadcastSim& s) { return adversary.nextTree(s); },
      defaultRoundCap(n), seed, &completed);

  if (render) {
    // Replay and render a few snapshots.
    BroadcastSim sim(n);
    const std::size_t snapshots[] = {1, trace.roundCount() / 2,
                                     trace.roundCount()};
    std::size_t nextSnapshot = 0;
    for (std::size_t r = 0; r < trace.roundCount(); ++r) {
      sim.applyTree(trace.trees()[r]);
      if (nextSnapshot < 3 && sim.round() == snapshots[nextSnapshot]) {
        std::cout << renderHeardMatrix(sim) << '\n';
        ++nextSnapshot;
      }
    }
  }

  const EvolutionSummary summary = analyzeTrace(trace);
  std::cout << "broadcast round (t*): " << summary.broadcastRound
            << (completed ? "" : " (incomplete!)") << '\n';
  std::cout << "potential Φ per round: " << sparkline(summary.potential)
            << '\n';
  std::cout << "min potential drop per round: "
            << summary.minPotentialDrop()
            << " (the paper's ≥1-new-edge-per-round argument)\n";

  std::cout << "\nper-process completion timeline (0 = never):\n";
  std::cout << "  heard-everyone rounds:";
  for (const std::size_t r : summary.heardAllAt) std::cout << ' ' << r;
  std::cout << "\n  heard-by-everyone rounds:";
  for (const std::size_t r : summary.coveredAllAt) std::cout << ' ' << r;
  std::cout << '\n';

  if (wantCsv) {
    writeFile(csvPath, trace.toCsv());
    std::cout << "wrote per-round metrics CSV\n";
  }
  return 0;
}
