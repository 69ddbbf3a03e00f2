// SEC2-PATH: the model sanity curves stated in the paper's §2 —
//   * repeating one path costs exactly n−1 rounds;
//   * repeating any fixed tree costs its height;
//   * nothing exceeds the trivial n² bound;
// plus random-environment baselines (§5's non-adversarial setting).
//
// One engine task per size; adversaries are registry spec strings, and
// random trials inside a task draw from that task's position-derived
// Rng, so every cell is --jobs-independent.
//
// Usage: static_adversaries [--sizes=4:1024:2] [--seed=1] [--trials=5]
//                           [--jobs=N] [--csv=path]
#include <iostream>
#include <memory>

#include "bench/driver.h"
#include "src/adversary/registry.h"
#include "src/bounds/bounds.h"
#include "src/support/rng.h"
#include "src/support/table.h"

int main(int argc, char** argv) {
  using namespace dynbcast;
  BenchDriver driver(argc, argv, "4:1024:2", 1);
  const std::size_t trials = driver.options().getUInt("trials", 5);
  driver.options().rejectUnreadOrExit();

  driver.printHeader("SEC2 — static and random baselines");

  struct Row {
    std::size_t pathRounds = 0;
    double randomTreeAvg = 0;
    double randomPathAvg = 0;
    std::size_t altRounds = 0;
  };
  const std::vector<std::size_t>& sizes = driver.sizes();
  const AdversaryRegistry& registry = AdversaryRegistry::instance();
  const auto rows = driver.engine().map<Row>(
      sizes.size(), driver.seed(),
      [&](std::size_t i, std::uint64_t taskSeed) {
        const std::size_t n = sizes[i];
        const auto runSpec = [&](const std::string& spec,
                                 std::uint64_t seed) {
          const auto adversary = registry.make(spec, n, seed);
          return runAdversary(n, *adversary, defaultRoundCap(n)).rounds;
        };
        Row row;
        row.pathRounds = runSpec("static-path", taskSeed);

        // Random adversaries: average a few trials.
        Rng rng(taskSeed);
        for (std::size_t t = 0; t < trials; ++t) {
          row.randomTreeAvg +=
              static_cast<double>(runSpec("random-tree", rng()));
          row.randomPathAvg +=
              static_cast<double>(runSpec("random-path", rng()));
        }
        row.randomTreeAvg /= static_cast<double>(trials);
        row.randomPathAvg /= static_cast<double>(trials);

        row.altRounds = runSpec("alternating-path", taskSeed);
        return row;
      });

  TextTable table({"n", "static path t*", "expected n-1", "random tree t*",
                   "random path t*", "alternating t*", "trivial cap n^2"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t n = sizes[i];
    const Row& row = rows[i];
    table.row()
        .add(static_cast<std::uint64_t>(n))
        .add(static_cast<std::uint64_t>(row.pathRounds))
        .add(static_cast<std::uint64_t>(n - 1))
        .add(row.randomTreeAvg, 1)
        .add(row.randomPathAvg, 1)
        .add(static_cast<std::uint64_t>(row.altRounds))
        .add(bounds::trivialUpper(n));
  }
  driver.emit(table);
  std::cout << "reading: the static-path column must equal n-1 exactly "
               "(paper §2); random environments are far below worst case "
               "(§5); everything is far below the trivial n^2.\n";
  return 0;
}
