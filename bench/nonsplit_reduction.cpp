// SEC4-NONSPLIT: the machinery behind the pre-paper O(n log log n) bound —
//   (a) broadcast under nonsplit adversaries is logarithmic [2]/[9];
//   (b) the product of n−1 rooted trees is nonsplit [1], and random
//       sequences usually get there much earlier.
//
// One engine task per size computes both parts for that n; trials inside
// a task draw their seeds and trees from its position-derived Rng. Part
// (a) runs the registry models nonsplit-random and nonsplit-skewed.
//
// Usage: nonsplit_reduction [--sizes=8:2048:2] [--seed=1] [--trials=10]
//                           [--jobs=N] [--csv=path]
#include <iostream>
#include <memory>

#include "bench/driver.h"
#include "src/bounds/bounds.h"
#include "src/dynamics/registry.h"
#include "src/nonsplit/reduction.h"
#include "src/support/rng.h"
#include "src/support/table.h"
#include "src/tree/families.h"
#include "src/tree/generators.h"

namespace {

/// Broadcast rounds of one run under a registry nonsplit model, capped at
/// ceil(log2 n) + 8; runDynamicsBroadcast asserts every round's graph is
/// nonsplit.
double nonsplitRounds(const char* model, std::size_t n, std::uint64_t seed) {
  using namespace dynbcast;
  const std::unique_ptr<DynamicsModel> dynamics =
      DynamicsRegistry::instance().make(model, n, seed);
  const auto cap = static_cast<std::size_t>(bounds::nonsplitLogUpper(n)) + 8;
  return static_cast<double>(runDynamicsBroadcast(n, *dynamics, cap).rounds);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dynbcast;
  BenchDriver driver(argc, argv, "8:2048:2", 1);
  const std::size_t trials = driver.options().getUInt("trials", 10);
  driver.options().rejectUnreadOrExit();

  driver.printHeader(
      "SEC4 — nonsplit adversaries and the tree-product reduction");

  struct Row {
    double randAvg = 0, skewAvg = 0;
    // Part (b) — only for n <= 512 (prefix scan is O(n^3) per trial).
    bool reduction = false;
    double treeAvg = 0, pathAvg = 0;
    std::size_t worstPrefix = 0;
  };
  const std::vector<std::size_t>& sizes = driver.sizes();
  const auto rows = driver.engine().map<Row>(
      sizes.size(), driver.seed(),
      [&](std::size_t i, std::uint64_t taskSeed) {
        const std::size_t n = sizes[i];
        Row row;
        Rng rng(taskSeed);
        for (std::size_t t = 0; t < trials; ++t) {
          row.randAvg += nonsplitRounds("nonsplit-random", n, rng());
          row.skewAvg += nonsplitRounds("nonsplit-skewed", n, rng());
        }
        row.randAvg /= static_cast<double>(trials);
        row.skewAvg /= static_cast<double>(trials);

        if (n <= 512) {
          row.reduction = true;
          for (std::size_t t = 0; t < trials; ++t) {
            std::vector<RootedTree> trees, paths;
            for (std::size_t j = 0; j + 1 < n; ++j) {
              trees.push_back(randomRootedTree(n, rng));
              paths.push_back(randomPath(n, rng));
            }
            row.treeAvg += static_cast<double>(nonsplitPrefixLength(trees));
            row.pathAvg += static_cast<double>(nonsplitPrefixLength(paths));
          }
          row.treeAvg /= static_cast<double>(trials);
          row.pathAvg /= static_cast<double>(trials);
          const std::vector<RootedTree> worst(n - 1, makePath(n));
          row.worstPrefix = nonsplitPrefixLength(worst);
        }
        return row;
      });

  std::cout << "(a) broadcast under nonsplit adversaries vs ceil(log2 n):\n";
  TextTable logTable({"n", "random nonsplit t*", "skewed nonsplit t*",
                      "ceil(log2 n)"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    logTable.row()
        .add(static_cast<std::uint64_t>(sizes[i]))
        .add(rows[i].randAvg, 2)
        .add(rows[i].skewAvg, 2)
        .add(bounds::nonsplitLogUpper(sizes[i]));
  }
  driver.emit(logTable);

  std::cout << "(b) rounds of rooted trees until the product is nonsplit "
               "(lemma of [1]: never more than n-1):\n";
  TextTable redTable({"n", "random trees avg prefix", "random paths avg",
                      "static path (worst case)", "bound n-1"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (!rows[i].reduction) continue;
    redTable.row()
        .add(static_cast<std::uint64_t>(sizes[i]))
        .add(rows[i].treeAvg, 2)
        .add(rows[i].pathAvg, 2)
        .add(static_cast<std::uint64_t>(rows[i].worstPrefix))
        .add(static_cast<std::uint64_t>(sizes[i] - 1));
  }
  std::cout << redTable.render() << '\n';
  std::cout << "reading: (a) every nonsplit run is within the ceil(log2 n) "
               "bound of [2]; random instances are far faster (dense "
               "common-in-neighbor structure) — the Theta(log log n)-tight "
               "instances of [9] need their bespoke construction, which is "
               "out of scope (see EXPERIMENTS.md). (b) static paths realize "
               "the n-1 worst case of the reduction of [1] exactly, while "
               "random sequences become nonsplit after ~log2 n rounds.\n";
  return 0;
}
