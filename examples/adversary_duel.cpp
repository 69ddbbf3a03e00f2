// Adversary duel: every built-in adversary fights the same instance; the
// table shows who delays broadcast longest. This is the workload behind
// the paper's max in Definition 2.3.
//
//   $ adversary_duel [--n=32] [--seed=7]
#include <iostream>

#include "src/adversary/portfolio.h"
#include "src/bounds/theorem.h"
#include "src/support/options.h"
#include "src/support/table.h"

int main(int argc, char** argv) {
  using namespace dynbcast;
  const Options opts(argc, argv);
  const std::size_t n = opts.getUInt("n", 32);
  const std::uint64_t seed = opts.getUInt("seed", 7);
  opts.rejectUnreadOrExit();

  std::cout << "adversary duel at n = " << n << " (seed " << seed << ")\n\n";
  const PortfolioResult result = runPortfolio(n, seed);

  TextTable table({"adversary", "t*", "t*/n", "vs static path"});
  for (const auto& e : result.entries) {
    const double ratio = static_cast<double>(e.rounds) /
                         static_cast<double>(n);
    const std::int64_t delta = static_cast<std::int64_t>(e.rounds) -
                               static_cast<std::int64_t>(n - 1);
    table.row()
        .add(e.name)
        .add(static_cast<std::uint64_t>(e.rounds))
        .add(ratio, 3)
        .add((delta >= 0 ? "+" : "") + std::to_string(delta));
  }
  std::cout << table.render() << '\n';

  const TheoremCheck check = checkTheorem31(n, result.bestRounds);
  std::cout << "champion: " << result.bestName << " with t* = "
            << result.bestRounds << "\n"
            << "Theorem 3.1 bracket [" << check.lower << ", " << check.upper
            << "]; champion ratio " << check.ratio << "\n";
  return 0;
}
