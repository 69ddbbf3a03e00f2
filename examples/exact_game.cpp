// Exact game: solve the broadcast game exhaustively for a tiny n and
// compare the true optimum with the paper's bounds and our heuristics.
//
//   $ exact_game [--n=4]
#include <iostream>

#include "src/adversary/exact_solver.h"
#include "src/adversary/portfolio.h"
#include "src/bounds/theorem.h"
#include "src/support/options.h"
#include "src/tree/enumerate.h"

int main(int argc, char** argv) {
  using namespace dynbcast;
  const Options opts(argc, argv);
  const std::size_t n = opts.getUInt("n", 4);
  opts.rejectUnreadOrExit();
  if (n < 2 || n > 6) {
    std::cout << "exact solving is practical for 2 <= n <= 6 (got " << n
              << ")\n";
    return 1;
  }

  std::cout << "exact broadcast game on n = " << n << " processes\n";
  std::cout << "adversary move pool |T_n| = " << rootedTreeCount(n)
            << " rooted trees\n\n";

  const ExactResult exact = ExactSolver(n).solve();
  const TheoremCheck check = checkTheorem31(n, exact.tStar);

  std::cout << "exact game value  t*(T_" << n << ") = " << exact.tStar
            << '\n';
  std::cout << "Theorem 3.1 bracket: [" << check.lower << ", " << check.upper
            << "]\n";
  std::cout << "states memoized: " << exact.statesMemoized
            << ", successors expanded: " << exact.successorsExpanded << '\n';

  const PortfolioResult heuristics = runPortfolio(n, 1);
  std::cout << "\nbest heuristic adversary: " << heuristics.bestName
            << " achieving " << heuristics.bestRounds << " of "
            << exact.tStar << " optimal rounds\n";

  std::cout << "\none optimal line of play:\n";
  for (const RootedTree& move : exact.line) {
    std::cout << "  " << move.toString() << '\n';
  }

  if (!check.withinUpper) {
    std::cout << "UPPER BOUND VIOLATION — impossible if Theorem 3.1 holds\n";
    return 1;
  }
  return 0;
}
