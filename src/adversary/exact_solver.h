// ExactSolver: exact and certified-witness play for the broadcast game.
//
// Definition 2.3 makes t*(T_n) the value of a one-player game: the
// adversary repeatedly picks any rooted tree on [n] to maximize the
// number of rounds until the product graph has a full row. One
// completing move (any star) always exists, so t* is one more than the
// largest k for which the adversary can survive k moves from the
// identity state without completing broadcast.
//
// Both queries run one depth-first search, survives(state, k): can the
// adversary survive k more moves from this heard state? States are row
// arrays of 16-bit masks (row y = Heard(y)), which carries the solver
// to n ≤ 16. A node's children are the distinct non-completing
// successors under its move pool — every rooted tree for n ≤ 8, a
// structured pool beyond (damage trees from every root, freezes,
// heard-order paths, noisy damage trees) — ordered by the coverage
// potential Σ_x 2^cov(x). That order extends ⊆ (a state that has heard
// more survives no longer), so one pass drops every child that is a
// superset of an earlier sibling. A memo records the smallest refuted k
// per state; for the complete pool its keys are canonical under
// simultaneous node relabeling (an orbit-pruned permutation scan over
// invariant cells, typically a handful of permutations instead of n!).
//
//   solve() deepens k upward from n − 2 (the static path) with no node
//   budget and no child cap; the first level refuted exhaustively gives
//   t*, returned with the line of play that survived the level below.
//   Needs the complete pool (n ≤ 8); practical through n = 6.
//   witnessPlay(target) walks targets downward with a per-target node
//   budget and at most 4096 children per node, and returns a certified
//   lower-bound line — reaching the ⌈(3n−1)/2⌉−2 bound of [14] through
//   n = 9 in seconds.
//
// Every returned line replays to broadcast in exactly its length. This
// module validates everything else at small scale: the simulators, the
// bound formulas of Theorem 3.1, and how close the heuristic adversaries
// come to optimal play.
#pragma once

#include <cstdint>
#include <vector>

#include "src/tree/rooted_tree.h"

namespace dynbcast {

struct ExactOptions {
  /// Canonicalize states under node relabeling (strongly recommended).
  bool canonicalize = true;
};

struct ExactResult {
  /// The exact game value t*(T_n).
  std::size_t tStar = 0;
  /// One optimal line of play: tStar trees that broadcast exactly in the
  /// last round. Replaying it on a simulator certifies t* ≥ tStar.
  std::vector<RootedTree> line;
  /// Size of the refuted-state memo: distinct (canonical) states the
  /// search proved cannot survive some number of further moves.
  std::uint64_t statesMemoized = 0;
  /// Successor states searched (after per-state deduplication).
  std::uint64_t successorsExpanded = 0;
  /// Successors dropped by the row-wise dominance filter.
  std::uint64_t dominatedPruned = 0;
};

struct ExactWitnessOptions {
  /// Search-node budget per target; once a target exhausts it, the
  /// search moves on to the next smaller target with a fresh budget.
  std::uint64_t nodeBudget = 2'000'000;
};

class ExactSolver {
 public:
  /// Row-array encoding limit: 16 rows of 16-bit masks.
  static constexpr std::size_t kMaxN = 16;

  /// Precondition: 2 ≤ n ≤ kMaxN. solve() additionally requires the
  /// full move pool to be enumerable (n ≤ 8).
  explicit ExactSolver(std::size_t n, ExactOptions options = {});

  /// Computes t*(T_n) and one optimal line of play. Requires n ≤ 8
  /// (throws AssertionError beyond); time grows steeply — n = 5 takes
  /// milliseconds, n = 6 about half a minute.
  [[nodiscard]] ExactResult solve();

  /// Searches for a play achieving `targetRounds` and returns the
  /// longest certified play found (its length may fall short of the
  /// target when the search space or node budget is exhausted; it never
  /// exceeds the target, and never falls below min(target, n − 1), the
  /// static path's rounds). The returned sequence replays from the
  /// identity state to broadcast in exactly its length — verified
  /// internally before returning. Unlike solve(), works for all
  /// 2 ≤ n ≤ kMaxN: the branching pool is complete for n ≤ 8 and
  /// structured beyond.
  [[nodiscard]] std::vector<RootedTree> witnessPlay(
      std::size_t targetRounds, ExactWitnessOptions witnessOptions = {});

 private:
  std::size_t n_;
  ExactOptions options_;
};

}  // namespace dynbcast
