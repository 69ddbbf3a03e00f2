// Adaptive delaying adversaries.
//
// The paper's lower bound (inherited from Zeiner, Schwarz & Schmid [14])
// shows an adaptive adversary can force t* ≥ ⌈(3n−1)/2⌉ − 2, i.e. 50%
// beyond the static path's n−1. The strategies here are built on the
// *freezing* idea that also powers such constructions:
//
//   To stop new processes from learning about x, order the round's path
//   so that every process that knows x sits BELOW every process that
//   does not. Then no (knower → non-knower) edge exists and x's coverage
//   is frozen for the round, while the model's "≥ 1 new edge per round"
//   progress is paid by unimportant processes.
//
// reset() here must replay bit-identically; gated by the named suite.
// dynbcast-lint: replay-test(DeterministicAcrossInvocations)
//
// A second ingredient matters just as much: STABILITY. Re-sorting the
// path from scratch every round creates information cascades (a node
// placed early feeds its whole suffix), which *accelerates* broadcast.
// The effective delaying strategies keep the previous round's order and
// apply the minimal stable partition that freezes the current leaders —
// exactly the structure of the rotation constructions behind the
// ⌈(3n−1)/2⌉−2 bound.
//
// FreezePathAdversary applies the stable freeze directly;
// GreedyDelayAdversary evaluates a whole candidate pool (stable freezes,
// the unchanged previous path, rotations, brooms, heard-size orders,
// random paths/trees) one round ahead and picks the lexicographically
// least damaging tree.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "src/adversary/adversary.h"
#include "src/support/eval_scratch.h"
#include "src/support/rng.h"

namespace dynbcast {

/// Per-process coverage: coverage[x] = |{y : x ∈ Heard(y)}|. Broadcast is
/// done exactly when some coverage[x] == n.
[[nodiscard]] std::vector<std::size_t> coverageCounts(
    const BroadcastSim& state);

/// 2^min(c, 50): one process's term of DelayScore::potential and of the
/// damage-tree weights, read from a table. Every entry is an exact power
/// of two, so the table equals std::exp2(k) for k = 0..50 bit for bit.
[[nodiscard]] inline double potentialTerm(std::size_t coverage) {
  static constexpr std::array<double, 51> kTable = [] {
    std::array<double, 51> table{};
    for (std::size_t k = 0; k < table.size(); ++k) {
      table[k] = static_cast<double>(std::uint64_t{1} << k);
    }
    return table;
  }();
  return kTable[std::min<std::size_t>(coverage, kTable.size() - 1)];
}

/// The identity order 0, 1, …, n−1 (the initial path of every
/// order-carrying adversary).
[[nodiscard]] std::vector<std::size_t> identityOrder(std::size_t n);

/// Top-`depth` coverage leaders, highest coverage first (ties by id).
[[nodiscard]] std::vector<std::size_t> topLeaders(
    const std::vector<std::size_t>& coverage, std::size_t depth);

/// Processes sorted by |Heard| (ascending or descending), ties kept in id
/// order: HeardOrderPathAdversary's path, as an order.
[[nodiscard]] std::vector<std::size_t> heardSizeOrder(
    const BroadcastSim& state, bool ascending);

/// One-round damage assessment of a candidate tree, ordered so that
/// "smaller is better for the adversary" (lexicographic comparison).
///
/// The decisive field is the convex `potential` Σ_x 2^min(cov(x), 50):
/// every tree round raises SOMEONE's coverage, so max-coverage ties are
/// ubiquitous — but pushing the current leader (doubling the largest
/// term) is exponentially worse than spreading the same growth over
/// low-coverage processes, which is exactly the balanced structure exact
/// optimal play exhibits.
struct DelayScore {
  /// Candidate completes broadcast — the worst possible outcome.
  bool finishes = false;
  /// Convex coverage potential after the round (see above).
  double potential = 0.0;
  /// Highest coverage after the round (how close the best process is).
  std::size_t maxCoverage = 0;
  /// New product-graph edges created (the paper's progress measure).
  std::size_t newEdges = 0;

  friend bool operator<(const DelayScore& a, const DelayScore& b) {
    if (a.finishes != b.finishes) return !a.finishes;
    if (a.potential != b.potential) return a.potential < b.potential;
    if (a.maxCoverage != b.maxCoverage) return a.maxCoverage < b.maxCoverage;
    return a.newEdges < b.newEdges;
  }
};

/// Evaluates one candidate tree against the current heard state without
/// mutating it. `coverage` must equal coverageCounts of the same state.
/// When `coverageOut` is non-null it receives the post-round coverage
/// vector (used by search adversaries to avoid recomputation).
///
/// Convenience wrapper over the scratch overload below; allocates a fresh
/// scratch per call, so hot loops should hold an EvalScratch instead.
[[nodiscard]] DelayScore evaluateCandidate(
    const std::vector<DynBitset>& heard,
    const std::vector<std::size_t>& coverage, const RootedTree& tree,
    std::vector<std::size_t>* coverageOut = nullptr);

/// Allocation-free evaluation: all working state lives in `scratch`,
/// which is reused across calls. On return, scratch.heard holds the
/// candidate's post-round heard matrix and scratch.coverage its
/// post-round coverage — callers that keep a successor state (beam,
/// lookahead) copy from there instead of re-applying the tree. This is
/// the only evaluator that materializes the successor heard matrix.
[[nodiscard]] DelayScore evaluateCandidate(
    const std::vector<DynBitset>& heard,
    const std::vector<std::size_t>& coverage, const RootedTree& tree,
    EvalScratch& scratch);

/// Scores the path order[0] → order[1] → … straight from the order, equal
/// field for field to evaluateCandidate(heard, coverage, makePath(order)).
///
/// A round is one hop: heard'[y] = heard[y] ∪ heard[parent(y)] with the
/// parents' START-of-round rows, so on a path process order[i] learns
/// exactly heard[order[i−1]] \ heard[order[i]], and those differences
/// are all the coverage growth there is. No heard-matrix copy, BFS or
/// RootedTree is built; scratch.coverage receives the post-round
/// coverage and scratch.heard is left untouched. Throws AssertionError
/// unless `order` is a permutation of 0..n−1 (the check makePath makes).
[[nodiscard]] DelayScore evaluatePathOrder(
    const std::vector<DynBitset>& heard,
    const std::vector<std::size_t>& coverage,
    const std::vector<std::size_t>& order, EvalScratch& scratch);

/// Path adversary that freezes the top-`depth` coverage leaders with
/// nested knower/non-knower blocks, applied as a STABLE partition of the
/// previous round's order (initially the identity). depth == 1 freezes
/// the single leader exactly; the stable partition keeps all other
/// relative positions, avoiding self-inflicted cascades.
class FreezePathAdversary final : public Adversary {
 public:
  FreezePathAdversary(std::size_t n, std::size_t depth);

  [[nodiscard]] RootedTree nextTree(const BroadcastSim& state) override;
  [[nodiscard]] std::string name() const override;
  void reset() override;

 private:
  std::size_t n_;
  std::size_t depth_;
  std::vector<std::size_t> order_;
};

/// Delaying adversary restricted to brooms with a fixed handle length —
/// a member of BOTH restricted classes of [14]: a broom with handle h
/// has exactly h inner nodes and exactly n−h leaves. The handle is kept
/// in stable freeze order, so the adversary realizes the linear-in-n
/// delay its class admits (its static height is already h), giving the
/// benches a worst-case-shaped witness where random class members finish
/// in O(log n).
class FreezeBroomAdversary final : public Adversary {
 public:
  FreezeBroomAdversary(std::size_t n, std::size_t handleLen);

  [[nodiscard]] RootedTree nextTree(const BroadcastSim& state) override;
  [[nodiscard]] std::string name() const override;
  void reset() override;

 private:
  std::size_t n_;
  std::size_t handleLen_;
  std::vector<std::size_t> order_;
};

/// Path adversary ordering nodes by |Heard| (ascending or descending) —
/// a natural but weaker baseline for the greedy comparison.
class HeardOrderPathAdversary final : public Adversary {
 public:
  HeardOrderPathAdversary(std::size_t n, bool ascending);

  [[nodiscard]] RootedTree nextTree(const BroadcastSim& state) override;
  [[nodiscard]] std::string name() const override;

 private:
  std::size_t n_;
  bool ascending_;
};

/// Damage-greedy trees over memoized whole damage rows.
///
/// Attaching y under p leaks heard[p] \ heard[y] to y; the damage of that
/// edge is Σ weight[x] over the leaked x, where weight[x] = 2^min(cov, 50)
/// (times 10^6 for a process one step from broadcast) — teaching a
/// near-complete process is catastrophic. tree(root) attaches nodes
/// Prim-style, each to the attached parent that teaches it the least.
/// This mirrors the balanced-coverage structure of exact optimal play,
/// which uses general branching trees rather than paths.
///
/// Prim only ever reads the damages from one parent at a time, so they
/// are kept as rows: row(p)[y] = damage(p, y) for every y at once. On
/// the first tree() after a bind the cache transposes heard into the
/// knower matrix K[x] = {y : x ∈ heard[y]}; a row is then one
/// bitword::maskedWeightSum call over x ∈ heard[p], where lane y adds
/// weight[x] unless bit y of K[x] is set. Every lane adds its terms in
/// ascending x from +0.0 — the same additions, in the same order, as a
/// per-pair sum — so trees (sums and tie-breaks included) are
/// bit-identical on every SIMD tier. A row is computed at most once per
/// bind and shared by every tree built from that bind.
///
/// Each Prim step is one pass over the unattached nodes, kept as an
/// ascending list: it lowers their best costs from the new pick's row and
/// finds the next pick (the first index of the strict minimum).
///
/// Storage is reused across binds and invalidated by a generation stamp
/// per row: after the first bind at a given n, binding and building
/// allocate nothing but the returned tree, and a bind with no tree costs
/// only its weights. Rows are padded to a multiple of
/// bitword::kMaskedSumLanes doubles; the rows dominate the footprint,
/// about 8·n² B per owner (~130 KiB at n = 128).
class DamageCache {
 public:
  /// Binds to `heard` with the plain exponential weights of `coverage`.
  /// tree() reads `heard`, so it must stay alive and unchanged until the
  /// next bind.
  void bind(const std::vector<DynBitset>& heard,
            const std::vector<std::size_t>& coverage);

  /// Same, with each weight multiplied by 1 + amplitude·U[0, 1), drawn
  /// from `rng` in process-id order (none when amplitude is 0). The
  /// noise diversifies the trees for search adversaries (beam, exact
  /// solver), which rely on it for structured-but-diverse move pools.
  void bindNoisy(const std::vector<DynBitset>& heard,
                 const std::vector<std::size_t>& coverage, double amplitude,
                 Rng& rng);

  /// The damage-greedy tree rooted at `root` over the bound state.
  [[nodiscard]] RootedTree tree(std::size_t root);

 private:
  void bindWeights(const std::vector<DynBitset>& heard,
                   const std::vector<std::size_t>& coverage,
                   double amplitude, Rng* rng);
  /// row(p)[y] = damage(p, y) for every y < n, computed on first use.
  [[nodiscard]] const double* row(std::size_t p);

  const std::vector<DynBitset>* heard_ = nullptr;
  std::size_t n_ = 0;
  std::size_t nwords_ = 0;
  std::size_t stride_ = 0;                // n rounded up to whole lanes
  std::vector<double> weight_;
  std::vector<std::uint64_t> knowers_;    // K[x] at x·nwords_
  std::uint32_t knowersStamp_ = 0;        // generation that built knowers_
  std::vector<double> rows_;              // row(p) at p·stride_
  std::vector<std::uint32_t> rowStamp_;   // generation that computed row p
  std::uint32_t generation_ = 0;
  std::vector<double> bestCost_;          // Prim working state
  std::vector<std::size_t> unattached_;   // ascending
};

/// Configuration for GreedyDelayAdversary's candidate pool.
struct GreedyDelayConfig {
  std::size_t freezeDepthMax = 4;  ///< stable freezes with depth 1..max
  std::size_t randomPaths = 3;     ///< random path candidates per round
  std::size_t randomTrees = 2;     ///< uniform random tree candidates
  bool includeBrooms = true;       ///< broom variants of the freeze order
  bool includeHeardOrders = true;  ///< asc/desc heard-size paths
  bool includePrevious = true;     ///< the unchanged previous path
  bool includeRotations = true;    ///< head-to-tail / tail-to-head moves
  std::size_t damageTreeRoots = 3; ///< damage-greedy trees per round
};

/// The portfolio-greedy delaying adversary: evaluates every candidate one
/// round ahead with evaluateCandidate and plays the minimum DelayScore.
/// Keeps its path order across rounds (stability, see header comment).
class GreedyDelayAdversary final : public Adversary {
 public:
  GreedyDelayAdversary(std::size_t n, std::uint64_t seed,
                       GreedyDelayConfig config = {});

  [[nodiscard]] RootedTree nextTree(const BroadcastSim& state) override;
  [[nodiscard]] std::string name() const override { return "greedy-delay"; }
  void reset() override;

 private:
  std::size_t n_;
  std::uint64_t seed_;
  Rng rng_;
  GreedyDelayConfig config_;
  std::vector<std::size_t> order_;
  EvalScratch scratch_;  // reused across all candidate evaluations
  DamageCache damage_;   // shared by the round's damage-tree roots
};

/// Builds the stable freeze ordering over `baseOrder`: every process that
/// knows leader x_1 is moved after everyone who does not, with nested
/// stable sub-partitions for x_2 … x_d; all other relative positions in
/// `baseOrder` are preserved. Exposed for tests.
[[nodiscard]] std::vector<std::size_t> freezeOrdering(
    const BroadcastSim& state, const std::vector<std::size_t>& leaders,
    const std::vector<std::size_t>& baseOrder);

}  // namespace dynbcast
